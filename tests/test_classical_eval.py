from itertools import product

import pytest

from qnc4 import instances
from qnc4.classical_eval import (
    check_requirement,
    edge_values,
    evaluate,
    truth_table,
)
from qnc4.errors import SizeError
from qnc4.netgraph import (
    ClassicalProtocol,
    GroupKind,
    IDENTITY_MAP,
    LetterMap,
    make_network,
    node_op,
    normalize_to_d3,
)


def _butterfly(group):
    """The bundled butterfly, or its variant over the cyclic group, where
    each sink subtracts (x -> -x) the letter it receives directly."""
    net, proto = instances.bundled("butterfly")
    if group is GroupKind.Z4:
        decode = (node_op(0, [(0, LetterMap((0, 3, 2, 1))), (1, IDENTITY_MAP)]),)
        proto = ClassicalProtocol(group, {**proto.ops, "t1": decode, "t2": decode})
    return net, proto


@pytest.mark.parametrize("group", list(GroupKind))
def test_butterfly_delivers_both_letters(group):
    net, proto = _butterfly(group)
    for x, y in product(range(4), repeat=2):
        assert evaluate(net, proto, [x, y]) == (x, y)
    assert check_requirement(net, proto).ok


def test_butterfly_edge_values():
    net, proto = _butterfly(GroupKind.Z4)
    vals = edge_values(net, proto, [1, 2])
    assert vals[0] == 1 and vals[2] == 2
    assert vals[4] == 3  # relay carries the sum
    assert vals[5] == vals[6] == 3


def test_bundled_requirements_hold():
    for name in instances.BUNDLED:
        net, proto = instances.bundled(name)
        assert check_requirement(net, proto).ok, name


def test_requirement_counterexample_is_reported():
    net = make_network(
        [("s", "source"), ("v", "internal"), ("t", "sink")],
        [("s", "v"), ("v", "t")],
        {"t": "s"},
    )
    from qnc4.netgraph import constant_map

    proto = ClassicalProtocol(GroupKind.Z4, {"v": (node_op(0, [(0, constant_map(0))]),)})
    res = check_requirement(net, proto)
    assert not res.ok
    assert res.counterexample == (1,)  # first failing input tuple in order


def test_truth_table_matches_evaluate():
    net, proto = instances.bundled("two-to-one-diamond")
    table = truth_table(net, proto)
    assert table.sources == ("s",)
    assert table.sinks == ("t",)
    for ins, outs in table.rows.items():
        assert evaluate(net, proto, list(ins)) == outs
        assert outs == ins  # the diamond reassembles its input


def test_inputs_arity_checked():
    net, proto = instances.bundled("butterfly")
    with pytest.raises(ValueError):
        evaluate(net, proto, [0])


def test_exhaustive_guard():
    n = 9
    nodes = [(f"s{i}", "source") for i in range(n)] + [("t", "sink")]
    edges = [(f"s{i}", "t") for i in range(n)]
    ops = {"t": (node_op(0, [(0, IDENTITY_MAP)]),)}
    net = make_network(nodes, edges, {"t": "s0"})
    proto = ClassicalProtocol(GroupKind.Z4, ops)
    with pytest.raises(SizeError):
        truth_table(net, proto)
    with pytest.raises(SizeError):
        check_requirement(net, proto)


def test_evaluate_accepts_d3_directly():
    net, proto = instances.bundled("butterfly")
    d3, _ = normalize_to_d3(net, proto)
    implied = d3.protocol
    for x, y in product(range(4), repeat=2):
        assert evaluate(d3, None, [x, y]) == (x, y)
    assert d3.protocol is implied  # built once, not once per call


@pytest.mark.parametrize("entry", [evaluate, edge_values, truth_table, check_requirement])
def test_plain_network_needs_its_protocol(entry):
    net, _ = instances.bundled("butterfly")
    args = [[0, 0]] if entry in (evaluate, edge_values) else []
    with pytest.raises(TypeError, match="a plain Network needs its ClassicalProtocol"):
        entry(net, None, *args)
