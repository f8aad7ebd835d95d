import random
from itertools import product

import pytest

from _generators import make_network, node_op, random_network_instance
from _reference import check_requirement_by_tuples, edge_values_by_tuple, truth_table_by_tuples
from qnc4 import instances
from qnc4.classical_eval import (
    MAX_EXHAUSTIVE_SOURCES,
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
    Network,
    Node,
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


def _agrees_with_the_reference(net, proto, rng) -> bool:
    """Verdict, counterexample, truth table (in its row order) and one
    random row's edge letters, against the one-walk-per-tuple reference;
    returns the verdict."""
    res = check_requirement(net, proto)
    assert (res.ok, res.counterexample) == check_requirement_by_tuples(net, proto)
    assert list(truth_table(net, proto).rows.items()) == list(
        truth_table_by_tuples(net, proto).items()
    )
    xs = [rng.randrange(4) for _ in net.source_ids]
    assert edge_values(net, proto, xs) == edge_values_by_tuple(net, proto, xs)
    return res.ok


def test_one_walk_agrees_with_the_per_tuple_reference():
    rng = random.Random(1)
    for name in instances.BUNDLED:
        net, proto = instances.bundled(name)
        d3, _ = normalize_to_d3(net, proto)
        assert _agrees_with_the_reference(net, proto, rng), name
        assert _agrees_with_the_reference(d3.network, d3.protocol, rng), name
    verdicts = []
    for k in range(2400):
        # every fourth draw may have 4 sources, 256 rows
        net, proto = random_network_instance(rng, max_sources=4 if k % 4 == 0 else 3)
        verdicts.append(_agrees_with_the_reference(net, proto, rng))
    # both verdicts occur, so the counterexample is compared as well
    assert 0 < sum(verdicts) < len(verdicts)


def _side_by_side(net, proto, copies: int):
    """`copies` relabelled copies of an instance in one network."""
    nodes, edges, requirements, ops = [], [], {}, {}
    for i in range(copies):
        ids = {n.id: f"{n.id}.{i}" for n in net.nodes}
        nodes += [Node(ids[n.id], n.kind) for n in net.nodes]
        edges += [(ids[u], ids[v]) for u, v in net.edges]
        requirements.update({ids[t]: ids[s] for t, s in net.requirements.items()})
        ops.update({ids[v]: nops for v, nops in proto.ops.items()})
    return Network(nodes, edges, requirements), ClassicalProtocol(proto.group, ops)


def test_eight_sources_are_checked_in_full():
    net, proto = _side_by_side(*instances.bundled("butterfly-z4"), 4)
    assert len(net.source_ids) == MAX_EXHAUSTIVE_SOURCES == 8
    assert check_requirement(net, proto).ok
    table = truth_table(net, proto)
    assert len(table.rows) == 4**8
    assert list(table.rows)[4**8 - 2] == (3,) * 7 + (2,)
    # with the first copy's sinks swapped, the first failing tuple in
    # lexicographic order sets s2.0, the fifth source, and nothing else;
    # the reference stops there, after 65 tuples
    net.requirements.update({"t1.0": "s2.0", "t2.0": "s1.0"})
    res = check_requirement(net, proto)
    assert (res.ok, res.counterexample) == (False, (0, 0, 0, 0, 1, 0, 0, 0))
    assert check_requirement_by_tuples(net, proto) == (False, res.counterexample)
