import itertools
import json
import random

import pytest

from qnc4 import instances, netgraph
from qnc4.errors import QncError, SchemaError, ValidationError
from qnc4.netgraph import (
    ClassicalProtocol,
    D3Network,
    GroupKind,
    IDENTITY_MAP,
    LetterMap,
    MapClass,
    Term,
    constant_map,
    instance_from_json,
    instance_to_json,
    letter_from_str,
    letter_to_str,
    make_network,
    node_op,
    normalize_to_d3,
    validate_d3,
    validate_network,
)
from qnc4.classical_eval import truth_table

from _generators import random_network_instance


def test_letter_strings_round_trip():
    for z in range(4):
        assert letter_from_str(letter_to_str(z)) == z
    with pytest.raises(SchemaError):
        letter_from_str("2")


@pytest.mark.parametrize(
    "group,a,b,want",
    [
        (GroupKind.Z4, 3, 2, 1),
        (GroupKind.Z4, 1, 3, 0),
        (GroupKind.Z2xZ2, 3, 2, 1),
        (GroupKind.Z2xZ2, 1, 3, 2),
    ],
)
def test_group_addition(group, a, b, want):
    assert group.add(a, b) == want


def test_group_axioms():
    for group in GroupKind:
        for a in range(4):
            assert group.add(a, 0) == a
            assert any(group.add(a, b) == 0 for b in range(4))
            for b in range(4):
                assert group.add(a, b) == group.add(b, a)


def test_map_classification():
    assert constant_map(2).try_classify() is MapClass.CONSTANT
    assert IDENTITY_MAP.try_classify() is MapClass.ONE_TO_ONE
    assert LetterMap((1, 1, 3, 3)).try_classify() is MapClass.TWO_TO_ONE
    # image size 3, and a 3/1 split onto two values: both illegal
    assert LetterMap((0, 1, 2, 2)).try_classify() is None
    assert LetterMap((0, 0, 0, 1)).try_classify() is None


def test_map_classification_over_every_table():
    # the rule, written out: image size 1 is constant, 4 is one-to-one, and
    # 2 is two-to-one only when each image value has two preimages
    found = {cls: 0 for cls in (*MapClass, None)}
    for table in itertools.product(range(4), repeat=4):
        preimages = sorted(table.count(y) for y in set(table))
        want = {
            (4,): MapClass.CONSTANT,
            (1, 1, 1, 1): MapClass.ONE_TO_ONE,
            (2, 2): MapClass.TWO_TO_ONE,
        }.get(tuple(preimages))
        got = LetterMap(table).try_classify()
        assert got is want, table
        found[got] += 1
    assert found == {
        MapClass.CONSTANT: 4, MapClass.ONE_TO_ONE: 24, MapClass.TWO_TO_ONE: 36, None: 192
    }


def test_validate_accepts_bundled_instances():
    for name in instances.BUNDLED:
        net, proto = instances.bundled(name)
        report = validate_network(net, proto)
        assert report.ok, report.violations


def _tiny(ops=None, edges=None, requirements=None, nodes=None):
    net = make_network(
        nodes or [("s", "source"), ("t", "sink")],
        edges if edges is not None else [("s", "t")],
        requirements if requirements is not None else {"t": "s"},
    )
    return net, ClassicalProtocol(GroupKind.Z4, ops or {})


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (dict(nodes=[("s", "source"), ("s", "source"), ("t", "sink")]), "duplicate"),
        (dict(nodes=[("s", "widget"), ("t", "sink")]), "kind"),
        (dict(edges=[("s", "t"), ("s", "x")]), "unknown"),
        (dict(edges=[]), "outdegree 0"),
        (dict(requirements={}), "requirement"),
        (dict(requirements={"t": "t"}), "requirement"),
        (dict(ops={"s": (node_op(0, []),)}), "source"),
        (dict(ops={"t": (node_op(1, []),)}), "missing outgoing"),
        (
            dict(nodes=[("s", "source"), ("h", "internal"), ("t", "sink")],
                 edges=[("s", "h"), ("s", "t")]),
            "internal node h has outdegree 0",
        ),
        (dict(requirements={"t": "s", "s": "s"}), "requirement names s, which is not a sink"),
    ],
)
def test_validation_violations(mutate, needle):
    net, proto = _tiny(**mutate)
    report = validate_network(net, proto)
    assert not report.ok
    assert any(needle in v for v in report.violations), report.violations


def test_unknown_kind_skips_only_the_checks_that_need_a_kind():
    # no degree or requirement line for the widget, and no position check
    # for its operation, but its illegal map is still reported
    net, proto = _tiny(
        nodes=[("s", "widget"), ("v", "widget"), ("t", "sink")],
        edges=[("s", "v"), ("v", "t")],
        ops={"v": (node_op(3, [(0, LetterMap((0, 1, 2, 2)))]),)},
    )
    assert validate_network(net, proto).violations == [
        "node s has unknown kind 'widget'",
        "node v has unknown kind 'widget'",
        "operation map (0, 1, 2, 2) on node v (out 3) is neither constant, "
        "one-to-one nor two-to-one",
    ]


def test_validation_rejects_illegal_map():
    net, proto = _tiny(
        nodes=[("s", "source"), ("v", "internal"), ("t", "sink")],
        edges=[("s", "v"), ("v", "t")],
        ops={"v": (node_op(0, [(0, LetterMap((0, 1, 2, 2)))]),)},
    )
    report = validate_network(net, proto)
    assert any("map" in v for v in report.violations), report.violations


def test_validation_requires_decode_for_wide_sink():
    net, proto = _tiny(
        nodes=[("s1", "source"), ("s2", "source"), ("t", "sink")],
        edges=[("s1", "t"), ("s2", "t")],
        requirements={"t": "s1"},
    )
    report = validate_network(net, proto)
    assert any("decode" in v for v in report.violations), report.violations


def test_cycle_detection():
    net, proto = _tiny(
        nodes=[("s", "source"), ("a", "internal"), ("b", "internal"), ("t", "sink")],
        edges=[("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")],
    )
    report = validate_network(net, proto)
    assert any("cycle" in v for v in report.violations)
    with pytest.raises(QncError):
        net.topo_order


@pytest.mark.parametrize(
    "listed, walked",
    [
        (["z", "b", "y", "a", "t"], ["z", "b", "y", "a", "t"]),
        (["t", "a", "y", "b", "z"], ["b", "a", "z", "y", "t"]),
    ],
    ids=["topological-listing", "listing-against-the-edges"],
)
def test_kahn_takes_the_ready_node_listed_first(listed, walked):
    # sources z and b, z -> y -> t, b -> a -> t: ids never decide the order
    kinds = {"z": "source", "b": "source", "t": "sink"}
    net = make_network(
        [(v, kinds.get(v, "internal")) for v in listed],
        [("z", "y"), ("b", "a"), ("y", "t"), ("a", "t")],
        {"t": "z"},
    )
    assert net.kahn() == net.topo_order == walked


def test_normalize_rejects_invalid_instance():
    net, proto = _tiny(edges=[])
    with pytest.raises(ValidationError) as err:
        normalize_to_d3(net, proto)
    assert err.value.report.violations


# ---------------------------------------------------------------------------
# normalization


def test_normalize_butterfly_shape():
    net, proto = instances.bundled("butterfly")
    d3, corr = normalize_to_d3(net, proto)
    assert validate_d3(d3).ok
    ids = sorted(n.id for n in d3.network.nodes)
    assert ids == [
        "s0",
        "s1",
        "s1.f0",
        "s2",
        "s2.f0",
        "t0",
        "t1",
        "t1.j0.0",
        "t2",
        "t2.j0.0",
    ]
    assert len(d3.network.edges) == 11
    roles = d3.roles
    assert roles["s0"] == "join" and roles["t0"] == "fork"
    assert roles["s1.f0"] == "fork" and roles["t1.j0.0"] == "join"
    # original node ids map onto their replacements
    assert corr["s1"] == ["s1", "s1.f0"]
    assert corr["t1"] == ["t1.j0.0", "t1"]


def test_normalize_names_fork_chains_longer_than_one():
    # three copies of a value take a chain of two forks: fork k feeds copy k
    # and the next fork, the last fork the final two copies.  Source s has
    # three out-edges; internal node v reads its one input in three terms,
    # one per output.
    net = make_network(
        [("s", "source"), ("v", "internal")] + [(f"t{k}", "sink") for k in range(5)],
        [("s", "t0"), ("s", "t1"), ("s", "v"), ("v", "t2"), ("v", "t3"), ("v", "t4")],
        {f"t{k}": "s" for k in range(5)},
    )
    proto = ClassicalProtocol(
        GroupKind.Z4, {"v": tuple(node_op(j, [(0, IDENTITY_MAP)]) for j in range(3))}
    )
    d3, corr = normalize_to_d3(net, proto)
    assert corr["s"] == ["s", "s.f0", "s.f1"]
    assert corr["v"] == ["v.f0.0", "v.f0.1"]
    assert all(d3.roles[f] == "fork" for f in corr["s"][1:] + corr["v"])
    fed = {}
    for u, w in d3.network.edges:
        fed.setdefault(u, set()).add(w)
    assert fed["s"] == {"s.f0"}
    assert fed["s.f0"] == {"t0.rx", "s.f1"}
    assert fed["s.f1"] == {"t1.rx", "v.f0.0"}
    assert fed["v.f0.0"] == {"t2.rx", "v.f0.1"}
    assert fed["v.f0.1"] == {"t3.rx", "t4.rx"}
    assert truth_table(d3).rows == truth_table(net, proto).rows


def test_normalize_renames_a_fork_whose_id_is_taken():
    # source s needs a fork, which would be named s.f0, but the instance
    # already has a node of that name: the new fork takes the next free id
    shift = LetterMap((1, 2, 3, 0))
    net = make_network(
        [("s", "source"), ("s.f0", "internal"), ("t1", "sink"), ("t2", "sink")],
        [("s", "s.f0"), ("s", "t2"), ("s.f0", "t1")],
        {"t1": "s", "t2": "s"},
    )
    proto = ClassicalProtocol(GroupKind.Z4, {"s.f0": (node_op(0, [(0, shift)]),)})
    d3, corr = normalize_to_d3(net, proto)
    assert corr["s"] == ["s", "s.f0_"]
    assert corr["s.f0"] == ["s.f0"]
    assert d3.roles["s.f0_"] == "fork"
    assert d3.roles["s.f0"] == "transform" and d3.transforms["s.f0"] == shift
    assert sorted(d3.network.edges) == [
        ("s", "s.f0_"), ("s.f0", "t1"), ("s.f0_", "s.f0"), ("s.f0_", "t2.rx"), ("t2.rx", "t2")
    ]
    assert truth_table(d3).rows == truth_table(net, proto).rows


def _fixpoint_inputs():
    for name in sorted(instances.BUNDLED):
        yield name, instances.bundled(name)
    rng = random.Random(1)
    for k in range(200):
        yield f"draw {k}", random_network_instance(rng)


def test_normalize_is_fixpoint_on_normal_form():
    # the normalizer walks in listing order and lists nodes and edges as it
    # emits them, so a normal form read back from its JSON document
    # normalizes to itself, node for node and edge for edge
    for label, (net, proto) in _fixpoint_inputs():
        d3, _ = normalize_to_d3(net, proto)
        doc = json.loads(json.dumps(instance_to_json(d3.network, d3.protocol)))
        again, corr = normalize_to_d3(*instance_from_json(doc))
        assert again.network.nodes == d3.network.nodes, label
        assert again.network.edges == d3.network.edges, label
        assert again.network.requirements == d3.network.requirements, label
        assert again.transforms == d3.transforms, label
        assert again.group == d3.group, label
        assert corr == {n.id: [n.id] for n in d3.network.nodes}, label


def test_normalize_wide_node_decomposition():
    # one internal node with three inputs, two outputs and six non-identity
    # maps: expect a fork per input, one transform per map, and a join
    # chain per output
    maps = [
        LetterMap((1, 2, 3, 0)),
        LetterMap((3, 0, 1, 2)),
        LetterMap((0, 3, 2, 1)),
        LetterMap((2, 1, 0, 3)),
        LetterMap((1, 0, 3, 2)),
        LetterMap((2, 3, 0, 1)),
    ]
    net = make_network(
        [
            ("s1", "source"),
            ("s2", "source"),
            ("s3", "source"),
            ("v", "internal"),
            ("t1", "sink"),
            ("t2", "sink"),
        ],
        [("s1", "v"), ("s2", "v"), ("s3", "v"), ("v", "t1"), ("v", "t2")],
        {"t1": "s1", "t2": "s2"},
    )
    proto = ClassicalProtocol(
        GroupKind.Z4,
        {
            "v": (
                node_op(0, [(0, maps[0]), (1, maps[1]), (2, maps[2])]),
                node_op(1, [(0, maps[3]), (1, maps[4]), (2, maps[5])]),
            )
        },
    )
    d3, _ = normalize_to_d3(net, proto)
    assert validate_d3(d3).ok
    by_role = {}
    for v, r in d3.roles.items():
        by_role.setdefault(r, []).append(v)
    assert len(by_role["fork"]) == 3
    assert len(by_role["transform"]) == 6
    assert len(by_role["join"]) == 4
    assert len(d3.network.nodes) == 18
    assert len(d3.network.edges) == 19


def test_normalize_inserts_transform_between_new_fork_and_sink():
    # s feeds both sinks directly; the created fork may not touch a sink
    net = make_network(
        [("s", "source"), ("t1", "sink"), ("t2", "sink")],
        [("s", "t1"), ("s", "t2")],
        {"t1": "s", "t2": "s"},
    )
    proto = ClassicalProtocol(GroupKind.Z4, {})
    d3, _ = normalize_to_d3(net, proto)
    assert validate_d3(d3).ok
    for t in ("t1", "t2"):
        (e,) = d3.network.in_edges(t)
        producer = d3.network.edges[e][0]
        assert d3.roles[producer] == "transform"
        assert d3.transforms[producer].is_identity


def test_normalize_absorbs_unused_inputs():
    # v ignores its second input; the normal form must still consume it
    net = make_network(
        [("s1", "source"), ("s2", "source"), ("v", "internal"), ("t", "sink")],
        [("s1", "v"), ("s2", "v"), ("v", "t")],
        {"t": "s1"},
    )
    proto = ClassicalProtocol(
        GroupKind.Z4, {"v": (node_op(0, [(0, IDENTITY_MAP)]),)}
    )
    d3, _ = normalize_to_d3(net, proto)
    assert validate_d3(d3).ok
    table = truth_table(d3)
    for (x, y), (out,) in table.rows.items():
        assert out == x


def test_sink_decode_defaults_to_identity_and_empty_means_constant():
    proto = ClassicalProtocol(GroupKind.Z4, {"t": (node_op(0, []),)})
    assert proto.decode_terms("t") == ()
    assert proto.decode_terms("u") == (Term(0, IDENTITY_MAP),)


def test_normalize_keeps_empty_sink_decode_constant():
    # an explicit decode with no terms delivers the constant 00; it must not
    # degrade into the identity default of an omitted decode
    net = make_network(
        [("a", "source"), ("b", "source"), ("t", "sink")],
        [("a", "t"), ("b", "t")],
        {"t": "a"},
    )
    proto = ClassicalProtocol(GroupKind.Z2xZ2, {"t": (node_op(0, []),)})
    d3, _ = normalize_to_d3(net, proto)
    table = truth_table(d3)
    assert table.rows == truth_table(net, proto).rows
    assert all(outs == (0,) for outs in table.rows.values())


def test_normalize_preserves_truth_tables_random():
    rng = random.Random(1234)
    for _ in range(40):
        net, proto = random_network_instance(rng)
        if not validate_network(net, proto).ok:
            continue
        d3, _ = normalize_to_d3(net, proto)
        assert validate_d3(d3).ok
        want = truth_table(net, proto)
        got = truth_table(d3)
        assert want.sources == got.sources
        assert want.sinks == got.sinks
        assert want.rows == got.rows


# ---------------------------------------------------------------------------
# JSON


def test_instance_json_round_trip():
    for name in instances.BUNDLED:
        net, proto = instances.bundled(name)
        doc = json.loads(json.dumps(instance_to_json(net, proto)))
        net2, proto2 = instance_from_json(doc)
        assert [n.id for n in net2.nodes] == [n.id for n in net.nodes]
        assert net2.edges == net.edges
        assert net2.requirements == net.requirements
        assert proto2.group == proto.group
        assert proto2.ops == proto.ops


def test_roles_are_one_to_one_on_kind_and_degree():
    # D3Network.roles reads each node's role back from its kind and degree
    assert len(set(netgraph._ROLES.values())) == len(netgraph._ROLES)


@pytest.mark.parametrize(
    "edit, violations",
    [
        (lambda maps: maps.pop("u1"), ["transform u1 has no letter map"]),
        (
            lambda maps: maps.__setitem__("d", IDENTITY_MAP),
            ["letter map given for non-transform node d"],
        ),
        (
            lambda maps: maps.__setitem__("nowhere", IDENTITY_MAP),
            ["letter map given for unknown node nowhere"],
        ),
    ],
    ids=["missing-map", "map-on-fork", "map-for-unknown-node"],
)
def test_d3_network_refuses_a_wrong_letter_map(edit, violations):
    d3, _ = normalize_to_d3(*instances.bundled("two-to-one-diamond"))
    maps = dict(d3.transforms)
    edit(maps)
    with pytest.raises(ValidationError) as err:
        D3Network(d3.network, maps, d3.group)
    assert err.value.report.violations == violations


def test_d3_network_reports_a_wrong_degree_once():
    # without edge s1 -> s1.f0, two nodes have a kind and degree that belong
    # to no role: each is reported once, with the degrees its kind allows
    d3, _ = normalize_to_d3(*instances.bundled("butterfly"))
    net = d3.network
    edges = [e for e in net.edges if e != ("s1", "s1.f0")]
    assert len(edges) == len(net.edges) - 1
    with pytest.raises(ValidationError) as err:
        D3Network(netgraph.Network(net.nodes, edges, net.requirements), d3.transforms, d3.group)
    assert err.value.report.violations == [
        "source s1 has degree (0, 0), expected (0, 1)",
        "internal s1.f0 has degree (0, 2), expected (1, 2), (2, 1) or (1, 1)",
    ]


@pytest.mark.parametrize(
    "breakage",
    [
        lambda d: d.pop("group"),
        lambda d: d["edges"].append({"from": "s1"}),
        lambda d: d["nodes"].append({"id": "x", "kind": 7}),
        lambda d: d.__setitem__("requirements", 3),
    ],
)
def test_instance_json_schema_errors(breakage):
    net, proto = instances.bundled("butterfly")
    doc = instance_to_json(net, proto)
    breakage(doc)
    with pytest.raises(SchemaError):
        instance_from_json(doc)
