import itertools
import json
import random
from fractions import Fraction

import pytest

from qnc4 import cli, instances, netgraph
from qnc4.errors import QncError, SchemaError, ValidationError
from qnc4.netgraph import (
    ClassicalProtocol,
    D3Network,
    GroupKind,
    IDENTITY_MAP,
    LetterMap,
    Term,
    constant_map,
    instance_from_json,
    instance_to_json,
    letter_from_str,
    letter_to_str,
    normalize_to_d3,
    validate_d3,
    validate_network,
)
from qnc4.classical_eval import check_requirement, truth_table
from qnc4.qcompiler import (
    TRANSFORM_CONSTANT,
    TRANSFORM_MAP,
    TRANSFORM_ONE_TO_ONE,
    TRANSFORM_TWO_TO_ONE,
    compile_protocol,
)

from _generators import make_network, node_op, random_network_instance


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


def _transform_op(m: LetterMap):
    """The compiled op of transform h in source -> h -> sink, carrying m."""
    net = make_network(
        [("s", "source"), ("h", "internal"), ("t", "sink")], [("s", "h"), ("h", "t")], {"t": "s"}
    )
    return compile_protocol(D3Network(net, {"h": m}, GroupKind.Z4)).ops["h"]


def test_map_classification():
    # every map compiles; the 192 outside the paper's three classes, such
    # as image size 3 or a 3/1 split onto two values, share one tag
    for m, tag in [
        (constant_map(2), TRANSFORM_CONSTANT),
        (IDENTITY_MAP, TRANSFORM_ONE_TO_ONE),
        (LetterMap((1, 1, 3, 3)), TRANSFORM_TWO_TO_ONE),
        (LetterMap((0, 1, 2, 2)), TRANSFORM_MAP),
        (LetterMap((0, 0, 0, 1)), TRANSFORM_MAP),
    ]:
        assert _transform_op(m).tag == tag, m


def test_map_classification_over_every_table():
    # the rule, written out: image size 1 is constant, 4 is one-to-one, 2
    # is two-to-one when each image value has two preimages, and every
    # other map is TRANSFORM_MAP; at incoming shrink 1 the row
    # a/(3k - (k - 1)a) is 1/(2k + 1) for k, the largest preimage size,
    # and a constant map emits shrink 1
    found = {}
    for table in itertools.product(range(4), repeat=4):
        preimages = sorted(table.count(y) for y in set(table))
        want = {
            (4,): TRANSFORM_CONSTANT,
            (1, 1, 1, 1): TRANSFORM_ONE_TO_ONE,
            (2, 2): TRANSFORM_TWO_TO_ONE,
        }.get(tuple(preimages), TRANSFORM_MAP)
        op = _transform_op(LetterMap(table))
        assert op.tag == want, table
        k = preimages[-1]
        assert op.alpha == (1 if k == 4 else Fraction(1, 2 * k + 1)), table
        found[op.tag] = found.get(op.tag, 0) + 1
    assert found == {
        TRANSFORM_CONSTANT: 4, TRANSFORM_ONE_TO_ONE: 24, TRANSFORM_TWO_TO_ONE: 36, TRANSFORM_MAP: 192
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
    # for its operation, but its term list reading edge 0 twice is still
    # reported
    net, proto = _tiny(
        nodes=[("s", "widget"), ("v", "widget"), ("t", "sink")],
        edges=[("s", "v"), ("v", "t")],
        ops={"v": (node_op(3, [(0, IDENTITY_MAP), (0, IDENTITY_MAP)]),)},
    )
    assert validate_network(net, proto).violations == [
        "node s has unknown kind 'widget'",
        "node v has unknown kind 'widget'",
        "operation on node v (out 3) references incoming edge 0 twice",
    ]


def test_validation_accepts_a_map_of_no_paper_class():
    # image size 3: neither constant, one-to-one nor two-to-one
    net, proto = _tiny(
        nodes=[("s", "source"), ("v", "internal"), ("t", "sink")],
        edges=[("s", "v"), ("v", "t")],
        ops={"v": (node_op(0, [(0, LetterMap((0, 1, 2, 2)))]),)},
    )
    assert validate_network(net, proto).ok
    d3, _ = normalize_to_d3(net, proto)
    assert d3.transforms == {"v": LetterMap((0, 1, 2, 2))}


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


def test_each_network_is_walked_once(monkeypatch):
    # load, validate, check delivery, normalize and compile walk the given
    # network and its normal form once each: validation reads the kept
    # topo_order, and a cycle still gives its one violation line
    walked = []
    kahn = netgraph.Network.kahn

    def counting(net, key=None):
        walked.append(net)
        return kahn(net, key)

    monkeypatch.setattr(netgraph.Network, "kahn", counting)
    for name in sorted(instances.BUNDLED):
        walked.clear()
        net, proto, d3, _ = cli.load_instance(name)
        check_requirement(net, proto)
        compile_protocol(d3)
        assert len(walked) == 2 and walked[0] is net and walked[1] is d3.network, name
    net, proto = _tiny(
        nodes=[("s", "source"), ("a", "internal"), ("b", "internal"), ("t", "sink")],
        edges=[("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")],
    )
    walked.clear()
    assert [v for v in validate_network(net, proto).violations if "cycle" in v] == [
        "network contains a cycle"
    ]
    assert len(walked) == 1


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


def test_kahn_follows_its_key_among_nodes_ready_at_the_start():
    # the sources are listed against their key, so the walk must reorder
    # the nodes that are ready before any is taken
    net = make_network(
        [("c", "source"), ("b", "source"), ("a", "source"), ("t", "sink")],
        [("c", "t"), ("b", "t"), ("a", "t")],
        {"t": "a"},
    )
    assert net.kahn(lambda v: v) == ["a", "b", "c", "t"]


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
        assert d3.transforms[producer] == IDENTITY_MAP


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


_ONE_IN = dict(
    nodes=[("s", "source"), ("v", "internal"), ("t", "sink")], edges=[("s", "v"), ("v", "t")]
)
_ID = LetterMap((0, 1, 2, 3))  # equal to IDENTITY_MAP, not the same object


@pytest.mark.parametrize(
    "instance, maps",
    [
        (
            dict(
                nodes=[("s1", "source"), ("s2", "source"), ("v", "internal"), ("t", "sink")],
                edges=[("s1", "v"), ("s2", "v"), ("v", "t")],
                requirements={"t": "s1"},
                ops={"v": (node_op(0, [(1, _ID), (0, _ID)]),)},
            ),
            {},
        ),
        (dict(_ONE_IN, ops={"v": (node_op(0, []),)}), {"v": constant_map(0)}),
        (
            dict(_ONE_IN, ops={"v": (node_op(0, [(0, LetterMap((0, 1, 2, 2)))]),)}),
            {"v": LetterMap((0, 1, 2, 2))},
        ),
        (dict(ops={"t": (node_op(0, [(0, _ID)]),)}), {}),
    ],
    ids=["join-listed-input-1-first", "empty-term-list", "map-of-no-paper-class",
         "explicit-identity-decode"],
)
def test_normalize_keeps_a_node_whose_terms_are_its_roles(instance, maps, monkeypatch):
    # in the general layout, each node's terms are its role's up to order,
    # the empty sum and a transform's own map: it keeps its id, map and
    # edges, nothing is decomposed, and the normal form's protocol gives
    # back the same operations, the empty sum as the constant 00
    def decompose(*args):
        raise AssertionError(f"decomposed {args[1]}")

    monkeypatch.setattr(netgraph._Normalizer, "_build_chains", decompose)
    net, proto = _tiny(**instance)
    d3, corr = normalize_to_d3(net, proto)
    assert d3.network.nodes == net.nodes
    assert d3.network.edges == net.edges
    assert corr == {n.id: [n.id] for n in net.nodes}
    assert d3.transforms == maps
    implied = d3.protocol
    for v, ops in proto.ops.items():
        want = [set(op.terms) or {Term(0, constant_map(0))} for op in ops]
        got = [set(op.terms) for op in implied.ops.get(v, ())] or [set(implied.decode_terms(v))]
        assert got == want, v


def test_each_role_row_reads_input_i_at_entry_i():
    # the normalizer looks a term up in its role's row by input position,
    # and D3Network.protocol writes the rows out as they are
    for role, rows in netgraph._TERMS.items():
        indegree = netgraph._ROLES[role][1][0]
        assert rows and all(tuple(t.in_pos for t in row) == tuple(range(indegree)) for row in rows)


def test_a_network_without_a_sink_is_refused_by_both_validators():
    # every acyclic network with a node has one of outdegree 0; the empty
    # network has none and would otherwise validate
    empty = make_network([], [], {})
    proto = ClassicalProtocol(GroupKind.Z4, {})
    assert validate_network(empty, proto).violations == ["network has no sink"]
    with pytest.raises(ValidationError) as err:
        D3Network(empty, {}, GroupKind.Z4)
    assert err.value.report.violations == ["network has no sink"]
    # beside the degree line of a node that should have been the sink
    net, proto = _tiny(nodes=[("s", "source"), ("t", "internal")], requirements={})
    assert validate_network(net, proto).violations == [
        "internal node t has outdegree 0",
        "network has no sink",
    ]
    # an unknown kind is reported by itself, as for every check that needs a kind
    net, proto = _tiny(nodes=[("s", "source"), ("t", "widget")], requirements={})
    assert validate_network(net, proto).violations == ["node t has unknown kind 'widget'"]


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


def test_a_letter_map_is_its_value_table():
    doc = instance_to_json(*instances.bundled("single-edge"))
    doc["ops"]["t"] = [{"out": 0, "terms": [{"in": 0, "map": ["01", "00", "10", "11"]}]}]
    _, proto = instance_from_json(doc)
    assert proto.ops["t"][0].terms == (Term(0, (1, 0, 2, 3)),)
    assert constant_map(2) == (2, 2, 2, 2)
    assert IDENTITY_MAP == netgraph.LETTERS


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


def test_d3_network_stops_at_a_repeated_node_id():
    # every check after the graph's keys nodes by id, so a repeated id is
    # the one violation reported: listed again as a sink, s would otherwise
    # draw requirement and degree violations read under the wrong kind
    d3, _ = normalize_to_d3(*instances.bundled("single-edge"))
    net = d3.network
    nodes = [*net.nodes, netgraph.Node("s", "sink")]
    with pytest.raises(ValidationError) as err:
        D3Network(netgraph.Network(nodes, net.edges, net.requirements), d3.transforms, d3.group)
    assert err.value.report.violations == ["duplicate node id s"]


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


def _doc_with_braced_id():
    """Butterfly with its relay node t0 renamed t{0}, so that a field path
    naming it holds braces."""
    net, proto = instances.bundled("butterfly")
    doc = netgraph.instance_to_json(net, proto)
    text = json.dumps(doc).replace('"t0"', '"t{0}"')
    assert text.count('"t{0}"') == 5  # its node, three edge ends, its ops
    return json.loads(text)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["nodes"][2].pop("kind"), "nodes[2]: missing field 'kind'"),
        (lambda d: d["edges"][1].update({"to": 7}), "edges[1].to: unexpected type int"),
        (lambda d: d["requirements"][0].pop("source"),
         "requirements[0]: missing field 'source'"),
        (lambda d: d["ops"]["t{0}"][1].update({"out": True}),
         "ops.t{0}[1].out: unexpected type bool"),
        (lambda d: d["ops"]["t{0}"][0]["terms"][0].pop("in"),
         "ops.t{0}[0].terms[0]: missing field 'in'"),
        (lambda d: d["ops"]["t{0}"][0]["terms"][0].update({"map": ["00"]}),
         "ops.t{0}[0].terms[0]: map must be an array of 4 letters"),
    ],
)
def test_schema_errors_name_the_field_path(edit, message):
    doc = _doc_with_braced_id()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        netgraph.instance_from_json(doc)
    assert str(err.value) == message
