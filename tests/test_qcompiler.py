import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from qnc4 import instances, netgraph, qcompiler, qmath
from qnc4.errors import SizeError, ValidationError, VerificationError
from qnc4.netgraph import (
    LETTERS,
    D3Network,
    GroupKind,
    IDENTITY_MAP,
    LetterMap,
    constant_map,
    make_network,
)
from qnc4.qcompiler import (
    FORK_EFC,
    JOIN,
    SINK_NOOP,
    SOURCE_TTR,
    TRANSFORM_CONSTANT,
    TRANSFORM_ONE_TO_ONE,
    TRANSFORM_TWO_TO_ONE,
    Kernel,
    check_kernel,
    compile_protocol,
    protocol_to_json,
)
from qnc4.qmath import ShrunkState

from _generators import (
    HIGH_BIT,
    LOW_BIT,
    diamond_chain,
    random_d3_instance,
    random_two_to_one_map,
)
from _reference import (
    build_kernel_two_step,
    check_kernel_by_tuples,
    fork_branch_law,
    join_branch_law,
    transform_branch_law,
    two_to_one_emission,
)


def _chain(maps, group=GroupKind.Z2xZ2) -> D3Network:
    """source -> h0 -> h1 -> ... -> sink with the given transform maps."""
    mids = [f"h{i}" for i in range(len(maps))]
    ids = ["s", *mids, "t"]
    net = make_network(
        nodes=[("s", "source"), *[(h, "internal") for h in mids], ("t", "sink")],
        edges=list(zip(ids[:-1], ids[1:])),
        requirements={"t": "s"},
    )
    return D3Network(net, dict(zip(mids, maps)), group)


def test_emission_at_one_fifth():
    dist = two_to_one_emission(0, HIGH_BIT, Fraction(1, 5))
    assert dist == {
        0: Fraction(15, 29),
        1: Fraction(7, 29),
        2: Fraction(0),
        3: Fraction(7, 29),
    }


def test_emission_generic():
    rng = random.Random(77)
    for _ in range(30):
        m = random_two_to_one_map(rng)
        a = Fraction(rng.randrange(1, 30), 30)
        for z in LETTERS:
            dist = two_to_one_emission(z, m, a)
            assert sum(dist.values()) == 1
            assert dist[m(z)] == Fraction(3) / (6 - a)
            unmapped = next(iter(set(m.table) - {m(z)}))
            assert dist[unmapped] == 0


def test_emission_rejects_bad_arguments():
    with pytest.raises(ValueError):
        two_to_one_emission(0, IDENTITY_MAP, Fraction(1, 2))
    with pytest.raises(ValueError):
        two_to_one_emission(0, HIGH_BIT, Fraction(0))
    with pytest.raises(ValueError):
        two_to_one_emission(0, HIGH_BIT, Fraction(3, 2))


def test_emission_mixes_to_shrunk_mapped_letter():
    # averaging the emission over the measurement statistics of a shrunk
    # input must reproduce the mapped letter shrunk by a/(6-a), exactly
    for num in (1, 2, 5, 9):
        a = Fraction(num, 9)
        for m in (HIGH_BIT, LOW_BIT):
            for z in LETTERS:
                probs = qmath.ttr_probabilities(ShrunkState(z, a))
                out = {y: Fraction(0) for y in LETTERS}
                for x in LETTERS:
                    for y, w in two_to_one_emission(x, m, a).items():
                        out[y] += probs[x] * w
                want = qmath.tetra_weights(ShrunkState(m(z), a / (6 - a)))
                assert out == want


SWAP01 = LetterMap((1, 0, 2, 3))


def test_shrink_one_to_one_chain():
    comp = compile_protocol(_chain([SWAP01]))
    assert comp.ops["h0"].tag == TRANSFORM_ONE_TO_ONE
    assert comp.ops["h0"].alpha == Fraction(1, 3)
    assert comp.ops["t"].alpha == Fraction(1, 3)
    comp = compile_protocol(_chain([SWAP01, SWAP01]))
    assert comp.ops["t"].alpha == Fraction(1, 9)


def test_shrink_two_to_one():
    comp = compile_protocol(_chain([HIGH_BIT]))
    assert comp.ops["h0"].tag == TRANSFORM_TWO_TO_ONE
    assert comp.ops["h0"].alpha == Fraction(1, 5)
    # chained after a one-to-one map: incoming 1/3, so 1/3 / (6 - 1/3) = 1/17
    comp = compile_protocol(_chain([SWAP01, HIGH_BIT]))
    assert comp.ops["h1"].alpha == Fraction(1, 17)
    assert comp.ops["h1"].input_alpha == Fraction(1, 3)


def test_constant_resets_shrink():
    comp = compile_protocol(_chain([SWAP01, constant_map(3), SWAP01]))
    assert comp.ops["h1"].tag == TRANSFORM_CONSTANT
    assert comp.ops["h1"].alpha == Fraction(1)
    assert comp.ops["h1"].letter == 3
    assert comp.ops["t"].alpha == Fraction(1, 3)


def test_shrink_fork_and_join():
    net = make_network(
        nodes=[("s", "source"), ("f", "internal"), ("t1", "sink"), ("t2", "sink")],
        edges=[("s", "f"), ("f", "t1"), ("f", "t2")],
        requirements={"t1": "s", "t2": "s"},
    )
    d3 = D3Network(net, {}, GroupKind.Z2xZ2)
    comp = compile_protocol(d3)
    assert comp.ops["f"].tag == FORK_EFC
    assert comp.ops["f"].alpha == Fraction(1, 9)
    assert comp.ops["t1"].alpha == comp.ops["t2"].alpha == Fraction(1, 9)

    net = make_network(
        nodes=[("s1", "source"), ("s2", "source"), ("j", "internal"), ("t", "sink")],
        edges=[("s1", "j"), ("s2", "j"), ("j", "t")],
        requirements={"t": "s1"},
    )
    d3 = D3Network(net, {}, GroupKind.Z2xZ2)
    comp = compile_protocol(d3)
    assert comp.ops["j"].tag == JOIN
    assert comp.ops["j"].alpha == Fraction(1, 9)
    assert comp.ops["s1"].tag == SOURCE_TTR and comp.ops["s1"].alpha == 1


def test_butterfly_shrink_factors(butterfly_compiled):
    comp = butterfly_compiled
    a = {v: op.alpha for v, op in comp.ops.items()}
    assert a["s1.f0"] == a["s2.f0"] == Fraction(1, 9)
    assert a["s0"] == Fraction(1, 729)
    assert a["t0"] == Fraction(1, 6561)
    assert a["t1.j0.0"] == a["t2.j0.0"] == Fraction(1, 531441)
    assert comp.sink_alphas == {
        "t1": Fraction(1, 531441),
        "t2": Fraction(1, 531441),
    }
    assert comp.ops["t1"].tag == SINK_NOOP


def test_diamond_two_to_one_compile(diamond_compiled):
    comp = diamond_compiled
    assert comp.ops["u1"].input_alpha == Fraction(1, 9)
    assert comp.ops["u1"].alpha == comp.ops["u2"].alpha == Fraction(1, 53)
    assert comp.sink_alphas["t"] == Fraction(1, 25281)
    joined = "\n".join(map(str, comp.notes))
    assert "two-to-one law verified at incoming shrink 1/9" in joined


def test_diamond_notes_name_their_maps(diamond_compiled):
    notes = [str(note) for note in diamond_compiled.notes]
    assert len(set(notes)) == len(notes) == 3
    assert "two-to-one law verified at incoming shrink 1/9 for map 00,00,10,10" in notes


def test_edge_alpha_matches_producer(butterfly_compiled):
    comp = butterfly_compiled
    for e, (u, _) in enumerate(comp.d3.network.edges):
        assert comp.edge_alpha(e) == comp.ops[u].alpha


def test_order_is_by_depth_then_id(butterfly_compiled):
    comp = butterfly_compiled
    keys = [(comp.depths[v], v) for v in comp.order]
    assert keys == sorted(keys)
    assert all(comp.depths[v] == 0 for v in comp.d3.network.source_ids)
    # sinks sit strictly below everything that feeds them
    for e, (u, v) in enumerate(comp.d3.network.edges):
        assert comp.depths[v] > comp.depths[u]


def test_fork_notes_deduplicate(butterfly_compiled):
    notes = [str(note) for note in butterfly_compiled.notes]
    fork_notes = [n for n in notes if n.startswith("fork law verified")]
    # two distinct incoming shrinks (1 and 1/729), each verified once
    assert len(fork_notes) == 2
    assert any(n.endswith("shrink 1") for n in fork_notes)
    assert any(n.endswith("shrink 1/729") for n in fork_notes)


def test_compile_rejects_bad_degree():
    # an internal node feeding three sinks has no role; refused where the
    # normal form is built, so it never reaches the compiler
    sinks = ("t1", "t2", "t3")
    net = make_network(
        nodes=[("s", "source"), ("f", "internal")] + [(t, "sink") for t in sinks],
        edges=[("s", "f")] + [("f", t) for t in sinks],
        requirements={t: "s" for t in sinks},
    )
    with pytest.raises(
        ValidationError,
        match=r"internal f has degree \(1, 3\), expected \(1, 2\), \(2, 1\) or \(1, 1\)",
    ):
        D3Network(net, {}, GroupKind.Z2xZ2)


def test_compile_rejects_unusable_map():
    bad = LetterMap((0, 1, 2, 2))  # image of size 3: neither class
    with pytest.raises(ValidationError, match="transform h0 carries illegal map"):
        _chain([bad])


def test_protocol_json_shape(diamond_compiled):
    data = protocol_to_json(diamond_compiled)
    assert list(data) == list(diamond_compiled.order)
    assert data["u1"]["op"] == TRANSFORM_TWO_TO_ONE
    assert data["u1"]["alpha"] == "1/53"
    assert data["u1"]["input_alpha"] == "1/9"
    assert data["u1"]["map"] == ["00", "00", "10", "10"]
    assert "letter" not in data["u1"]
    assert data["s"] == {"op": SOURCE_TTR, "alpha": "1"}


# ---------------------------------------------------------------------------
# transition kernels


def _incoming(comp, v) -> tuple:
    net = comp.d3.network
    return tuple(comp.edge_alpha(e) for e in net.in_edges(v))


def _kernel_ops(comp):
    return [op for op in comp.ops.values() if op.kernel is not None]


def _reference_law(op, group, i: int) -> dict:
    """The Fraction branch law of op for input index i, keyed like a kernel
    row by the tuple of output letters."""
    if op.tag == JOIN:
        law = join_branch_law(group, i >> 2, i & 3)
    elif op.tag == FORK_EFC:
        return {pair: w for pair, w in fork_branch_law(op, i).items() if w}
    else:
        law = transform_branch_law(op, i)
    return {(y,): w for y, w in law.items() if w}


def _compiled_samples():
    for name in sorted(instances.BUNDLED):
        net, proto = instances.bundled(name)
        yield netgraph.normalize_to_d3(net, proto)[0]
    rng = random.Random(606)
    for _ in range(25):
        yield random_d3_instance(rng, max_nodes=12, max_sources=3)


def test_kernels_equal_reference_laws():
    tags = set()
    for d3 in _compiled_samples():
        comp = compile_protocol(d3)
        for v, op in comp.ops.items():
            if op.tag in (SOURCE_TTR, SINK_NOOP):
                assert op.kernel is None
                continue
            assert len(op.kernel.rows) == (16 if op.tag == JOIN else 4)
            width = 2 if op.tag == FORK_EFC else 1
            outs = list(product(range(4), repeat=width))
            for i, row in enumerate(op.kernel.rows):
                # entry k of a row is for the output letters outs[k]
                assert len(row) == 4**width and all(n >= 0 for n in row)
                got = {out: Fraction(n, op.kernel.den) for out, n in zip(outs, row) if n}
                assert got == _reference_law(op, d3.group, i), (v, i)
            tags.add(op.tag)
    assert tags == {
        JOIN, FORK_EFC, TRANSFORM_CONSTANT, TRANSFORM_ONE_TO_ONE, TRANSFORM_TWO_TO_ONE
    }


def _tampered(kernel: Kernel, i: int) -> Kernel:
    # move one unit of numerator between two nonzero outputs of row i, so
    # the row still sums to the denominator; a row with one nonzero entry
    # moves it to another letter
    row = list(kernel.rows[i])
    nonzero = [k for k, n in enumerate(row) if n]
    if len(nonzero) == 1:
        (k,) = nonzero
        row[k], row[k ^ 1] = 0, row[k]
    else:
        row[nonzero[0]] += 1
        row[nonzero[1]] -= 1
    rows = list(kernel.rows)
    rows[i] = tuple(row)
    return Kernel(kernel.den, tuple(rows))


def test_tampered_kernel_is_caught(butterfly_compiled, diamond_compiled):
    checked = set()
    chain = compile_protocol(_chain([constant_map(2), SWAP01]))
    for comp in (butterfly_compiled, diamond_compiled, chain):
        for op in _kernel_ops(comp):
            if op.tag in checked:
                continue
            a_in = _incoming(comp, op.node)
            check_kernel(op, a_in, comp.d3.group)
            for i in (0, len(op.kernel.rows) - 1):
                bad = replace(op, kernel=_tampered(op.kernel, i))
                with pytest.raises(VerificationError, match=op.node):
                    check_kernel(bad, a_in, comp.d3.group)
            checked.add(op.tag)
    assert checked == {
        JOIN, FORK_EFC, TRANSFORM_CONSTANT, TRANSFORM_ONE_TO_ONE, TRANSFORM_TWO_TO_ONE
    }


def _message(check, op, a_in, group) -> str | None:
    """The VerificationError message of one check, or None if it passes."""
    try:
        check(op, a_in, group)
    except VerificationError as e:
        return str(e)
    return None


def test_axis_check_agrees_with_the_per_tuple_check():
    """check_kernel against the reference check_kernel_by_tuples, on every
    distinct kernel of the bundled instances, diamond_chain(9) and 25
    seeded draws: each passes both, and a unit moved between two entries
    of a row is refused by both with the same message.  All moves of every
    row (about 37,000) take over 10 s, so each row gets 4 moves drawn with
    a fixed seed."""
    kernels = {}
    for d3 in [*_compiled_samples(), diamond_chain(9)]:
        comp = compile_protocol(d3)
        for op in _kernel_ops(comp):
            a_in = _incoming(comp, op.node)
            key = (op.tag, op.map and op.map.table, a_in, d3.group)
            kernels.setdefault(key, (op, a_in, d3.group))
    rng = random.Random(16)
    moves = 0
    for op, a_in, group in kernels.values():
        assert _message(check_kernel, op, a_in, group) is None
        assert _message(check_kernel_by_tuples, op, a_in, group) is None
        for i, row in enumerate(op.kernel.rows):
            for _ in range(4):
                up, down = rng.sample(range(len(row)), 2)
                moved = list(row)
                moved[up] += 1
                moved[down] -= 1
                rows = list(op.kernel.rows)
                rows[i] = tuple(moved)
                bad = replace(op, kernel=Kernel(op.kernel.den, tuple(rows)))
                got = _message(check_kernel, bad, a_in, group)
                assert got is not None and got == _message(check_kernel_by_tuples, bad, a_in, group)
                moves += 1
    assert len(kernels) > 100 and moves > 3000


def test_kernel_checked_at_the_wrong_incoming_shrink_is_refused():
    # each kernel keeps its output shrink but is checked at a third of its
    # incoming shrinks, so the forward mix must read them; only a constant
    # transform, whose output does not read its input, still passes
    tags = []
    for name in sorted(instances.BUNDLED):
        net, proto = instances.bundled(name)
        comp = compile_protocol(netgraph.normalize_to_d3(net, proto)[0])
        for op in _kernel_ops(comp):
            wrong = tuple(a / 3 for a in _incoming(comp, op.node))
            if op.tag == TRANSFORM_CONSTANT:
                check_kernel(op, wrong, comp.d3.group)
            else:
                with pytest.raises(VerificationError, match=f"node {op.node} at incoming"):
                    check_kernel(op, wrong, comp.d3.group)
            tags.append(op.tag)
    assert len(tags) == 21 and TRANSFORM_CONSTANT in tags


def test_kernel_with_the_wrong_row_count_is_caught(butterfly_compiled):
    # a join's kernel has a row per pair of input letters; a fork's one per letter
    join = next(op for op in _kernel_ops(butterfly_compiled) if op.tag == JOIN)
    fork = next(op for op in _kernel_ops(butterfly_compiled) if op.tag == FORK_EFC)
    bad = replace(join, kernel=fork.kernel)
    with pytest.raises(VerificationError, match=f"node {join.node} has the wrong shape"):
        check_kernel(bad, _incoming(butterfly_compiled, join.node), GroupKind.Z2xZ2)
    # and each row one entry per outcome: a short row would leave the last
    # outcome unchecked
    short = Kernel(join.kernel.den, tuple(row[:3] for row in join.kernel.rows))
    with pytest.raises(VerificationError, match=f"node {join.node} has the wrong shape"):
        check_kernel(replace(join, kernel=short), _incoming(butterfly_compiled, join.node),
                     GroupKind.Z2xZ2)


def test_compile_verifies_every_kernel(monkeypatch):
    build = qcompiler._build_kernel

    def tamper_one_to_one(op, a_in, target):
        kernel = build(op, a_in, target)
        return _tampered(kernel, 2) if op.tag == TRANSFORM_ONE_TO_ONE else kernel

    monkeypatch.setattr(qcompiler, "_build_kernel", tamper_one_to_one)
    compile_protocol(_chain([HIGH_BIT]))
    with pytest.raises(VerificationError, match="h1"):
        compile_protocol(_chain([HIGH_BIT, SWAP01]))


def test_digit_limit_refuses_before_any_kernel(monkeypatch):
    # every shrink is computed, and the limit checked, before the first
    # kernel is built, so a deep chain is refused without verifying one
    built = []
    build = qcompiler._build_kernel

    def counting(op, a_in, target):
        built.append(op.node)
        return build(op, a_in, target)

    monkeypatch.setattr(qcompiler, "_build_kernel", counting)
    with pytest.raises(SizeError, match="at node d9 would have"):
        compile_protocol(diamond_chain(14))
    assert built == []
    compile_protocol(diamond_chain(2))
    assert built


# a one-to-one map claimed at a/2 and a join claimed at ab/8, both sharper
# than any measure-and-prepare law can emit
UNREACHABLE = [
    (qcompiler.QuantumOp("h", TRANSFORM_ONE_TO_ONE, Fraction(1, 18),
                         input_alpha=Fraction(1, 9), map=SWAP01), (Fraction(1, 9),)),
    (qcompiler.QuantumOp("j", JOIN, Fraction(1, 648)), (Fraction(1, 9), Fraction(1, 9))),
]


@pytest.mark.parametrize("op, a_in", UNREACHABLE, ids=["one-to-one-at-a/2", "join-at-ab/8"])
def test_unreachable_shrink_is_refused(op, a_in):
    for group in GroupKind:
        with pytest.raises(VerificationError, match=f"node {op.node} cannot emit"):
            qcompiler.build_kernel(op, a_in, group)


def test_build_agrees_with_the_two_step_reference():
    """build_kernel, which undoes W(a) once per input and reads the
    emission law off the kernel, against the reference that undoes
    W(a/3), checks the emission law and re-applies W(1/3): the same den
    and rows on every distinct kernel of the bundled instances,
    diamond_chain(9) and 25 seeded draws, and the same refusal message on
    the unreachable shrinks."""
    seen = set()
    for d3 in [*_compiled_samples(), diamond_chain(9)]:
        comp = compile_protocol(d3)
        for op in _kernel_ops(comp):
            a_in = _incoming(comp, op.node)
            key = (op.tag, op.map and op.map.table, a_in, d3.group)
            if key not in seen:
                seen.add(key)
                assert build_kernel_two_step(op, a_in, d3.group) == op.kernel, op.node
    assert len(seen) > 100
    for op, a_in in UNREACHABLE:
        for group in GroupKind:
            got = _message(qcompiler.build_kernel, op, a_in, group)
            assert got is not None and got == _message(build_kernel_two_step, op, a_in, group)


def test_every_rule_row_is_tight_or_states_its_margin():
    """Each row of the shrink table is the largest output shrink that
    build_kernel accepts, up to a factor 1 + 2^-20, at incoming shrinks 1,
    1/3, 1/9 and 1/81 on both groups; the fork row is the exception, with
    the margin stated below."""
    shrinks = [Fraction(1), Fraction(1, 3), Fraction(1, 9), Fraction(1, 81)]
    over = 1 + Fraction(1, 2**20)

    def builds(tag, alpha, a_in, group, map_=None):
        op = qcompiler.QuantumOp("v", tag, alpha, map=map_)
        return _message(qcompiler.build_kernel, op, a_in, group) is None

    for group in GroupKind:
        for a, b in zip(shrinks, shrinks[1:] + shrinks[:1]):
            tight = [
                (JOIN, a * a / 9, (a, a), None),
                (JOIN, a * b / 9, (a, b), None),
                (TRANSFORM_ONE_TO_ONE, a / 3, (a,), SWAP01),
                (TRANSFORM_TWO_TO_ONE, a / (6 - a), (a,), HIGH_BIT),
            ]
            for tag, alpha, a_in, map_ in tight:
                assert builds(tag, alpha, a_in, group, map_), (tag, a_in)
                assert not builds(tag, alpha * over, a_in, group, map_), (tag, a_in)
            # the fork's margin: its largest reachable shrink is 1.392 to
            # 1.497 times the row a/9 at these incoming shrinks, an
            # irrational root of the quadratic that its (y, y) entries for
            # y off the measured letter must meet, so the row is not tight
            assert builds(FORK_EFC, Fraction(139, 100) * a / 9, (a,), group)
            assert not builds(FORK_EFC, Fraction(3, 2) * a / 9, (a,), group)


def test_each_distinct_kernel_is_built_and_checked_once(monkeypatch):
    # the kernel memo is keyed by (tag, map, incoming shrinks); count the
    # calls behind it against those keys, read off the compiled protocol
    calls = {"build": [], "check": []}
    for name in ("build", "check"):
        real = getattr(qcompiler, f"_{name}_kernel")

        def counting(op, a_in, target, name=name, real=real):
            calls[name].append((op.tag, op.map, a_in))
            return real(op, a_in, target)

        monkeypatch.setattr(qcompiler, f"_{name}_kernel", counting)
    # and the target rows, which build and check share, once per kernel
    targets = []
    target_rows = qcompiler._target_rows

    def counting_targets(op, n_in, group):
        targets.append(op.node)
        return target_rows(op, n_in, group)

    monkeypatch.setattr(qcompiler, "_target_rows", counting_targets)
    net, proto = instances.bundled("butterfly-z4")
    shared = 0  # kernel nodes that reuse a kernel built for another node
    for d3 in (diamond_chain(5), netgraph.normalize_to_d3(net, proto)[0]):
        calls["build"].clear()
        calls["check"].clear()
        targets.clear()
        comp = compile_protocol(d3)
        keys = {(op.tag, op.map, _incoming(comp, op.node)) for op in _kernel_ops(comp)}
        shared += len(_kernel_ops(comp)) - len(keys)
        for made in calls.values():
            assert sorted(made, key=str) == sorted(keys, key=str)
        assert len(targets) == len(keys)
    assert shared > 0
