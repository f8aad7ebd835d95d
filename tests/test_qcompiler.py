import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from math import prod

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
    TRANSFORM_MAP,
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
    random_permutation_map,
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
    assert comp.ops["h1"].a_in == (Fraction(1, 3),)


def test_constant_resets_shrink():
    comp = compile_protocol(_chain([SWAP01, constant_map(3), SWAP01]))
    assert comp.ops["h1"].tag == TRANSFORM_CONSTANT
    assert comp.ops["h1"].alpha == Fraction(1)
    assert comp.ops["h1"].map(0) == 3
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
    assert comp.ops["u1"].a_in == (Fraction(1, 9),)
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


def test_compile_takes_a_map_of_no_paper_class():
    # image of size 3, neither constant, one-to-one nor two-to-one; its
    # largest preimage size is 2, so it gets a/(6 - a) like a two-to-one map
    m = LetterMap((0, 1, 2, 2))
    comp = compile_protocol(_chain([SWAP01, m]))
    assert comp.ops["h1"].tag == TRANSFORM_MAP
    assert comp.ops["h1"].alpha == Fraction(1, 17)
    assert [str(note) for note in comp.notes] == [
        "letter map law verified at incoming shrink 1/3 for map 00,01,10,10"
    ]


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
            check_kernel(op, comp.d3.group)
            for i in (0, len(op.kernel.rows) - 1):
                bad = replace(op, kernel=_tampered(op.kernel, i))
                with pytest.raises(VerificationError, match=op.node):
                    check_kernel(bad, comp.d3.group)
            checked.add(op.tag)
    assert checked == {
        JOIN, FORK_EFC, TRANSFORM_CONSTANT, TRANSFORM_ONE_TO_ONE, TRANSFORM_TWO_TO_ONE
    }


def _message(check, op, group) -> str | None:
    """The VerificationError message of one check, or None if it passes."""
    try:
        check(op, group)
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
            key = (op.tag, op.map and op.map.table, op.a_in, d3.group)
            kernels.setdefault(key, (op, d3.group))
    rng = random.Random(16)
    moves = 0
    for op, group in kernels.values():
        assert _message(check_kernel, op, group) is None
        assert _message(check_kernel_by_tuples, op, group) is None
        for i, row in enumerate(op.kernel.rows):
            for _ in range(4):
                up, down = rng.sample(range(len(row)), 2)
                moved = list(row)
                moved[up] += 1
                moved[down] -= 1
                rows = list(op.kernel.rows)
                rows[i] = tuple(moved)
                bad = replace(op, kernel=Kernel(op.kernel.den, tuple(rows)))
                got = _message(check_kernel, bad, group)
                assert got is not None and got == _message(check_kernel_by_tuples, bad, group)
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
            wrong = replace(op, a_in=tuple(a / 3 for a in op.a_in))
            if op.tag == TRANSFORM_CONSTANT:
                check_kernel(wrong, comp.d3.group)
            else:
                with pytest.raises(VerificationError, match=f"node {op.node} at incoming"):
                    check_kernel(wrong, comp.d3.group)
            tags.append(op.tag)
    assert len(tags) == 21 and TRANSFORM_CONSTANT in tags


def test_kernel_with_the_wrong_row_count_is_caught(butterfly_compiled):
    # a join's kernel has a row per pair of input letters; a fork's one per letter
    join = next(op for op in _kernel_ops(butterfly_compiled) if op.tag == JOIN)
    fork = next(op for op in _kernel_ops(butterfly_compiled) if op.tag == FORK_EFC)
    bad = replace(join, kernel=fork.kernel)
    with pytest.raises(VerificationError, match=f"node {join.node} has the wrong shape"):
        check_kernel(bad, GroupKind.Z2xZ2)
    # and each row one entry per outcome: a short row would leave the last
    # outcome unchecked
    short = Kernel(join.kernel.den, tuple(row[:3] for row in join.kernel.rows))
    with pytest.raises(VerificationError, match=f"node {join.node} has the wrong shape"):
        check_kernel(replace(join, kernel=short), GroupKind.Z2xZ2)


def test_compile_verifies_every_kernel(monkeypatch):
    build = qcompiler._build_kernel

    def tamper_one_to_one(op, target):
        kernel = build(op, target)
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

    def counting(op, target):
        built.append(op.node)
        return build(op, target)

    monkeypatch.setattr(qcompiler, "_build_kernel", counting)
    digits = "exact numbers at node d9 would have 4512 digits, over the limit of 4000"
    with pytest.raises(SizeError, match=f"^{digits}$"):
        compile_protocol(diamond_chain(14))
    assert built == []
    compile_protocol(diamond_chain(2))
    assert built


# a one-to-one map claimed at a/2 and a join claimed at ab/8, both sharper
# than any measure-and-prepare law can emit
UNREACHABLE = [
    qcompiler.QuantumOp("h", TRANSFORM_ONE_TO_ONE, Fraction(1, 18), (Fraction(1, 9),), SWAP01),
    qcompiler.QuantumOp("j", JOIN, Fraction(1, 648), (Fraction(1, 9), Fraction(1, 9))),
]


@pytest.mark.parametrize("op", UNREACHABLE, ids=["one-to-one-at-a/2", "join-at-ab/8"])
def test_unreachable_shrink_is_refused(op):
    for group in GroupKind:
        with pytest.raises(VerificationError, match=f"node {op.node} cannot emit"):
            qcompiler.build_kernel(op, group)


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
            key = (op.tag, op.map and op.map.table, op.a_in, d3.group)
            if key not in seen:
                seen.add(key)
                assert build_kernel_two_step(op, d3.group) == op.kernel, op.node
    assert len(seen) > 100
    for op in UNREACHABLE:
        for group in GroupKind:
            got = _message(qcompiler.build_kernel, op, group)
            assert got is not None and got == _message(build_kernel_two_step, op, group)


def test_flat_build_and_check_agree_with_the_references_on_random_ops():
    """2400 seeded draws on both groups: a join, a fork, or a transform of
    each map class, at random incoming shrinks, claiming its rule row's
    output shrink or 1 + 2^-20 times it.  build_kernel must give
    build_kernel_two_step's kernel or its refusal message, and a built
    kernel with one entry changed must get the same message from
    check_kernel as from check_kernel_by_tuples."""
    rng = random.Random(26)
    over = 1 + Fraction(1, 2**20)
    maps = {
        TRANSFORM_CONSTANT: lambda: constant_map(rng.randrange(4)),
        TRANSFORM_ONE_TO_ONE: lambda: random_permutation_map(rng),
        TRANSFORM_TWO_TO_ONE: lambda: random_two_to_one_map(rng),
    }
    rows = {
        JOIN: lambda a, b: a * b / 9,
        FORK_EFC: lambda a: a / 9,
        TRANSFORM_CONSTANT: lambda a: Fraction(1),
        TRANSFORM_ONE_TO_ONE: lambda a: a / 3,
        TRANSFORM_TWO_TO_ONE: lambda a: a / (6 - a),
    }
    built = refused = 0
    for draw in range(2400):
        group = GroupKind.Z4 if draw % 2 else GroupKind.Z2xZ2
        tag = rng.choice(sorted(rows))
        a_in = tuple(
            Fraction(rng.randint(1, q), q)
            for q in [rng.randint(1, 60) for _ in range(2 if tag == JOIN else 1)]
        )
        alpha = rows[tag](*a_in) * (over if rng.random() < 0.5 else 1)
        map_ = maps[tag]() if tag in maps else None
        op = qcompiler.QuantumOp("v", tag, alpha, a_in, map_)
        try:
            kernel = qcompiler.build_kernel(op, group)
        except VerificationError as e:
            assert str(e) == _message(build_kernel_two_step, op, group), op
            refused += 1
            continue
        assert kernel == build_kernel_two_step(op, group), op
        built += 1
        changed = [list(row) for row in kernel.rows]
        i, j = rng.randrange(len(changed)), rng.randrange(len(changed[0]))
        changed[i][j] += rng.choice((-1, 1)) * rng.randint(1, kernel.den)
        bad = replace(op, kernel=Kernel(kernel.den, tuple(map(tuple, changed))))
        got = _message(check_kernel, bad, group)
        assert got is not None and got == _message(check_kernel_by_tuples, bad, group)
    assert built > 600 and refused > 600


def test_every_rule_row_is_tight_or_states_its_margin():
    """Each row of the shrink table is the largest output shrink that
    build_kernel accepts, up to a factor 1 + 2^-20, at incoming shrinks 1,
    1/3, 1/9 and 1/81 on both groups, and for the transform row, at 2/7
    too and with each of the 252 non-constant maps; the fork row is the
    exception, with the margin stated below."""
    shrinks = [Fraction(1), Fraction(1, 3), Fraction(1, 9), Fraction(1, 81)]
    over = 1 + Fraction(1, 2**20)

    def builds(tag, alpha, a_in, group, map_=None):
        op = qcompiler.QuantumOp("v", tag, alpha, a_in, map_)
        return _message(qcompiler.build_kernel, op, group) is None

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

    # every non-constant map, at the row a/(3k - (k - 1)a) of its largest
    # preimage size k, written here from the map's preimage shape: built
    # as the two-step reference builds it, exact by the per-tuple check,
    # and refused 1 + 2^-20 times higher
    cases = 0
    for table in product(LETTERS, repeat=4):
        k = max(table.count(y) for y in set(table))
        if k == 4:
            continue
        m = LetterMap(table)
        for group in GroupKind:
            for a in shrinks + [Fraction(2, 7)]:
                op = qcompiler.QuantumOp("v", TRANSFORM_MAP, a / (3 * k - (k - 1) * a), (a,), m)
                kernel = qcompiler.build_kernel(op, group)
                assert kernel == build_kernel_two_step(op, group), (table, a)
                check_kernel_by_tuples(replace(op, kernel=kernel), group)
                assert not builds(TRANSFORM_MAP, op.alpha * over, (a,), group, m), (table, a)
                cases += 1
    assert cases == 2520


def test_three_input_sum_builds_at_its_row_and_no_higher():
    """A join of three letters, through the one target rule for any arity:
    at incoming shrinks 1, (1/3, 1/9, 2/7) and 1/81 each, on both groups,
    build_kernel accepts the d-term row prod(a_i)/27 with the two-step
    reference's kernel, which check_kernel and check_kernel_by_tuples both
    pass, and both refuse one changed entry with the same message; 1 + 2^-20
    times higher, build_kernel and the reference refuse alike."""
    over = 1 + Fraction(1, 2**20)
    cases = [(Fraction(1),) * 3, (Fraction(1, 3), Fraction(1, 9), Fraction(2, 7)),
             (Fraction(1, 81),) * 3]
    for group in GroupKind:
        for a_in in cases:
            op = qcompiler.QuantumOp("v", JOIN, prod(a_in) / 27, a_in)
            kernel = qcompiler.build_kernel(op, group)
            assert kernel == build_kernel_two_step(op, group), a_in
            assert len(kernel.rows) == 64
            op = replace(op, kernel=kernel)
            assert _message(check_kernel, op, group) is None
            assert _message(check_kernel_by_tuples, op, group) is None
            rows = [list(row) for row in kernel.rows]
            rows[37][2] += 1
            bad = replace(op, kernel=Kernel(kernel.den, tuple(map(tuple, rows))))
            got = _message(check_kernel, bad, group)
            assert got is not None and got == _message(check_kernel_by_tuples, bad, group)
            raised = replace(op, alpha=op.alpha * over, kernel=None)
            got = _message(qcompiler.build_kernel, raised, group)
            assert got is not None and got == _message(build_kernel_two_step, raised, group)


def _law_key(tag, map_, alpha, a_in) -> tuple:
    """The kernel's key by the lemma: a join or one-to-one kernel by its
    ratio alpha / prod(a_in), any other by its incoming shrinks."""
    if tag in (JOIN, TRANSFORM_ONE_TO_ONE):
        return tag, map_, alpha / prod(a_in)
    return tag, map_, a_in


def test_each_distinct_kernel_is_built_and_checked_once(monkeypatch):
    # kernels are built once per law key and checked once per (tag, map,
    # incoming shrinks); count the calls behind them against those keys,
    # read off the compiled protocol
    calls = {"build": [], "check": []}
    for name in ("build", "check"):
        real = getattr(qcompiler, f"_{name}_kernel")

        def counting(op, target, name=name, real=real):
            calls[name].append((op.tag, op.map, op.alpha, op.a_in))
            return real(op, target)

        monkeypatch.setattr(qcompiler, f"_{name}_kernel", counting)
    # and the target rows, which build and check share, once per check
    targets = []
    target_rows = qcompiler._target_rows

    def counting_targets(op, group):
        targets.append(op.node)
        return target_rows(op, group)

    monkeypatch.setattr(qcompiler, "_target_rows", counting_targets)
    net, proto = instances.bundled("butterfly-z4")
    counts = []
    for d3 in (diamond_chain(5), netgraph.normalize_to_d3(net, proto)[0]):
        calls["build"].clear()
        calls["check"].clear()
        targets.clear()
        comp = compile_protocol(d3)
        laws = [(op.tag, op.map, op.alpha, op.a_in) for op in _kernel_ops(comp)]
        checks = {(tag, map_, a_in) for tag, map_, _, a_in in laws}
        assert sorted(calls["check"], key=str) == sorted(set(laws), key=str)
        assert len(targets) == len(checks) == len(calls["check"])
        built = [_law_key(*law) for law in calls["build"]]
        assert sorted(built, key=str) == sorted({_law_key(*law) for law in laws}, key=str)
        counts.append((len(built), len(checks)))
    # joins, and one-to-one maps, met at several incoming shrinks share a build
    assert counts == [(16, 20), (7, 10)]


def _distinct_shrinks(rng, n: int) -> list[Fraction]:
    shrinks = set()
    while len(shrinks) < n:
        q = rng.randint(1, 60)
        shrinks.add(Fraction(rng.randint(1, q), q))
    return sorted(shrinks)


def test_join_and_one_to_one_kernels_depend_only_on_the_shrink_ratio():
    """A join adds its letters in the group and a one-to-one map permutes
    its letter: a bijection in each input, so mixing an input by W(a)
    mixes the output by W(a), and the kernel at output shrink r prod(a_in)
    is one and the same at every a_in.  On both groups: a join at 20
    seeded pairs of incoming shrinks, and each of the 24 one-to-one maps
    at 5 seeded incoming shrinks."""
    rng = random.Random(41)
    maps = [LetterMap(table) for table in permutations(LETTERS)]
    assert len(maps) == 24
    for group in GroupKind:
        pairs = zip(_distinct_shrinks(rng, 20), rng.sample(_distinct_shrinks(rng, 20), 20))
        joins = {
            qcompiler.build_kernel(qcompiler.QuantumOp("j", JOIN, a * b / 9, (a, b)), group)
            for a, b in pairs
        }
        assert len(joins) == 1
        for m in maps:
            kernels = {
                qcompiler.build_kernel(
                    qcompiler.QuantumOp("h", TRANSFORM_ONE_TO_ONE, a / 3, (a,), m), group
                )
                for a in _distinct_shrinks(rng, 5)
            }
            assert len(kernels) == 1, m


@pytest.mark.parametrize("tag, map_, row", [
    (FORK_EFC, None, lambda a: a / 9),
    (TRANSFORM_TWO_TO_ONE, HIGH_BIT, lambda a: a / (6 - a)),
    (TRANSFORM_MAP, LetterMap((0, 0, 1, 2)), lambda a: a / (6 - a)),
], ids=["fork", "two-to-one", "letter-map"])
def test_kernels_outside_the_lemma_read_their_incoming_shrink(tag, map_, row):
    # so compile keys them by their incoming shrinks, not by a ratio
    for group in GroupKind:
        kernels = {
            qcompiler.build_kernel(qcompiler.QuantumOp("v", tag, row(a), (a,), map_), group)
            for a in (Fraction(1, 3), Fraction(1, 9))
        }
        assert len(kernels) == 2
