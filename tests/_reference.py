"""Reference laws and an enumeration that the exact sweep is checked against.

`transform_branch_law`, `join_branch_law` and `fork_branch_law` are the
per-node `Fraction` branch laws, the two-to-one transform's built from
`two_to_one_emission` and the fork's from `_efc`'s pair law, independently
of the compiled kernels.  `build_kernel_two_step`
is the kernel build through the emission law, which `build_kernel`'s one
mix per input must agree with, entry for entry and message for message;
it keeps its own row-wise target, mix and unmix (`_target_rows`, `_mix`,
`_unmix`), one list per input tuple, so it shares no indexing with the
compiler's flat table.
`check_kernel_by_tuples` is the kernel check one input tuple at a time,
which `check_kernel`'s axis-wise mix must agree with, message for message.
`truth_table_by_tuples` and `check_requirement_by_tuples` are the classical
delivery check one input tuple at a time, a fresh walk of the network per
tuple with one `GroupKind.add` and one map call per term, which
`classical_eval`'s one walk over all rows must agree with, verdict,
counterexample and table.
`enumerate_branches` walks the nodes in listing order with the `Fraction`
laws and keeps the full joint over the live edges, as one table that
assumes no product structure; it is exponential in the live-edge count and
only for small networks.
"""

from fractions import Fraction
from functools import reduce
from itertools import product, repeat
from math import gcd, prod
from operator import add, mul
from typing import NamedTuple

from qnc4.errors import SizeError, VerificationError
from qnc4.netgraph import LETTERS, GroupKind, Letter, LetterMap, as_letter
from qnc4.qcompiler import (
    FORK_EFC,
    JOIN,
    SINK_NOOP,
    SOURCE_TTR,
    TRANSFORM_CONSTANT,
    TRANSFORM_ONE_TO_ONE,
    TRANSFORM_TWO_TO_ONE,
    CompiledProtocol,
    Kernel,
    QuantumOp,
)
from qnc4.shrink import as_shrink, shrunk_weights, ttr_outcome_weights
from qnc4.qsim import _resolve_inputs

import _efc

MAX_FULL_BRANCHES = 10**6


def two_to_one_emission(letter: Letter, map_: LetterMap, param: Fraction) -> dict:
    """Output letter distribution of a two-to-one node on one input letter.

    Prepares the mapped letter with weight 3/(6-param) and each of the two
    letters outside the map's image with weight (3-param)/(2(6-param)); the
    unmapped image letter is never produced.  Exact in the parameter.
    """
    letter = as_letter(letter)
    param = Fraction(as_shrink(param))
    image = set(map_)
    if len(image) != 2:
        raise ValueError("emission law only applies to two-to-one maps")
    own = Fraction(3, 1) / (6 - param)
    off = (3 - param) / (2 * (6 - param))
    dist = {z: Fraction(0) for z in LETTERS}
    dist[map_[letter]] = own
    for z in LETTERS:
        if z not in image:
            dist[z] = off
    return dist


def transform_branch_law(op: QuantumOp, u: Letter) -> dict[Letter, Fraction]:
    """Output letter distribution of a transform given the incoming letter."""
    if op.tag == TRANSFORM_CONSTANT:
        return {op.map[0]: Fraction(1)}
    if op.tag not in (TRANSFORM_ONE_TO_ONE, TRANSFORM_TWO_TO_ONE):
        raise ValueError(f"no reference branch law for a {op.tag} node")
    out: dict[Letter, Fraction] = {}
    for x, t in ttr_outcome_weights(u).items():
        if op.tag == TRANSFORM_ONE_TO_ONE:
            y = op.map[x]
            out[y] = out.get(y, Fraction(0)) + t
        else:
            for y, w in two_to_one_emission(x, op.map, op.a_in[0]).items():
                if w:
                    out[y] = out.get(y, Fraction(0)) + t * w
    return out


def join_branch_law(group: GroupKind, u1: Letter, u2: Letter) -> dict[Letter, Fraction]:
    """Output letter distribution of a join given the two incoming letters."""
    out: dict[Letter, Fraction] = {}
    for x1, t1 in ttr_outcome_weights(u1).items():
        for x2, t2 in ttr_outcome_weights(u2).items():
            y = group.add(x1, x2)
            out[y] = out.get(y, Fraction(0)) + t1 * t2
    return out


def fork_branch_law(op: QuantumOp, u: Letter) -> dict[tuple, Fraction]:
    """Joint distribution of the two letters a fork emits, given the
    incoming letter."""
    out: dict[tuple, Fraction] = {}
    for x, t in ttr_outcome_weights(u).items():
        for pair, w in _efc.efc_pair_distribution(op.a_in[0], x).items():
            out[pair] = out.get(pair, Fraction(0)) + t * w
    return out


def _target_rows(op: QuantumOp, group: GroupKind) -> tuple[list[list[int]], int]:
    """T(y | z), one integer row per input index over the returned
    denominator: the shrunk weights at op.alpha peaked at the letter of a
    join's group sum of its len(op.a_in) letters or a transform's map, or
    for a fork their outer product, peaked at its two copies of the input
    letter."""
    own, other, scale = shrunk_weights(op.alpha)
    fork = op.tag == FORK_EFC
    rows = []
    for zs in product(LETTERS, repeat=len(op.a_in)):
        row = [other] * 4
        row[reduce(group.add, zs) if op.tag == JOIN else zs[0] if fork else op.map[zs[0]]] = own
        rows.append([x * y for x in row for y in row] if fork else row)
    return rows, scale ** (2 if fork else 1)


def _mix(rows: list, stride: int, own: int, rest: int) -> list[list[int]]:
    """Replace each row x_z along the input letter that steps the row index
    by stride with own * x_z + rest * (the sum of the 4 rows x_u along that
    letter)."""
    out = list(rows)
    for block in range(0, len(rows), 4 * stride):
        for i in range(block, block + stride):
            axis = slice(i, i + 4 * stride, stride)
            sums = [rest * sum(col) for col in zip(*rows[axis])]
            out[axis] = [list(map(add, map(mul, row, repeat(own)), sums)) for row in rows[axis]]
    return out


def _unmix(rows: list, den: int, stride: int, a: Fraction) -> tuple[list, int]:
    """Apply W(a)^-1 = (1/a)(I - (1-a)/4 J) along one input letter: with
    a = p/q, 4q I + (p - q) J over 4p den."""
    p, q = a.numerator, a.denominator
    return _mix(rows, stride, 4 * q, p - q), 4 * p * den


def build_kernel_two_step(op: QuantumOp, group: GroupKind) -> Kernel:
    """The transition kernel of op at its incoming shrinks op.a_in like
    `qcompiler.build_kernel`, in two steps.  The node reads input z_i
    through W(a_i/3), the incoming shrink and then the tetra measurement's
    W(1/3), so undoing W(a_i/3) along each input of the target rows gives
    the emission law E.  E is checked to be nonnegative, and re-applying
    W(1/3) = W(3)^-1 along each input gives the kernel.  Raises
    VerificationError, naming the node, if E has a negative entry."""
    a_in = op.a_in
    rows, den = _target_rows(op, group)
    d = len(a_in)
    strides = [4 ** (d - 1 - i) for i in range(d)]  # row index sum z_i 4^(d-1-i)
    for stride, a in zip(strides, a_in):
        rows, den = _unmix(rows, den, stride, a / 3)
    if any(n < 0 for row in rows for n in row):
        raise VerificationError(
            f"{op.tag} node {op.node} cannot emit shrink {op.alpha} at incoming "
            f"shrink {', '.join(map(str, a_in))}: its emission law would be negative"
        )
    for stride in strides:
        rows, den = _unmix(rows, den, stride, Fraction(3))
    g = gcd(den, *(n for row in rows for n in row))
    return Kernel(den // g, tuple(tuple(n // g for n in row) for row in rows))


def check_kernel_by_tuples(op: QuantumOp, group: GroupKind) -> None:
    """Verify op.kernel at its incoming shrinks a_in = op.a_in like
    `qcompiler.check_kernel`, one tuple z of incoming letters at a time: all
    4^in rows weighted by the product of the letter mixtures
    tetra_weights(ShrunkState(z_i, a_in[i])) must give the output letters
    of op's classical function on z each at shrink op.alpha, one weight
    vector for a join or a transform, the product of two for a fork.
    O(16^in 4^w) integer operations.  Raises VerificationError."""
    a_in = op.a_in
    width = 2 if op.tag == FORK_EFC else 1
    rows = op.kernel.rows
    if len(rows) != 4 ** len(a_in) or any(len(row) != 4**width for row in rows):
        raise VerificationError(f"{op.tag} kernel of node {op.node} has the wrong shape")
    ins = [shrunk_weights(a) for a in a_in]
    own, other, scale = shrunk_weights(op.alpha)
    in_scale = op.kernel.den * prod(w[2] for w in ins)
    for zs in product(LETTERS, repeat=len(a_in)):
        mixed = [0] * 4**width
        for row, us in zip(rows, product(LETTERS, repeat=len(a_in))):
            w = prod(o if u == z else f for z, u, (o, f, _) in zip(zs, us, ins))
            mixed = [m + w * n for m, n in zip(mixed, row)]
        if op.tag == JOIN:
            want = (reduce(group.add, zs),)
        elif op.tag == FORK_EFC:
            want = zs * 2
        else:
            want = (op.map[zs[0]],)
        for m, out in zip(mixed, product(LETTERS, repeat=width)):
            rhs = in_scale * prod(own if y == t else other for y, t in zip(out, want))
            if m * scale**width != rhs:
                shrinks = ", ".join(map(str, a_in))
                raise VerificationError(
                    f"{op.tag} kernel of node {op.node} at incoming shrink "
                    f"{shrinks} misses its target on input letters {zs}"
                )


def _combine(group, vals, ins, terms) -> Letter:
    acc = 0
    for t in terms:
        acc = group.add(acc, t.map[vals[ins[t.in_pos]]])
    return acc


def edge_values_by_tuple(net, proto, inputs) -> list[Letter]:
    """The letter on every edge for one input tuple, in sorted source-id
    order, by one walk of a validated network."""
    by_source = dict(zip(net.source_ids, map(as_letter, inputs)))
    vals: list = [None] * len(net.edges)
    for v in net.topo_order:
        outs = net.out_edges(v)
        if net.kind_of[v] == "source":
            for e in outs:
                vals[e] = by_source[v]
        elif net.kind_of[v] == "internal":
            ins = net.in_edges(v)
            for op in proto.ops[v]:
                vals[outs[op.out_pos]] = _combine(proto.group, vals, ins, op.terms)
    return vals


def evaluate_by_tuple(net, proto, inputs) -> tuple[Letter, ...]:
    """The sink letters for one input tuple, in sorted sink-id order."""
    vals = edge_values_by_tuple(net, proto, inputs)
    return tuple(
        _combine(proto.group, vals, net.in_edges(t), proto.decode_terms(t))
        for t in net.sink_ids
    )


def truth_table_by_tuples(net, proto) -> dict:
    """{input tuple: sink letters}, one walk per tuple, in lexicographic
    order."""
    return {
        xs: evaluate_by_tuple(net, proto, xs)
        for xs in product(LETTERS, repeat=len(net.source_ids))
    }


def check_requirement_by_tuples(net, proto) -> tuple[bool, tuple | None]:
    """(ok, counterexample): the first input tuple, in lexicographic order,
    on which some sink misses its required source letter."""
    src_index = {s: i for i, s in enumerate(net.source_ids)}
    want = [src_index[net.requirements[t]] for t in net.sink_ids]
    for xs in product(LETTERS, repeat=len(net.source_ids)):
        ys = evaluate_by_tuple(net, proto, xs)
        if any(y != xs[w] for y, w in zip(ys, want)):
            return False, xs
    return True, None


class Enumeration(NamedTuple):
    """The laws `simulate_oracle` reports, from the full live-edge joint."""

    edge_marginals: dict[int, dict[Letter, object]]
    fork_joints: dict[str, dict[tuple, object]]
    sink_mixtures: dict[str, dict[Letter, object]]


def _marginal(dist: dict, pos: list[int]) -> dict:
    """The law of the letters at positions pos of dist's keys."""
    out: dict = {}
    for key, p in dist.items():
        sub = tuple(key[j] for j in pos)
        out[sub] = out.get(sub, 0) + p
    return out


def enumerate_branches(compiled: CompiledProtocol, inputs) -> Enumeration:
    """Every edge's marginal, every fork's joint and every sink's mixture,
    read off the joint over all live edges, which each node extends by its
    outputs and from which it drops each input edge once read.  Typed like
    the sweep: all `Fraction`s for exact inputs, all floats once any source
    is given a vector or a density matrix.

    Raises SizeError when the branch count could pass MAX_FULL_BRANCHES.
    """
    net = compiled.d3.network
    laws = _resolve_inputs(compiled, inputs)
    # the sweep's typing rule: every value is a float once any source's is
    one = Fraction(1)
    if any(isinstance(w, float) for law in laws.values() for w in law.values()):
        laws = {s: {z: float(w) for z, w in law.items()} for s, law in laws.items()}
        one = 1.0
    group = compiled.d3.group
    live: list[int] = []  # edge ids, in the order of dist's keys
    dist: dict[tuple, object] = {(): one}
    marginals: dict[int, dict] = {}
    fork_joints: dict[str, dict] = {}
    sink_mixtures: dict[str, dict] = {}
    for v in compiled.order:
        op = compiled.ops[v]
        in_pos = [live.index(e) for e in net.in_edges(v)]
        if len(dist) * 16 > MAX_FULL_BRANCHES:
            raise SizeError(f"branch count would exceed {MAX_FULL_BRANCHES}")
        if op.tag == SINK_NOOP:
            sink_mixtures[v] = {z: p for (z,), p in _marginal(dist, in_pos).items()}
        keep = [j for j in range(len(live)) if j not in in_pos]
        new_dist: dict[tuple, object] = {}
        for key, p in dist.items():
            if op.tag == SOURCE_TTR:
                law = [((z,), w) for z, w in laws[v].items()]
            elif op.tag == JOIN:
                law = join_branch_law(group, key[in_pos[0]], key[in_pos[1]])
                law = [((y,), w) for y, w in law.items()]
            elif op.tag == FORK_EFC:
                law = list(fork_branch_law(op, key[in_pos[0]]).items())
            elif op.tag == SINK_NOOP:
                law = [((), Fraction(1))]
            else:
                law = [((y,), w) for y, w in transform_branch_law(op, key[in_pos[0]]).items()]
            rest = tuple(key[j] for j in keep)
            for out_letters, w in law:
                nk = rest + out_letters
                new_dist[nk] = new_dist.get(nk, Fraction(0)) + p * w
        dist = new_dist
        live = [live[j] for j in keep] + list(net.out_edges(v))
        out_pos = list(range(len(keep), len(live)))
        for j in out_pos:
            marginals[live[j]] = {z: p for (z,), p in _marginal(dist, [j]).items()}
        if op.tag == FORK_EFC:
            fork_joints[v] = _marginal(dist, out_pos)
    return Enumeration(marginals, fork_joints, sink_mixtures)
