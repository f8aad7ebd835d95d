"""Compile a normal-form classical network into a quantum protocol.

Each node becomes one prepare-and-measure op, and every edge carries a
tetra state shrunk by a factor that the compiler tracks exactly.  One
table, `_RULES`, gives each node's op tag and the shrink it emits; a
transform takes any of the 256 letter maps, and its row reads the map's
largest preimage size.

Every join, fork and transform op also carries its transition kernel: the
exact conditional law P(output letters | input letters), as integer
numerators over one denominator per node.  Kernels are derived from the
shrink table alone.  A state at shrink a is its letter mixed by
W(a) = a I + (1 - a)/4 J, which is invertible, W(a)^-1 =
(1/a)(I - (1 - a)/4 J), and composes as W(a) W(b) = W(ab); so each
kernel is W(a_in)^-1 along each input applied to the target of the node's
classical function at its output shrink (`build_kernel`), one mix per
input.  The node reads each input through the tetra measurement, W(1/3),
so its emission law is W(3) along each input applied to the kernel; a
shrink whose emission law would be negative is refused.  The exact sweep
in `qsim` runs on the kernels.

Kernels are memoized within one compile.  A join adds its two letters in
the group and a one-to-one transform permutes its letter: each is a
bijection in every input, so mixing an input by W(a) mixes the output by
W(a), and its kernel is W(r) peaked at f(z), r = a_out / prod(a_in).  Such
a kernel depends on the incoming shrinks only through r, 1/9 for a join
and 1/3 for a one-to-one map, so it is built once per (tag, map, r).  A
fork's kernel and a many-to-one map's read the incoming shrink; they, and
a constant map's, are built once per (tag, map, incoming shrinks).

`check_kernel` verifies every kernel at every incoming shrink where it
occurs, so a kernel shared by its ratio is checked at each node's own
shrinks, and compile raises rather than return one that misses there.
Mixed forward by W(a_in) along each input, a kernel must give exactly
tetra_weights(ShrunkState(f(z), a_out)) on every tuple z of input letters
(for k output letters, the product of k such vectors).  Build, sign test
and check run on one flat table of integers, row z after row z, and mix
one input at a time by `_mix`, stepping by `_steps`: O(d 4^d 4^k)
operations.  A mismatch raises VerificationError, so a compiled protocol
only exists if each of its node laws lands on the bookkeeping above.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, prod
from operator import add, floordiv, mul

from .errors import SizeError, VerificationError
from .netgraph import (
    LETTERS,
    D3Network,
    GroupKind,
    letter_to_str,
)
from .shrink import shrunk_weights

SOURCE_TTR = "SourceTTR"
JOIN = "Join"
TRANSFORM_CONSTANT = "TransformConstant"
TRANSFORM_ONE_TO_ONE = "TransformOneToOne"
TRANSFORM_TWO_TO_ONE = "TransformTwoToOne"
TRANSFORM_MAP = "TransformMap"
FORK_EFC = "ForkEFC"
SINK_NOOP = "SinkNoop"

# The shrink table: each role's op tag and the shrink factor it emits, as a
# function of the shrink factors of its incoming edges.  A transform's row
# also reads k, the largest preimage size of its map: a constant map
# (k = 4) prepares its letter afresh, and any other map emits
# a/(3k - (k - 1)a), so a/3 one-to-one and a/(6 - a) two-to-one.
_RULES = {
    "source": (SOURCE_TTR, lambda: Fraction(1)),
    "join": (JOIN, lambda a, b: a * b / 9),
    "transform": (
        TRANSFORM_MAP, lambda a, k: Fraction(1) if k == 4 else a / (3 * k - (k - 1) * a)
    ),
    "fork": (FORK_EFC, lambda a: a / 9),
    "sink": (SINK_NOOP, lambda a: a),
}

# the paper's three transform tags, by the preimage sizes of their maps in
# ascending order; the 192 other maps keep the transform row's tag
_TRANSFORM_TAGS = {
    (4,): TRANSFORM_CONSTANT,
    (1, 1, 1, 1): TRANSFORM_ONE_TO_ONE,
    (2, 2): TRANSFORM_TWO_TO_ONE,
}

# the tags whose function is a bijection in each input: their kernels
# depend on the incoming shrinks only through alpha / prod(a_in)
_BIJECTIVE = (JOIN, TRANSFORM_ONE_TO_ONE)

_OUTPUTS = {FORK_EFC: 2}  # how many letters each tag's op emits, where not one

# the laws compile_protocol notes, by tag
_NOTED = {FORK_EFC: "fork", TRANSFORM_TWO_TO_ONE: "two-to-one", TRANSFORM_MAP: "letter map"}

# str() refuses ints of more than 4300 digits by default.  Every exact number
# qnc4 prints is over a shrink's denominator (times at most 12) or a fork's
# joint denominator; compile_protocol refuses these past this many digits.
MAX_DIGITS = 4000


class Kernel(namedtuple("Kernel", ("den", "rows"))):
    """Exact transition law of one node: P(output letters | input letters).

    One layout for any arity, two bits per letter, first letter highest:
    rows[i] is the row for the d incoming letters at i = sum z_j 4^(d-1-j),
    in in-edge order, and holds 4^k numerators, the entry for the k output
    letters, in out-edge order, at sum y_j 4^(k-1-j).  Every probability
    is numerator / den.
    """

    __slots__ = ()


class QuantumOp(namedtuple("QuantumOp", ("node", "tag", "alpha", "a_in", "map", "kernel"),
                           defaults=(None, None))):
    """One compiled node: its law and its transition kernel.

    alpha is the shrink factor of the states this node emits, and a_in the
    shrink factors of its incoming edges, in in-edge order (() for a
    source).  The tag, map (a transform's letter map, else None), alpha and
    a_in fix the node's law; a constant map's letter is map[0].  kernel, a
    Kernel, is None for sources and sinks.
    """

    __slots__ = ()


class Note(namedtuple("Note", ("tag", "shrink", "map"), defaults=(None,))):
    """A law compile_protocol verified at an exact incoming shrink: a
    fork's (map None), or a transform's of a tag in `_NOTED`, formatted
    only by str()."""

    __slots__ = ()

    def __str__(self) -> str:
        text = f"{_NOTED[self.tag]} law verified at incoming shrink {self.shrink}"
        if self.map is None:
            return text
        table = ",".join(letter_to_str(z) for z in self.map)
        return f"{text} for map {table}"


class CompiledProtocol:
    """A D3Network's QuantumOps by node id, listed in `order`, by
    longest-path depth (`depths`) and then id, and the Notes of the laws
    verified while compiling it."""

    def __init__(self, d3: D3Network, ops: dict[str, QuantumOp], order: tuple[str, ...],
                 depths: dict[str, int], notes: tuple[Note, ...] = ()):
        self.d3 = d3
        self.ops = ops
        self.order = order
        self.depths = depths
        self.notes = notes

    @cached_property
    def sweep_order(self) -> tuple[str, ...]:
        """The exact sweep's node order, built on first use and kept."""
        return sweep_order(self)

    def edge_alpha(self, e: int) -> Fraction:
        """Shrink factor carried by the state on edge index e."""
        return self.ops[self.d3.network.edges[e][0]].alpha

    @property
    def sink_alphas(self) -> dict[str, Fraction]:
        return {
            v: self.ops[v].alpha
            for v in self.d3.network.sink_ids
        }


# ---------------------------------------------------------------------------
# transition kernels in integer arithmetic


def _target_rows(op: QuantumOp, group: GroupKind) -> tuple[list[int], int, int]:
    """T(y | z) as (flat table, row width, denominator): row z is the k-fold
    outer product, k the op's output letters, of the shrunk weights at
    op.alpha peaked at the group sum of op.map (the identity when None)
    on each of its len(op.a_in) input letters."""
    own, other, scale = shrunk_weights(op.alpha)
    k = _OUTPUTS.get(op.tag, 1)
    peaks = f = op.map or LETTERS  # each row's peak, one input at a time
    for _ in range(len(op.a_in) - 1):
        peaks = [group.add(y, x) for y in peaks for x in f]
    flat = []
    for y in peaks:  # row z, the k-fold outer product of the weights peaked at y
        row = entries = [other] * 4
        row[y] = own
        for _ in range(k - 1):
            entries = [n * w for n in entries for w in row]
        flat += entries
    return flat, 4**k, scale**k


def _steps(width: int, n_in: int) -> list[int]:
    """How far input i steps a flat table of rows width entries long."""
    return [width * 4 ** (n_in - 1 - i) for i in range(n_in)]


def _mix(flat: list[int], step: int, own: int, rest: int) -> list[int]:
    """own I + rest J along the input that steps the flat table by step, a
    mode product (Kolda and Bader, SIAM Review 51(3), 2009): in each block of
    4 step entries, each quarter x_u becomes own x_u + rest (x_0 + ... + x_3)."""
    out = []
    for b in range(0, len(flat), 4 * step):
        x = flat[b:b + 4 * step]
        sums = map(add, map(add, x[:step], x[step:2 * step]),
                   map(add, x[2 * step:3 * step], x[3 * step:]))
        out += map(add, map(mul, x, repeat(own)), list(map(mul, sums, repeat(rest))) * 4)
    return out


def build_kernel(op: QuantumOp, group: GroupKind) -> Kernel:
    """Transition kernel of a join, fork or transform op at its incoming
    shrinks op.a_in, derived from the shrink table alone.

    A state at shrink a mixes its letter by W(a) = a I + (1-a)/4 J, with
    W(a)^-1 = (1/a)(I - (1-a)/4 J) and W(a) W(b) = W(ab).  The kernel K is
    W(a_i)^-1 along each input i applied to T, the target table of
    `_target_rows`: one `_mix` per input.  The node reads input z_i
    through W(a_i/3), the incoming shrink and then the tetra measurement's
    W(1/3), so its emission law is W(a_i/3)^-1 = W(3) W(a_i)^-1 along each
    input applied to T: W(3) along each input applied to K, where
    2 W(3) = 6I - J.  Its sign is read off K in lowest terms, whose
    numbers can be far smaller than before the gcd cancels: a join's
    kernel at its row ab/9 has denominator 9 at any incoming shrinks.
    6I - J is mixed in along every input, and VerificationError, naming
    the node, is raised if any entry is negative: no node law reaches the
    claimed shrink.
    """
    return _build_kernel(op, _target_rows(op, group))


def _build_kernel(op: QuantumOp, target: tuple) -> Kernel:
    """`build_kernel` from the flat target, its row width and denominator."""
    flat, width, den = target
    steps = _steps(width, len(op.a_in))
    for step, a in zip(steps, op.a_in):
        # W(a)^-1 = (1/a)(I - (1-a)/4 J): with a = p/q, 4q I + (p - q) J over 4p
        p, q = a.numerator, a.denominator
        flat, den = _mix(flat, step, 4 * q, p - q), 4 * p * den
    g = gcd(den, *flat)
    flat = list(map(floordiv, flat, repeat(g)))
    law = flat
    for step in steps:
        law = _mix(law, step, 6, -1)
    if min(law) < 0:
        raise VerificationError(
            f"{op.tag} node {op.node} cannot emit shrink {op.alpha} at incoming "
            f"shrink {', '.join(map(str, op.a_in))}: its emission law would be negative"
        )
    return Kernel(den // g, tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width)))


def check_kernel(op: QuantumOp, group: GroupKind) -> None:
    """Verify op.kernel at its incoming shrinks op.a_in, exactly.

    The kernel's rows, flattened once and mixed forward over its inputs'
    latent letters by `_mix` with W(a) = (4p I + (q - p) J)/4q, a = p/q,
    along each input, must give the target table T(y | z) of
    `_target_rows`, compared whole.  O(in 4^in 4^w) integer operations.
    Raises VerificationError naming the first failing z in letter order.
    """
    _check_kernel(op, _target_rows(op, group))


def _check_kernel(op: QuantumOp, target: tuple) -> None:
    """`check_kernel` against the flat target, its row width and denominator."""
    rows = op.kernel.rows
    target, width, scale = target
    if len(rows) * width != len(target) or any(len(row) != width for row in rows):
        raise VerificationError(f"{op.tag} kernel of node {op.node} has the wrong shape")
    flat = list(chain.from_iterable(rows))
    in_scale = op.kernel.den
    steps = _steps(width, len(op.a_in))
    for step, a in zip(steps, op.a_in):
        p, q = a.numerator, a.denominator
        flat = _mix(flat, step, 4 * p, q - p)
        in_scale *= 4 * q
    # mixed / in_scale == target / scale, with the common factor of the scales out
    g = gcd(scale, in_scale)
    flat = list(map(mul, flat, repeat(scale // g)))
    target = list(map(mul, target, repeat(in_scale // g)))
    if flat != target:  # name the letters of the row of the first wrong entry
        j = next(j for j, (x, y) in enumerate(zip(flat, target)) if x != y)
        raise VerificationError(
            f"{op.tag} kernel of node {op.node} at incoming shrink "
            f"{', '.join(map(str, op.a_in))} misses its target on input letters "
            f"{tuple(j // step % 4 for step in steps)}"
        )


def compile_protocol(d3: D3Network) -> CompiledProtocol:
    """One QuantumOp per node: its tag, map, exact shrink and incoming
    shrinks, and a verified transition kernel.

    A D3Network is valid by construction, so nothing is validated here.
    Every op is made first without its kernel, in listing order, reading
    its incoming shrinks off its producers' ops, and SizeError is raised
    at the first node where a shrink's denominator or a fork's joint
    denominator would pass MAX_DIGITS digits, before any kernel is built
    or verified.  Then each op is made again with its kernel, and
    VerificationError is raised if a node's shrink is out of its law's
    reach or a kernel misses its target at an incoming shrink occurring in
    this network.

    A join or one-to-one kernel is built once per ratio
    alpha / prod(a_in), at the incoming shrinks of the first node that has
    it, and every other kernel once per (tag, map, incoming shrinks).
    Each kernel is checked, and noted, once per (tag, map, incoming
    shrinks), so it is verified at every incoming shrink it is used at.
    """
    net = d3.network
    depths: dict[str, int] = {}
    for v in net.topo_order:
        parents = [net.edges[e][0] for e in net.in_edges(v)]
        depths[v] = 0 if not parents else 1 + max(depths[u] for u in parents)
    order = tuple(sorted((n.id for n in net.nodes), key=lambda v: (depths[v], v)))

    ops: dict[str, QuantumOp] = {}
    for v in order:
        a_in = tuple(ops[net.edges[e][0]].alpha for e in net.in_edges(v))
        m = d3.transforms.get(v)
        tag, shrink = _RULES[d3.roles[v]]
        if m is None:
            alpha = shrink(*a_in)
        else:
            sizes = tuple(sorted(map(m.count, set(m))))
            tag = _TRANSFORM_TAGS.get(sizes, tag)
            alpha = shrink(*a_in, sizes[-1])
        # k outputs have a joint law over up to 16^(k-1) q^k = (16 q)^k / 16
        biggest = (16 * alpha.denominator) ** _OUTPUTS.get(tag, 1) // 16
        digits = biggest.bit_length() * 30103 // 100000 + 1  # log10(2) < 0.30103
        if digits > MAX_DIGITS:
            raise SizeError(
                f"exact numbers at node {v} would have {digits} digits, over the "
                f"limit of {MAX_DIGITS}"
            )
        ops[v] = QuantumOp(v, tag, alpha, a_in, m)

    notes: list[Note] = []
    # kernels by law key, and the checked ones by (tag, map, incoming
    # shrinks); the group is fixed within one compile.  A shrink is keyed by
    # its two ints, since hashing a Fraction inverts its denominator modulo
    # a prime.
    built: dict[tuple, Kernel] = {}
    checked: dict[tuple, Kernel] = {}
    for v, op in ops.items():
        tag, m, a_in = op.tag, op.map, op.a_in
        if tag in (SOURCE_TTR, SINK_NOOP):
            continue
        key = (tag, m, *((a.numerator, a.denominator) for a in a_in))
        kernel = checked.get(key)
        target = None
        if kernel is None:
            target = _target_rows(op, d3.group)
            law_key = key
            if tag in _BIJECTIVE:
                r = op.alpha / prod(a_in)
                law_key = (tag, m, r.numerator, r.denominator)
            if law_key not in built:
                built[law_key] = _build_kernel(op, target)
            kernel = checked[key] = built[law_key]
        op = ops[v] = QuantumOp(v, tag, op.alpha, a_in, m, kernel)
        if target is not None:
            # checked against the copy of the target it was built from, which
            # neither changes
            _check_kernel(op, target)
            if tag in _NOTED:
                notes.append(Note(tag, a_in[0], m))
    return CompiledProtocol(d3, ops, order, depths, tuple(notes))


# ---------------------------------------------------------------------------
# the exact sweep's node order


def sweep_order(compiled: CompiledProtocol) -> tuple[str, ...]:
    """A topological order that keeps few edges live, for the exact sweep.

    The network's one Kahn walk (`Network.kahn`) with a greedy key: among
    the ready nodes, take the one that leaves the fewest live edges
    (out-degree minus in-degree), on ties one that consumes edges before a
    source, then the deeper node, then the lower id.  With letter inputs
    the order does not change the sweep's work; it matters once a vector
    source keeps factors merged.  Choosing the order is the
    contraction-ordering problem of tensor networks (Markov and Shi, SIAM
    J. Comput. 38(3), 2008); a greedy order is enough here.
    """
    net = compiled.d3.network

    def key(v):
        ins = len(net.in_edges(v))
        return (len(net.out_edges(v)) - ins, not ins, -compiled.depths[v])

    return tuple(net.kahn(key))


def protocol_to_json(compiled: CompiledProtocol) -> dict:
    """JSON-friendly summary of a compiled protocol, in listing order."""
    out = {}
    for v in compiled.order:
        op = compiled.ops[v]
        entry: dict = {"op": op.tag, "alpha": str(op.alpha)}
        if len(op.a_in) == 1:
            entry["input_alpha"] = str(op.a_in[0])
        if op.map is not None:
            entry["map"] = [letter_to_str(z) for z in op.map]
        if op.tag == TRANSFORM_CONSTANT:
            entry["letter"] = letter_to_str(op.map[0])
        out[v] = entry
    return out
