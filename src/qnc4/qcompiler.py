"""Compile a normal-form classical network into a quantum protocol.

Each node becomes one prepare-and-measure op, and every edge carries a
tetra state shrunk by a factor that the compiler tracks exactly.  One
table, `_RULES`, gives each node's op tag and the shrink it emits.

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
shrink whose emission law would be negative is refused.  Kernels are
memoized within one compile.  The exact sweep in `qsim` runs on them.

`check_kernel` verifies every kernel once, at every incoming shrink where
it occurs: mixed forward by W(a_in) along each input, it must give exactly
tetra_weights(ShrunkState(f(z), a_out)) on every tuple z of input letters
(for a fork, the product of two such vectors), row by row.  Build and
check both mix one input axis at a time (`_mix`, from `_target_rows`):
O(in 4^in 4^w) operations.  A mismatch raises VerificationError, so a
compiled protocol only exists if each of its node laws lands on the
bookkeeping above.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from math import gcd
from operator import add, floordiv, gt, mul

from .errors import SizeError, VerificationError
from .netgraph import (
    LETTERS,
    D3Network,
    GroupKind,
    Letter,
    LetterMap,
    MapClass,
    letter_to_str,
)
from .shrink import shrunk_weights

SOURCE_TTR = "SourceTTR"
JOIN = "Join"
TRANSFORM_CONSTANT = "TransformConstant"
TRANSFORM_ONE_TO_ONE = "TransformOneToOne"
TRANSFORM_TWO_TO_ONE = "TransformTwoToOne"
FORK_EFC = "ForkEFC"
SINK_NOOP = "SinkNoop"

# The shrink table: each role's op tag and the shrink factor it emits, as a
# function of the shrink factors of its incoming edges.  A transform's row
# is keyed by its map's class.
_RULES = {
    "source": (SOURCE_TTR, lambda: Fraction(1)),
    "join": (JOIN, lambda a, b: a * b / 9),
    MapClass.CONSTANT: (TRANSFORM_CONSTANT, lambda a: Fraction(1)),
    MapClass.ONE_TO_ONE: (TRANSFORM_ONE_TO_ONE, lambda a: a / 3),
    MapClass.TWO_TO_ONE: (TRANSFORM_TWO_TO_ONE, lambda a: a / (6 - a)),
    "fork": (FORK_EFC, lambda a: a / 9),
    "sink": (SINK_NOOP, lambda a: a),
}

# str() refuses ints of more than 4300 digits by default.  Every exact number
# qnc4 prints is over a shrink's denominator (times at most 12) or a fork's
# joint denominator; compile_protocol refuses these past this many digits.
MAX_DIGITS = 4000


@dataclass(frozen=True)
class Kernel:
    """Exact transition law of one node: P(output letters | input letters).

    rows[i] is the row for input index i, the incoming letter u or
    4 * u1 + u2 for a join: a tuple of 4^w numerators, w the number of
    output letters, where entry k packs the output letters two bits each,
    first letter highest.  Every probability is numerator / den.
    """

    den: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class QuantumOp:
    """One compiled node: its transition kernel and exact shrink bookkeeping.

    alpha is the shrink factor of the states this node emits; input_alpha
    is the incoming shrink factor that parameterizes the node's law (None
    for sources and joins).  kernel is None for sources and sinks.
    """

    node: str
    tag: str
    alpha: Fraction
    input_alpha: Fraction | None = None
    map: LetterMap | None = None
    letter: Letter | None = None
    kernel: Kernel | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Note:
    """A law compile_protocol verified: a fork's (map None) or a two-to-one
    map's, at an exact incoming shrink, formatted only by str()."""

    shrink: Fraction
    map: LetterMap | None = None

    def __str__(self) -> str:
        if self.map is None:
            return f"fork law verified at incoming shrink {self.shrink}"
        table = ",".join(letter_to_str(z) for z in self.map.table)
        return f"two-to-one law verified at incoming shrink {self.shrink} for map {table}"


@dataclass(frozen=True)
class CompiledProtocol:
    d3: D3Network
    ops: dict[str, QuantumOp]
    order: tuple[str, ...]  # listing order: by longest-path depth, then id
    depths: dict[str, int]
    notes: tuple[Note, ...] = field(default_factory=tuple)

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


def _target_rows(op: QuantumOp, n_in: int, group: GroupKind) -> tuple[list[list[int]], int]:
    """T(y | z), one integer row per input index over the returned
    denominator: the shrunk weights at op.alpha peaked at the letter of a
    join's group sum or a transform's map, or for a fork their outer
    product, peaked at its two copies of the input letter."""
    own, other, scale = shrunk_weights(op.alpha)
    fork = op.tag == FORK_EFC
    rows = []
    for zs in product(LETTERS, repeat=n_in):
        row = [other] * 4
        row[group.add(*zs) if op.tag == JOIN else zs[0] if fork else op.map(zs[0])] = own
        rows.append([x * y for x in row for y in row] if fork else row)
    return rows, scale ** (2 if fork else 1)


def _mix(rows: list, stride: int, own: int, rest: int) -> list[list[int]]:
    """Replace each row x_z along the input letter that steps the row index
    by stride (4 for a join's first input, else 1) with
    own * x_z + rest * (the sum of the 4 rows x_u along that letter)."""
    out = list(rows)
    for i in (0, 1, 2, 3) if stride == 4 else range(0, len(rows), 4):
        axis = slice(i, i + 4 * stride, stride)
        sums = [rest * sum(col) for col in zip(*rows[axis])]
        out[axis] = [list(map(add, map(mul, row, repeat(own)), sums)) for row in rows[axis]]
    return out


def _unmix(rows: list, den: int, stride: int, a: Fraction) -> tuple[list, int]:
    """Apply W(a)^-1 = (1/a)(I - (1-a)/4 J) along one input letter: with
    a = p/q, 4q I + (p - q) J over 4p den."""
    p, q = a.numerator, a.denominator
    return _mix(rows, stride, 4 * q, p - q), 4 * p * den


def build_kernel(op: QuantumOp, a_in: tuple[Fraction, ...], group: GroupKind) -> Kernel:
    """Transition kernel of a join, fork or transform op at incoming
    shrinks a_in, derived from the shrink table alone.

    A state at shrink a mixes its letter by W(a) = a I + (1-a)/4 J, with
    W(a)^-1 = (1/a)(I - (1-a)/4 J) and W(a) W(b) = W(ab).  The kernel K is
    W(a_i)^-1 along each input i applied to T, the target rows of
    `_target_rows`: one `_mix` per input axis.  The node reads input z_i
    through W(a_i/3), the incoming shrink and then the tetra measurement's
    W(1/3), so its emission law is W(a_i/3)^-1 = W(3) W(a_i)^-1 along each
    input applied to T: W(3) along each input applied to K, where
    2 W(3) = 6I - J.  Its sign is read off K in lowest terms, whose
    numbers can be far smaller than before the gcd cancels: a join's
    kernel at its row ab/9 has denominator 9 at any incoming shrinks.
    One test serves every kernel: 6I - J is mixed in along every input
    but the last, and along the last an entry is negative iff 6 times it
    is below the sum of that entry over its block of 4 rows.  Raises
    VerificationError, naming the node, if that law has a negative entry:
    no node law reaches the claimed shrink.
    """
    return _build_kernel(op, a_in, _target_rows(op, len(a_in), group))


def _build_kernel(op: QuantumOp, a_in: tuple[Fraction, ...], target: tuple) -> Kernel:
    """`build_kernel` from the target rows and their denominator."""
    rows, den = target
    strides = (4, 1)[-len(a_in):]  # input index 4 * z1 + z2, or z
    for stride, a in zip(strides, a_in):
        rows, den = _unmix(rows, den, stride, a)
    g = gcd(den, *chain.from_iterable(rows))
    rows = [list(map(floordiv, row, repeat(g))) for row in rows]
    law = rows
    for stride in strides[:-1]:
        law = _mix(law, stride, 6, -1)
    # 2 W(3) along the last input: 6 x_z - (the sum of x_u over the block
    # of 4 rows x_z lies in), entry by entry
    for i in range(0, len(law), 4):
        block = law[i:i + 4]
        sums = [sum(col) for col in zip(*block)]
        if any(map(gt, sums * 4, map(mul, chain.from_iterable(block), repeat(6)))):
            raise VerificationError(
                f"{op.tag} node {op.node} cannot emit shrink {op.alpha} at incoming "
                f"shrink {', '.join(map(str, a_in))}: its emission law would be negative"
            )
    return Kernel(den // g, tuple(map(tuple, rows)))


def check_kernel(op: QuantumOp, a_in: tuple[Fraction, ...], group: GroupKind) -> None:
    """Verify op.kernel at the incoming shrinks a_in, exactly.

    The kernel mixed forward over its inputs' latent letters, by `_mix`
    with W(a) = (4p I + (q - p) J)/4q, a = p/q, along each input axis,
    must give for every tuple z of incoming letters the target row T(y | z)
    of `_target_rows`, as a whole row.  O(in 4^in 4^w) integer operations.
    Raises VerificationError naming the first failing z in letter order.
    """
    _check_kernel(op, a_in, _target_rows(op, len(a_in), group))


def _check_kernel(op: QuantumOp, a_in: tuple[Fraction, ...], target: tuple) -> None:
    """`check_kernel` against the target rows and their denominator."""
    rows = op.kernel.rows
    target, scale = target
    if len(rows) != len(target) or any(len(row) != len(target[0]) for row in rows):
        raise VerificationError(f"{op.tag} kernel of node {op.node} has the wrong shape")
    in_scale = op.kernel.den
    for stride, a in zip((4, 1)[-len(a_in):], a_in):
        p, q = a.numerator, a.denominator
        rows = _mix(rows, stride, 4 * p, q - p)
        in_scale *= 4 * q
    # mixed / in_scale == want / scale, with the common factor of the scales out
    g = gcd(scale, in_scale)
    scale, in_scale = scale // g, in_scale // g
    for zs, mixed, want in zip(product(LETTERS, repeat=len(a_in)), rows, target):
        if list(map(mul, mixed, repeat(scale))) != list(map(mul, want, repeat(in_scale))):
            shrinks = ", ".join(map(str, a_in))
            raise VerificationError(
                f"{op.tag} kernel of node {op.node} at incoming shrink "
                f"{shrinks} misses its target on input letters {zs}"
            )


def compile_protocol(d3: D3Network) -> CompiledProtocol:
    """Assign a quantum op, an exact shrink factor and a verified transition
    kernel to every node.

    A D3Network is valid by construction, so nothing is validated here.
    Every shrink is computed first, in listing order, and SizeError is
    raised at the first node where a shrink's denominator or a fork's
    joint denominator would pass MAX_DIGITS digits, before any kernel is
    built or verified.  Then raises VerificationError if a node's shrink
    is out of its law's reach or a kernel misses its target at an
    incoming shrink occurring in this network.
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
        tag, shrink = _RULES[d3.roles[v] if m is None else m.try_classify()]
        op = QuantumOp(
            v, tag, shrink(*a_in),
            input_alpha=a_in[0] if len(a_in) == 1 else None,
            map=m,
            letter=m(0) if tag == TRANSFORM_CONSTANT else None,
        )
        # a fork's two outputs have a joint law over up to 16 q^2
        q = op.alpha.denominator
        biggest = 16 * q * q if op.tag == FORK_EFC else q
        digits = biggest.bit_length() * 30103 // 100000 + 1  # log10(2) < 0.30103
        if digits > MAX_DIGITS:
            raise SizeError(
                f"exact numbers at node {v} would have {digits} digits, over the "
                f"limit of {MAX_DIGITS}"
            )
        ops[v] = op

    notes: list[Note] = []
    # verified kernels by (tag, map, incoming shrinks); the group is fixed
    # within one compile.  A shrink is keyed by its two ints, since hashing
    # a Fraction inverts its denominator modulo a prime.
    kernels: dict[tuple, Kernel] = {}
    for v in order:
        op = ops[v]
        if op.tag in (SOURCE_TTR, SINK_NOOP):
            continue
        a_in = tuple(ops[net.edges[e][0]].alpha for e in net.in_edges(v))
        key = (op.tag, op.map and op.map.table, *((a.numerator, a.denominator) for a in a_in))
        kernel = kernels.get(key)
        if kernel is not None:
            ops[v] = replace(op, kernel=kernel)
            continue
        # built and checked against one copy of the target rows, which
        # neither changes
        target = _target_rows(op, len(a_in), d3.group)
        ops[v] = replace(op, kernel=_build_kernel(op, a_in, target))
        _check_kernel(ops[v], a_in, target)
        kernels[key] = ops[v].kernel
        if op.tag in (FORK_EFC, TRANSFORM_TWO_TO_ONE):
            notes.append(Note(a_in[0], op.map))
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
        if op.input_alpha is not None:
            entry["input_alpha"] = str(op.input_alpha)
        if op.map is not None:
            entry["map"] = [letter_to_str(z) for z in op.map.table]
        if op.letter is not None:
            entry["letter"] = letter_to_str(op.letter)
        out[v] = entry
    return out
