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
classical function at its output shrink (`build_kernel`).  Kernels are
memoized within one compile.  The exact sweep in `qsim` runs on them.

`check_kernel` verifies every kernel once, at every incoming shrink where
it occurs: mixed over the latent letter mixture
tetra_weights(ShrunkState(z, a_in)) of each input, it must give exactly
tetra_weights(ShrunkState(f(z), a_out)), and for a fork the product of two
such vectors.  A mismatch raises VerificationError, so a compiled protocol
only exists if each of its node laws lands on the bookkeeping above.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, prod

from .errors import SizeError, VerificationError
from .netgraph import (
    LETTERS,
    D3Network,
    GroupKind,
    Letter,
    LetterMap,
    MapClass,
    as_letter,
    letter_to_str,
)
from .shrink import as_shrink

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


def two_to_one_emission(letter: Letter, map_: LetterMap, param: Fraction) -> dict:
    """Output letter distribution of a two-to-one node on one input letter.

    Prepares the mapped letter with weight 3/(6-param) and each of the two
    letters outside the map's image with weight (3-param)/(2(6-param)); the
    unmapped image letter is never produced.  Exact in the parameter.
    """
    letter = as_letter(letter)
    param = Fraction(as_shrink(param))
    image = map_.image()
    if len(image) != 2:
        raise ValueError("emission law only applies to two-to-one maps")
    own = Fraction(3, 1) / (6 - param)
    off = (3 - param) / (2 * (6 - param))
    dist = {z: Fraction(0) for z in LETTERS}
    dist[map_(letter)] = own
    for z in LETTERS:
        if z not in image:
            dist[z] = off
    return dist


@dataclass(frozen=True)
class Kernel:
    """Exact transition law of one node: P(output letters | input letters).

    rows[i] lists the (output letters, numerator) pairs with a nonzero
    numerator, for input index i: the incoming letter u, or 4 * u1 + u2 for
    a join.  Every probability is numerator / den.
    """

    den: int
    rows: tuple[tuple[tuple[tuple[Letter, ...], int], ...], ...]


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


def _kernel(den: int, outs, rows) -> Kernel:
    """Kernel from dense rows of numerators over den, entry k of each row
    for the output letters outs[k], with zero entries dropped and the
    common factor of all numerators and den cancelled."""
    g = gcd(den, *(n for row in rows for n in row))
    return Kernel(
        den // g,
        tuple(tuple((out, n // g) for out, n in zip(outs, row) if n) for row in rows),
    )


def _target(op: QuantumOp, zs: tuple[Letter, ...], group: GroupKind) -> tuple[Letter, ...]:
    """The output letters of op's classical function on input letters zs:
    a join's group sum, a fork's two copies, a transform's mapped letter."""
    if op.tag == JOIN:
        return (group.add(*zs),)
    if op.tag == FORK_EFC:
        return zs * 2
    return (op.map(zs[0]),)


def _shrunk_weights(a: Fraction) -> tuple[int, int, int]:
    """tetra_weights(ShrunkState(z, a)) as integers: the weight of z, of
    each other letter, and their common denominator 4q."""
    p, q = a.numerator, a.denominator
    return q + 3 * p, q - p, 4 * q


def _unmix(rows: list[list[int]], den: int, stride: int, a: Fraction) -> tuple[list, int]:
    """Apply W(a)^-1 = (1/a)(I - (1-a)/4 J) along the input letter that
    steps the row index by stride (4 for a join's first input, else 1):
    with a = p/q, each row becomes 4q times itself less (q - p) times the
    sum of its 4 rows along that letter, over 4p den."""
    p, q = a.numerator, a.denominator
    q4, r = 4 * q, q - p
    out = list(rows)
    for i in (0, 1, 2, 3) if stride == 4 else range(0, len(rows), 4):
        axis = range(i, i + 4 * stride, stride)
        sums = [r * sum(col) for col in zip(*(rows[j] for j in axis))]
        for j in axis:
            out[j] = [q4 * x - s for x, s in zip(rows[j], sums)]
    return out, 4 * p * den


def build_kernel(op: QuantumOp, a_in: tuple[Fraction, ...], group: GroupKind) -> Kernel:
    """Transition kernel of a join, fork or transform op at incoming
    shrinks a_in, derived from the shrink table alone.

    A state at shrink a mixes its letter by W(a) = a I + (1-a)/4 J, with
    W(a)^-1 = (1/a)(I - (1-a)/4 J) and W(a) W(b) = W(ab).  The tetra
    measurement mixes a pure state's letter by W(1/3), so the node reads
    input z_i through W(a_i/3).  The target T(y | z) puts each output y_j
    at shrink op.alpha around _target(op, z)_j; the emission law is
    E = (W(a_1/3)^-1 x ...) T, and the kernel applies W(1/3) = W(3)^-1
    along each input to E.  Raises VerificationError, naming the node, if
    E has a negative entry: no node law reaches the claimed shrink.
    """
    width = 2 if op.tag == FORK_EFC else 1
    outs = list(product(LETTERS, repeat=width))
    own, other, scale = _shrunk_weights(op.alpha)
    rows = []
    for zs in product(LETTERS, repeat=len(a_in)):
        want = _target(op, zs, group)
        rows.append([prod(own if y == t else other for y, t in zip(out, want)) for out in outs])
    den = scale**width
    strides = (4, 1)[-len(a_in):]  # input index 4 * z1 + z2, or z
    for stride, a in zip(strides, a_in):
        rows, den = _unmix(rows, den, stride, a / 3)
    if any(n < 0 for row in rows for n in row):
        raise VerificationError(
            f"{op.tag} node {op.node} cannot emit shrink {op.alpha} at incoming "
            f"shrink {', '.join(map(str, a_in))}: its emission law would be negative"
        )
    for stride in strides:
        rows, den = _unmix(rows, den, stride, Fraction(3))
    return _kernel(den, outs, rows)


def check_kernel(op: QuantumOp, a_in: tuple[Fraction, ...], group: GroupKind) -> None:
    """Verify op.kernel at the incoming shrinks a_in, exactly.

    For every tuple z of incoming letters, the kernel mixed over
    tetra_weights(ShrunkState(z_i, a_in[i])) must equal the output letters
    _target(op, z) each at shrink op.alpha: one weight vector for a join or
    a transform, the product of two for a fork.  Raises VerificationError.
    """
    if len(op.kernel.rows) != 4 ** len(a_in):
        raise VerificationError(f"{op.tag} kernel of node {op.node} has the wrong shape")
    ins = [_shrunk_weights(a) for a in a_in]
    own, other, scale = _shrunk_weights(op.alpha)
    in_scale = op.kernel.den * prod(w[2] for w in ins)
    for zs in product(LETTERS, repeat=len(a_in)):
        mixed: dict = {}
        for row, us in zip(op.kernel.rows, product(LETTERS, repeat=len(a_in))):
            w = prod(o if u == z else f for z, u, (o, f, _) in zip(zs, us, ins))
            for out, n in row:
                mixed[out] = mixed.get(out, 0) + w * n
        want = _target(op, zs, group)
        for out in product(LETTERS, repeat=len(want)):
            rhs = in_scale * prod(own if y == t else other for y, t in zip(out, want))
            if mixed.get(out, 0) * scale ** len(want) != rhs:
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
    # within one compile
    kernels: dict[tuple, Kernel] = {}
    for v in order:
        op = ops[v]
        if op.tag in (SOURCE_TTR, SINK_NOOP):
            continue
        a_in = tuple(ops[net.edges[e][0]].alpha for e in net.in_edges(v))
        key = (op.tag, None if op.map is None else op.map.table, a_in)
        if key not in kernels:
            op = replace(op, kernel=build_kernel(op, a_in, d3.group))
            check_kernel(op, a_in, d3.group)
            kernels[key] = op.kernel
            if op.tag in (FORK_EFC, TRANSFORM_TWO_TO_ONE):
                notes.append(Note(a_in[0], op.map))
        ops[v] = replace(op, kernel=kernels[key])
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
