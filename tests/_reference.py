"""Reference laws and a full enumeration that the exact sweep is checked against.

`fork_branch_law` is the fork's `Fraction` branch law, built from `efc`'s
pair law, independently of the compiled kernels.  `enumerate_branches`
keeps the full joint over all edges with the `Fraction` laws; it is
exponential in the edge count and only for tiny networks.
"""

from fractions import Fraction

from qnc4 import efc, qmath
from qnc4.errors import SizeError
from qnc4.netgraph import Letter
from qnc4.qcompiler import FORK_EFC, JOIN, SINK_NOOP, SOURCE_TTR, CompiledProtocol, QuantumOp
from qnc4.qsim import _resolve_inputs, join_branch_law, transform_branch_law

MAX_FULL_BRANCHES = 10**6


def fork_branch_law(op: QuantumOp, u: Letter) -> dict[tuple, Fraction]:
    """Joint distribution of the two letters a fork emits, given the
    incoming letter."""
    out: dict[tuple, Fraction] = {}
    for x, t in qmath.ttr_outcome_weights(u).items():
        for pair, w in efc.efc_pair_distribution(op.input_alpha, x).items():
            out[pair] = out.get(pair, Fraction(0)) + t * w
    return out


def enumerate_branches(compiled: CompiledProtocol, inputs) -> dict[tuple, object]:
    """Full joint distribution over all edge letters, keyed by edge index.

    Raises SizeError when the branch count could pass MAX_FULL_BRANCHES.
    """
    net = compiled.d3.network
    laws = _resolve_inputs(compiled, inputs)
    group = compiled.d3.group
    seen: list[int] = []  # edge ids in creation order
    dist: dict[tuple, object] = {(): Fraction(1)}
    for v in compiled.order:
        op = compiled.ops[v]
        in_pos = [seen.index(e) for e in net.in_edges(v)]
        if len(dist) * 16 > MAX_FULL_BRANCHES:
            raise SizeError(f"branch count would exceed {MAX_FULL_BRANCHES}")
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
            for out_letters, w in law:
                nk = key + out_letters
                new_dist[nk] = new_dist.get(nk, Fraction(0)) + p * w
        dist = new_dist
        seen.extend(net.out_edges(v))
    reorder = [seen.index(e) for e in range(len(net.edges))]
    return {tuple(key[i] for i in reorder): p for key, p in dist.items()}
