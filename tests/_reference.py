"""Reference laws and an enumeration that the exact sweep is checked against.

`fork_branch_law` is the fork's `Fraction` branch law, built from `efc`'s
pair law, independently of the compiled kernels.  `enumerate_branches`
walks the nodes in listing order with the `Fraction` laws and keeps the
full joint over the live edges, as one table that assumes no product
structure; it is exponential in the live-edge count and only for small
networks.
"""

from fractions import Fraction
from typing import NamedTuple

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
    outputs and from which it drops each input edge once read.

    Raises SizeError when the branch count could pass MAX_FULL_BRANCHES.
    """
    net = compiled.d3.network
    laws = _resolve_inputs(compiled, inputs)
    group = compiled.d3.group
    live: list[int] = []  # edge ids, in the order of dist's keys
    dist: dict[tuple, object] = {(): Fraction(1)}
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
