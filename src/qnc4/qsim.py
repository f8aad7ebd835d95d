"""Simulate compiled protocols three ways.

All three entry points agree on the semantics: every node measures its
incoming qubit(s) with the tetra measurement and prepares fresh tetra
states according to its transition law, so a protocol run is a
distribution over letter assignments to edges.

`simulate_oracle` computes that distribution exactly by sweeping the
network once, along the order of `compiled.sweep_plan`, and keeping the
joint distribution over the currently live edges only, merging histories
that agree there.  It applies each node's compiled transition kernel
(`QuantumOp.kernel`) in Python-int arithmetic: weights are integer
numerators over one running denominator, and become `Fraction`s only when
a marginal, fork joint or sink mixture is recorded (floats once a source is
given a state vector or density matrix).  It makes no independence
assumptions across edges, which is what lets its per-edge marginals serve
as ground truth.

The per-node `Fraction` laws below (`transform_branch_law`,
`join_branch_law`, `fork_branch_law`) are an independent reference for the
kernels; `enumerate_branches` uses them to keep the full joint over all
edges.  It is exponential and only for tiny networks.
`simulate_analytic` skips enumeration entirely and reads sink mixtures off
the compiled shrink factors.  `simulate_montecarlo` samples trials in
vectorized chunks with deterministic, chunk-indexed substreams, from the
same verified kernels the sweep runs on: each node, sources included, makes
one draw per trial from Vose alias tables built off its kernel's rows
(`alias_table`), and each edge's letter array is freed once its consumer
has read it.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import truediv

import numpy as np

from .errors import SizeError
from .netgraph import LETTERS, GroupKind, Letter, as_letter
from .classical_eval import evaluate
from .qcompiler import (
    FORK_EFC,
    JOIN,
    SINK_NOOP,
    SOURCE_TTR,
    TRANSFORM_CONSTANT,
    TRANSFORM_ONE_TO_ONE,
    CompiledProtocol,
    Kernel,
    QuantumOp,
    two_to_one_emission,
)
from . import efc, qmath
from .qmath import ShrunkState

MAX_ORACLE_BRANCHES = 4**10
MAX_FULL_BRANCHES = 10**6
STATE_TOL = 1e-9  # allowed error in the norm of a source state


# ---------------------------------------------------------------------------
# per-node sampling laws, conditioned on the letters of the incoming states


def source_distribution(value) -> dict[Letter, object]:
    """Letter distribution a source emits for one input, which it checks.

    A letter (`as_letter`) means the conditioned process that prepares
    exactly that tetra state, a point mass; a ShrunkState yields exact
    statistics over all four letters, a normalized state vector or a
    density matrix float ones.  Raises ValueError on anything else.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 1:
            if value.shape != (2,):
                raise ValueError(f"state vector must have 2 entries, got {value.shape}")
            norm = float(np.linalg.norm(value))
            if not abs(norm - 1) <= STATE_TOL:  # also catches nan
                raise ValueError(f"state vector is not normalized (norm {norm})")
            value = np.outer(value, value.conj())
        elif not qmath.is_density_matrix(value, tol=STATE_TOL):
            raise ValueError("source matrix is not a single-qubit density matrix")
    if isinstance(value, (ShrunkState, np.ndarray)):
        probs = qmath.ttr_probabilities(value)
        return {z: probs[z] for z in LETTERS}
    return {as_letter(value): Fraction(1)}


def transform_branch_law(op: QuantumOp, u: Letter) -> dict[Letter, Fraction]:
    """Output letter distribution of a transform given the incoming letter."""
    if op.tag == TRANSFORM_CONSTANT:
        return {op.letter: Fraction(1)}
    out: dict[Letter, Fraction] = {}
    for x, t in qmath.ttr_outcome_weights(u).items():
        if op.tag == TRANSFORM_ONE_TO_ONE:
            y = op.map(x)
            out[y] = out.get(y, Fraction(0)) + t
        else:
            for y, w in two_to_one_emission(x, op.map, op.input_alpha).items():
                if w:
                    out[y] = out.get(y, Fraction(0)) + t * w
    return out


def join_branch_law(group: GroupKind, u1: Letter, u2: Letter) -> dict[Letter, Fraction]:
    """Output letter distribution of a join given the two incoming letters."""
    out: dict[Letter, Fraction] = {}
    for x1, t1 in qmath.ttr_outcome_weights(u1).items():
        for x2, t2 in qmath.ttr_outcome_weights(u2).items():
            y = group.add(x1, x2)
            out[y] = out.get(y, Fraction(0)) + t1 * t2
    return out


def fork_branch_law(op: QuantumOp, u: Letter) -> dict[tuple, Fraction]:
    """Joint distribution of the two letters a fork emits, given the
    incoming letter."""
    out: dict[tuple, Fraction] = {}
    for x, t in qmath.ttr_outcome_weights(u).items():
        for pair, w in efc.efc_pair_distribution(op.input_alpha, x).items():
            out[pair] = out.get(pair, Fraction(0)) + t * w
    return out


def _resolve_inputs(compiled: CompiledProtocol, inputs) -> dict[str, dict]:
    """Each source's letter law, by source id; this checks every input."""
    sources = compiled.d3.network.source_ids
    if len(inputs) != len(sources):
        raise ValueError(f"expected {len(sources)} inputs, got {len(inputs)}")
    return {s: source_distribution(x) for s, x in zip(sources, inputs)}


# ---------------------------------------------------------------------------
# exact sweep over the live-edge joint distribution


@dataclass
class OracleResult:
    compiled: CompiledProtocol
    edge_marginals: dict[int, dict[Letter, object]]
    fork_joints: dict[str, dict[tuple, object]]
    sink_mixtures: dict[str, dict[Letter, object]]

    def sink_state(self, sink: str) -> np.ndarray:
        return qmath.mixture_matrix(self.sink_mixtures[sink])


def _source_kernel(law: dict) -> Kernel:
    """A source's letter law over its own total.  Float probabilities
    (vector or density-matrix inputs) convert exactly, and dividing by
    their exact sum rather than 1 makes the law sum to exactly 1, so edges
    that do not depend on the source keep their exact values."""
    law = [(z, Fraction(w)) for z, w in law.items() if w]
    scale = lcm(*(w.denominator for _, w in law))
    row = tuple(((z,), w.numerator * (scale // w.denominator)) for z, w in law)
    return Kernel(sum(n for _, n in row), (row,))


def _sweep_step(dist: dict, in_shifts: tuple, table) -> tuple[dict, list]:
    """Apply one node to the live-edge distribution.

    Keys pack the letter of each live edge into its 2-bit field; table[i]
    lists (output field bits, numerator) for input index i.  Returns the new
    distribution, with the node's input fields cleared, and the mass that
    entered each input index.
    """
    new: dict = defaultdict(int)
    mass = [0] * len(table)
    if len(in_shifts) == 1:
        sh = in_shifts[0]
        keep = ~(3 << sh)
        for key, p in dist.items():
            i = key >> sh & 3
            mass[i] += p
            base = key & keep
            for bits, n in table[i]:
                new[base | bits] += p * n
    else:
        sh1, sh2 = in_shifts
        keep = ~(3 << sh1 | 3 << sh2)
        for key, p in dist.items():
            i = (key >> sh1 & 3) << 2 | key >> sh2 & 3
            mass[i] += p
            base = key & keep
            for bits, n in table[i]:
                new[base | bits] += p * n
    return new, mass


def simulate_oracle(
    compiled: CompiledProtocol, inputs, max_branches: int = MAX_ORACLE_BRANCHES
) -> OracleResult:
    """Exact distribution sweep; ground truth for the other two modes.

    Tracks the joint distribution of letters on live edges (created, not
    yet consumed), so memory scales with 4^(frontier width), not network
    size.  Walks `compiled.sweep_plan`, which orders the nodes to keep that
    width small.  Weights are Python-int numerators over one running
    denominator, multiplied by each node's kernel denominator.  Values are
    floats at every node that follows a vector or density-matrix source in
    `compiled.order`.  Raises SizeError, before sweeping, when the plan's
    peak of 4^(live edges) exceeds max_branches; Monte Carlo still works
    there.
    """
    plan = compiled.sweep_plan
    laws = _resolve_inputs(compiled, inputs)
    source_kernels = {s: _source_kernel(law) for s, law in laws.items()}
    if plan.predicted_branches > max_branches:
        raise SizeError(
            f"oracle frontier at node {plan.peak_node} could reach "
            f"{plan.predicted_branches} branches, over the limit of {max_branches}; "
            "use Monte Carlo for this network"
        )
    vectors = [compiled.order.index(s) for s, law in laws.items()
               if any(isinstance(w, float) for w in law.values())]
    floats = set(compiled.order[min(vectors):]) if vectors else set()

    dist: dict[int, int] = {0: 1}
    den = 1
    marginals: dict[int, dict] = {}
    fork_joints: dict[str, dict] = {}
    sink_mixtures: dict[str, dict] = {}
    for step in plan.steps:
        op = step.op
        as_value = truediv if op.node in floats else Fraction
        if op.tag == SOURCE_TTR:
            kernel = source_kernels[op.node]
            table = [[(z << step.in_shifts[0], n) for (z,), n in kernel.rows[0]]]
        else:
            kernel, table = op.kernel, step.table
        dist, mass = _sweep_step(dist, step.in_shifts, table)
        if op.tag == SINK_NOOP:
            sink_mixtures[op.node] = {u: as_value(m, den) for u, m in enumerate(mass) if m}
            continue
        den *= kernel.den
        joint: dict = defaultdict(int)
        for m, row in zip(mass, kernel.rows):
            if m:
                for out, n in row:
                    joint[out] += m * n
        for j, e in enumerate(step.out_edges):
            marg: dict = defaultdict(int)
            for out, n in joint.items():
                marg[out[j]] += n
            marginals[e] = {z: as_value(n, den) for z, n in marg.items()}
        if op.tag == FORK_EFC:
            fork_joints[op.node] = {pair: as_value(n, den) for pair, n in joint.items()}
    return OracleResult(compiled, marginals, fork_joints, sink_mixtures)


def enumerate_branches(
    compiled: CompiledProtocol, inputs, max_branches: int = MAX_FULL_BRANCHES
) -> dict[tuple, object]:
    """Full joint distribution over all edge letters, keyed by edge index.

    Exponential in the edge count; use only on tiny networks, as a
    cross-check of the live-edge sweep.
    """
    net = compiled.d3.network
    laws = _resolve_inputs(compiled, inputs)
    group = compiled.d3.group
    seen: list[int] = []  # edge ids in creation order
    dist: dict[tuple, object] = {(): Fraction(1)}
    for v in compiled.order:
        op = compiled.ops[v]
        in_pos = [seen.index(e) for e in net.in_edges(v)]
        out_edges = net.out_edges(v)
        if len(dist) * 16 > max_branches:
            raise SizeError(f"branch count would exceed {max_branches}")
        new_dist: dict[tuple, object] = {}
        for key, p in dist.items():
            if op.tag == SOURCE_TTR:
                law = [((z,), w) for z, w in laws[v].items()]
            elif op.tag == JOIN:
                law = [
                    ((y,), w)
                    for y, w in join_branch_law(
                        group, key[in_pos[0]], key[in_pos[1]]
                    ).items()
                ]
            elif op.tag == FORK_EFC:
                law = list(fork_branch_law(op, key[in_pos[0]]).items())
            elif op.tag == SINK_NOOP:
                law = [((), Fraction(1))]
            else:
                law = [
                    ((y,), w)
                    for y, w in transform_branch_law(op, key[in_pos[0]]).items()
                ]
            for out_letters, w in law:
                nk = key + out_letters
                q = p * w
                new_dist[nk] = new_dist.get(nk, Fraction(0)) + q
        dist = new_dist
        seen.extend(out_edges)
    reorder = [seen.index(e) for e in range(len(net.edges))]
    return {tuple(key[i] for i in reorder): p for key, p in dist.items()}


# ---------------------------------------------------------------------------
# analytic shortcut


@dataclass(frozen=True)
class AnalyticReport:
    """Per-sink predictions read directly off the compiled shrink factors.

    fidelity_floor is the guessing fidelity against an arbitrary unknown
    input state, 1/2 + alpha/6; fidelity_tetra applies when the tracked
    source is fed a tetra label (conditioned process), 1/2 + alpha/2, and
    is only present for all-letter inputs.
    """

    sink_alphas: dict[str, Fraction]
    fidelity_floor: dict[str, Fraction]
    decoded: dict[str, Letter] | None
    sink_mixtures: dict[str, dict] | None
    fidelity_tetra: dict[str, Fraction] | None


def simulate_analytic(compiled: CompiledProtocol, inputs=None) -> AnalyticReport:
    """Sink mixtures and fidelities without enumeration.

    Valid for networks that satisfy their delivery requirement.  Inputs
    are checked as in every simulator; decoded letters, letter mixtures and
    tetra-input fidelities need all of them to be letters, else are None.
    """
    net = compiled.d3.network
    alphas = compiled.sink_alphas
    floor = {t: Fraction(1, 2) + a / 6 for t, a in alphas.items()}
    decoded = mixtures = tetra = None
    laws = {} if inputs is None else _resolve_inputs(compiled, inputs)
    # a letter's law, and only a letter's, is a point mass
    letters = [z for law in laws.values() if len(law) == 1 for z in law]
    if laws and len(letters) == len(laws):
        by_sink = dict(zip(net.sink_ids, evaluate(compiled.d3, None, letters)))
        by_source = dict(zip(net.source_ids, letters))
        decoded, mixtures, tetra = {}, {}, {}
        for t in net.sink_ids:
            a = alphas[t]
            decoded[t] = by_sink[t]
            mixtures[t] = qmath.tetra_weights(ShrunkState(by_sink[t], a))
            want = by_source[net.requirements[t]]
            hit = Fraction(1) if by_sink[t] == want else Fraction(1, 3)
            tetra[t] = a * hit + (1 - a) / 2
    return AnalyticReport(alphas, floor, decoded, mixtures, tetra)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class MonteCarloResult:
    compiled: CompiledProtocol
    trials: int
    seed: int
    sink_counts: dict[str, np.ndarray]

    def sink_probs(self, sink: str) -> np.ndarray:
        return self.sink_counts[sink] / self.trials


def alias_table(kernel: Kernel) -> tuple[int, np.ndarray, np.ndarray]:
    """Vose alias tables for every row of a kernel, laid out flat.

    With K = 4^(output letters) outcome slots, slot k of row i sits at
    j = i*K + k, and outcome k packs the output letters two bits each,
    first letter highest.  A draw lands in slot k with probability 1/K and
    keeps k with probability prob[j], else takes the slot's alias;
    outcomes[j] holds (k, alias).  The tables are built on exact integers,
    so the only rounding is one true division per slot (Vose, IEEE TSE
    17(9), 1991).  Returns (log2 K, prob, outcomes).
    """
    width = len(kernel.rows[0][0][0])
    size, den = 4**width, kernel.den
    slot = {out: k for k, out in enumerate(product(LETTERS, repeat=width))}
    prob: list[float] = []
    alias: list[int] = []
    for row in kernel.rows:
        # slot weights scaled by K, so each slot holds exactly den on average
        w = [0] * size
        for out, n in row:
            w[slot[out]] = n * size
        p, a = [1.0] * size, list(range(size))
        small = [k for k in range(size) if w[k] < den]
        large = [k for k in range(size) if w[k] >= den]
        while small:
            k, big = small.pop(), large.pop()
            p[k], a[k] = w[k] / den, big
            w[big] -= den - w[k]
            (small if w[big] < den else large).append(big)
        prob += p
        alias += a
    outcomes = np.column_stack((np.arange(len(alias)) % size, alias)).astype(np.uint8)
    return 2 * width, np.array(prob), outcomes


def simulate_montecarlo(
    compiled: CompiledProtocol,
    inputs,
    trials: int,
    seed: int = 0,
    chunk_size: int = 1 << 16,
) -> MonteCarloResult:
    """Sample full protocol runs and tally the letters reaching each sink.

    Every node, sources included, makes one alias draw per trial from its
    compiled kernel (a source from its input's law): one uniform picks the
    slot and decides between it and its alias.  Edge letters are uint8
    arrays, freed as soon as their consumer has read them.  Trials are
    processed in chunks; chunk c uses the substream spawned from (seed, c),
    so a given (seed, chunk_size) pair reproduces exactly.
    """
    for name, value in (("trials", trials), ("chunk_size", chunk_size)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value <= 0:
            raise ValueError(f"{name} must be a positive int, got {value!r}")
    net = compiled.d3.network
    laws = _resolve_inputs(compiled, inputs)
    tables: dict[Kernel, tuple] = {}  # nodes with equal laws share a kernel
    steps = []
    for v in compiled.order:
        op = compiled.ops[v]
        if op.tag == SINK_NOOP:
            table = None
        else:
            kernel = _source_kernel(laws[v]) if op.tag == SOURCE_TTR else op.kernel
            if kernel not in tables:
                tables[kernel] = alias_table(kernel)
            table = tables[kernel]
        steps.append((v, net.in_edges(v), net.out_edges(v), table))

    counts = {t: np.zeros(4, dtype=np.int64) for t in net.sink_ids}
    n_chunks = (trials + chunk_size - 1) // chunk_size
    for c in range(n_chunks):
        n = min(chunk_size, trials - c * chunk_size)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        letters: dict[int, np.ndarray] = {}
        for v, in_edges, out_edges, table in steps:
            ins = [letters.pop(e) for e in in_edges]
            if table is None:
                counts[v] += np.bincount(ins[0], minlength=4)
                continue
            shift, prob, outcomes = table
            u = rng.random(n)
            u *= 1 << shift  # exact: a power of two
            j = u.astype(np.uint8)
            u -= j
            if ins:
                row = ins[0] if len(ins) == 1 else ins[0] << 2 | ins[1]
                j |= row << shift
            out = outcomes.take(j << 1 | (u >= prob.take(j)))
            if len(out_edges) == 1:
                letters[out_edges[0]] = out
            else:
                letters[out_edges[0]] = out >> 2
                letters[out_edges[1]] = out & 3
    return MonteCarloResult(compiled, trials, seed, counts)


# ---------------------------------------------------------------------------
# figures of merit


def guess_fidelities(target) -> np.ndarray:
    """Fidelity of each prepared tetra state against the delivery target.

    The target is a pure state vector (an array, list or tuple), or else a
    letter (`as_letter`): fidelity 1 on the matching state, 1/3 on the
    others.
    """
    if isinstance(target, (np.ndarray, list, tuple)):
        vec = np.asarray(target, dtype=complex)
        return np.array([qmath.fidelity(vec, qmath.tetra_matrix(z)) for z in LETTERS])
    target = as_letter(target)
    return np.array([1.0 if z == target else 1 / 3 for z in LETTERS])


def mixture_fidelity(mixture: dict, target) -> object:
    """Fidelity of a letter mixture against a delivery target; exact when
    both the mixture and the target are exact.  Targets as in
    `guess_fidelities`."""
    if isinstance(target, (np.ndarray, list, tuple)):
        f = guess_fidelities(target)
        return float(sum(float(p) * f[z] for z, p in mixture.items()))
    target = as_letter(target)
    return sum(p * (1 if z == target else Fraction(1, 3)) for z, p in mixture.items())


def estimate_fidelity(counts: np.ndarray, trials: int, target) -> tuple[float, float]:
    """Point estimate and standard error of the sink fidelity from sampled
    letter counts."""
    f = guess_fidelities(target)
    p = counts / trials
    est = float(p @ f)
    var = max(float(p @ (f * f)) - est * est, 0.0)
    return est, (var / trials) ** 0.5


def chi_square_statistic(counts: np.ndarray, probs) -> float:
    """Pearson statistic of observed letter counts against exact weights."""
    n = counts.sum()
    stat = 0.0
    for z in LETTERS:
        p = float(probs[z])
        if p == 0.0:
            if counts[z]:
                return float("inf")
            continue
        stat += (counts[z] - n * p) ** 2 / (n * p)
    return stat
