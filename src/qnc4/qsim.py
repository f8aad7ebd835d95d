"""Simulate compiled protocols three ways.

All three entry points agree on the semantics: every node measures its
incoming qubit(s) with the tetra measurement and prepares fresh tetra
states according to its transition law, so a protocol run is a
distribution over letter assignments to edges.

`simulate_oracle` computes that distribution exactly by sweeping the
network once, along `compiled.sweep_order`, and keeping the joint
distribution over the currently live edges only, merging histories that
agree there.  It keeps that joint as a product of factors, each a flat
list of integers over some live edges, laid out like a kernel row, and
its total: a node merges the factors that hold its inputs and applies its
compiled transition kernel (`QuantumOp.kernel`) in Python-int arithmetic,
then splits off every edge that an exact integer test proves independent
of the rest of its factor, and cancels each factor's gcd.  Values become
`Fraction`s when a marginal or fork joint is recorded, or floats
throughout when any source is given a state vector or density matrix; a
sink's mixture is a copy of its input edge's marginal.  It assumes nothing about independence across edges:
every split is proven, which is what lets its per-edge marginals serve as
ground truth.

The independent reference for the kernels, the per-node `Fraction` laws,
lives with the tests in `tests/_reference.py`.  `simulate_analytic` skips
enumeration entirely and reads sink mixtures off the compiled shrink
factors.  `simulate_montecarlo` samples trials in
vectorized chunks with deterministic, chunk-indexed substreams, from the
same verified kernels the sweep runs on: each node, sources included, makes
one draw per trial from Vose alias tables built off its kernel's rows
(`alias_table`), and each edge's letter array is freed once its consumer
has read it.  Up to MAX_WORKERS threads each sample a contiguous range of
at least a quarter chunk of trials, jumping each chunk's stream ahead to
the trials they own, with the same counts on any number of threads.

Only the float code imports numpy, inside the functions that handle
arrays: Monte Carlo with `alias_table`, `guess_fidelities` and the
estimates built on it, a fidelity against a state vector, and a source
given a state vector or density matrix.  Asking whether a value is an
array never imports numpy: no array can exist before it is imported.
The exact sweep and the analytic report run on the `Fraction` shrink
bookkeeping of `qnc4.shrink`, so the `qnc4` subcommands that print only
exact numbers never load numpy.  Nor does this module import `typing`,
which would add to every start-up.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm
from numbers import Integral
from operator import mul, truediv

from .errors import SizeError
from .netgraph import LETTERS, Letter, as_letter
from .classical_eval import evaluate
from .qcompiler import (
    FORK_EFC,
    SINK_NOOP,
    SOURCE_TTR,
    CompiledProtocol,
    Kernel,
)
from .shrink import ShrunkState, shrunk_probabilities, tetra_weights

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

MAX_ORACLE_BRANCHES = 4**10
CHUNK_SIZE = 1 << 16  # Monte Carlo trials per substream
# Monte Carlo threads per call, at most: on a call of several chunks each
# one beyond the first adds about 2.5 MB of peak memory, its work arrays and
# chunk temporaries, which is 6% of a sampling process; a third would make
# it 12%
MAX_WORKERS = 2


# ---------------------------------------------------------------------------
# per-node sampling laws, conditioned on the letters of the incoming states


def _is_array(value) -> bool:
    """Whether value is a numpy array.  None can exist before numpy is
    imported, so the exact path never needs to import it to ask."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def source_distribution(value) -> dict[Letter, object]:
    """Letter distribution a source emits for one input, which it checks.

    A letter (`as_letter`) means the conditioned process that prepares
    exactly that tetra state, a point mass; a ShrunkState yields exact
    statistics over all four letters, a normalized state vector or a
    density matrix float ones.  Raises ValueError on anything else.
    """
    if _is_array(value):
        import numpy as np

        from . import qmath

        if value.ndim == 1:
            value = qmath.as_state_vector(value)
            value = np.outer(value, value.conj())
        elif not qmath.is_density_matrix(value):
            raise ValueError("source matrix is not a single-qubit density matrix")
        probs = qmath.ttr_probabilities(value)
    elif isinstance(value, ShrunkState):
        probs = shrunk_probabilities(value)
    else:
        return {as_letter(value): Fraction(1)}
    return {z: probs[z] for z in LETTERS}


def _resolve_inputs(compiled: CompiledProtocol, inputs) -> dict[str, dict]:
    """Each source's letter law, by source id; this checks every input."""
    sources = compiled.d3.network.source_ids
    if len(inputs) != len(sources):
        raise ValueError(f"expected {len(sources)} inputs, got {len(inputs)}")
    return {s: source_distribution(x) for s, x in zip(sources, inputs)}


# ---------------------------------------------------------------------------
# exact sweep over a product of factors of the live-edge joint distribution


@dataclass
class OracleResult:
    """Every edge's letter marginal, every fork's joint over its two
    outputs and every sink's letter mixture; largest_factor is the most
    live edges any factor of the sweep held, counted before splitting."""

    edge_marginals: dict[int, dict[Letter, object]]
    fork_joints: dict[str, dict[tuple, object]]
    sink_mixtures: dict[str, dict[Letter, object]]
    largest_factor: int


def _source_kernel(law: dict) -> Kernel:
    """A source's letter law over its own total.  Float probabilities
    (vector or density-matrix inputs) convert exactly, and dividing by
    their exact sum rather than 1 makes the law sum to exactly 1, so edges
    that do not depend on the source keep their exact values."""
    law = [Fraction(law[z]) if z in law else 0 for z in LETTERS]
    scale = lcm(*(w.denominator for w in law))
    row = tuple(w.numerator * (scale // w.denominator) for w in law)
    return Kernel(sum(row), (row,))


# The joint law of some live edges, a tuple of edge ids: integer numerators
# `table` over their sum `total`, entry i for the edges' letters packed as
# in a `Kernel` row.
_Factor = namedtuple("_Factor", ("edges", "table", "total"))


def _cancelled(edges: tuple, table: list, total: int) -> _Factor:
    """A factor with the gcd of its numerators and its total cancelled."""
    g = gcd(total, *table)
    if g > 1:
        table = [n // g for n in table]
    return _Factor(edges, table, total // g)


def _runs(table: list, k: int, j: int) -> list[list]:
    """A table over k edges cut into runs over the edges after edge j: run
    m is where edge j has letter m % 4 and the edges before it m // 4."""
    s = 4 ** (k - 1 - j)
    return [table[m:m + s] for m in range(0, len(table), s)]


def _split(edges: tuple, table: list, total: int) -> list[_Factor]:
    """The factor over edges, with every edge that is proven independent of
    the others split off into a factor of its own.

    Edge j splits off when P(e, rest) * total == P(e) * P(rest) on every
    entry of the table, zeros included: the table is then exactly the
    product of edge j's marginal P(e) and the others' marginal P(rest).
    An edge that fails stays dependent on the others whatever splits off
    after it, so one pass finds them all.
    """
    factors = []
    j = 0
    while len(edges) > 1 and j < len(edges):
        runs = _runs(table, len(edges), j)
        own = [sum(map(sum, runs[z::4])) for z in LETTERS]
        rests = [[sum(col) for col in zip(*runs[m:m + 4])] for m in range(0, len(runs), 4)]
        if all(n * total == own[m & 3] * r
               for m, run in enumerate(runs) for n, r in zip(run, rests[m >> 2])):
            factors.append(_cancelled((edges[j],), own, total))
            edges, table = edges[:j] + edges[j + 1:], [r for rest in rests for r in rest]
        else:
            j += 1
    factors.append(_cancelled(edges, table, total))
    return factors


def _input_mass(held: list[_Factor], ins: tuple) -> tuple[list[list], int]:
    """The merged law of the factors that hold a node's input edges, as a
    list over the letters of the rest edges, in the factors' order, of the
    mass of each input index (the letter u, or 4 * u1 + u2 for a join; 0
    for a source, which holds nothing), and its total."""
    masses, total = None, 1
    for f in held:  # in the order of ins, so u1 comes out above u2
        k, rows = len(f.edges), [f.table]
        if k > 1:
            pos = [f.edges.index(e) for e in ins if e in f.edges]
            order = [j for j, e in enumerate(f.edges) if e not in ins] + pos
            table, size = f.table, 4 ** len(pos)
            if order != list(range(k)):  # move the input letters lowest
                shifts = [2 * (k - 1 - j) for j in order]
                table = [table[sum(z << s for z, s in zip(zs, shifts))]
                         for zs in product(LETTERS, repeat=k)]
            rows = [table[r:r + size] for r in range(0, len(table), size)]
        masses = rows if masses is None else [
            [a * b for a in m for b in row] for m in masses for row in rows]
        total *= f.total
    return masses or [[1]], total


def simulate_oracle(compiled: CompiledProtocol, inputs) -> OracleResult:
    """Exact distribution sweep; ground truth for the other two modes.

    Walks `compiled.sweep_order` and keeps the joint law of the letters on
    the live edges (created, not yet consumed) as a product of factors,
    each a dense integer table over a few live edges and its total.  A
    node merges the factors that hold its inputs and applies its kernel;
    the new factor then splits wherever `_split` proves an edge
    independent of the rest, every factor's gcd is cancelled, and each
    output edge's marginal is read off the factor that holds it.  Nothing
    about independence is assumed: with letter inputs every factor splits
    down to single edges after each node, while a vector source can keep
    factors merged.  Cost follows the largest factor, not the number of
    live edges; `largest_factor` reports its measured size.

    Every value is a Fraction when every input is exact (a letter or a
    ShrunkState), and a float when any source is given a state vector or
    density matrix; equal values share one object.  Only nonzero values
    are reported, keyed in letter order.  Raises SizeError, naming the
    node, when a factor about to be built could pass MAX_ORACLE_BRANCHES
    entries (4^(its edges)); Monte Carlo still works there.
    """
    laws = _resolve_inputs(compiled, inputs)
    floats = any(isinstance(w, float) for law in laws.values() for w in law.values())
    value = cache(truediv if floats else Fraction)  # one object per distinct value

    holder: dict[int, _Factor] = {}  # live edge -> the factor holding it
    largest = 0
    marginals: dict[int, dict] = {}
    fork_joints: dict[str, dict] = {}
    sink_mixtures: dict[str, dict] = {}
    net = compiled.d3.network
    for v in compiled.sweep_order:
        op, ins, outs = compiled.ops[v], net.in_edges(v), tuple(net.out_edges(v))
        held: list[_Factor] = []
        for e in ins:
            f = holder.pop(e)
            if not any(f is g for g in held):
                held.append(f)
        rest = tuple(e for f in held for e in f.edges if e not in ins)
        width = len(rest) + max(len(ins), len(outs))
        if 4**width > MAX_ORACLE_BRANCHES:
            raise SizeError(
                f"oracle frontier at node {op.node} could reach {4**width} branches, "
                f"over the limit of {MAX_ORACLE_BRANCHES}; use Monte Carlo for this network"
            )
        largest = max(largest, width)
        masses, total = _input_mass(held, ins)
        if op.tag == SINK_NOOP:
            sink_mixtures[op.node] = dict(marginals[ins[0]])
            if not rest:
                continue
            factors = _split(rest, [sum(m) for m in masses], total)
        else:
            kernel = _source_kernel(laws[op.node]) if op.tag == SOURCE_TTR else op.kernel
            cols = list(zip(*kernel.rows))
            den = total * kernel.den
            table = [sum(map(mul, m, col)) for m in masses for col in cols]
            if op.tag == FORK_EFC:  # the outputs' 16 entries repeat over the rest's letters
                joint = enumerate(table if not rest else [sum(table[k::16]) for k in range(16)])
                fork_joints[op.node] = {(k >> 2, k & 3): value(n, den) for k, n in joint if n}
            factors = _split(rest + outs, table, den)
        for f in factors:
            for e in f.edges:
                holder[e] = f
        for e in outs:
            f = holder[e]
            marg = f.table
            if len(f.edges) > 1:
                runs = _runs(marg, len(f.edges), f.edges.index(e))
                marg = [sum(map(sum, runs[z::4])) for z in LETTERS]
            marginals[e] = {z: value(n, f.total) for z, n in enumerate(marg) if n}
    return OracleResult(marginals, fork_joints, sink_mixtures, largest)


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
            decoded[t] = by_sink[t]
            mixtures[t] = tetra_weights(ShrunkState(by_sink[t], alphas[t]))
            tetra[t] = mixture_fidelity(mixtures[t], by_source[net.requirements[t]])
    return AnalyticReport(floor, decoded, mixtures, tetra)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class MonteCarloResult:
    trials: int
    seed: int
    sink_counts: dict[str, np.ndarray]


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
    import numpy as np

    size, den = len(kernel.rows[0]), kernel.den
    prob: list[float] = []
    alias: list[int] = []
    for row in kernel.rows:
        # slot weights scaled by K, so each slot holds exactly den on average
        w = [n * size for n in row]
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
    return size.bit_length() - 1, np.array(prob), outcomes


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def simulate_montecarlo(
    compiled: CompiledProtocol, inputs, trials: int, seed: int = 0
) -> MonteCarloResult:
    """Sample full protocol runs and tally the letters reaching each sink.

    Every node, sources included, makes one alias draw per trial from its
    compiled kernel (a source from its input's law): one uniform picks the
    slot and decides between it and its alias.  Edge letters are uint8
    arrays, freed as soon as their consumer has read them.  Trials are
    processed in chunks of CHUNK_SIZE; chunk c uses the substream spawned
    from (seed, c), so a seed, a non-negative int, reproduces its counts
    exactly.  A worker's uniforms, slot probabilities and intp indices live
    in three work arrays, each min(ceil(trials / W), CHUNK_SIZE) long,
    allocated once per worker and reused by every node and chunk.  Fresh
    arrays, and the intp copy numpy makes of a uint8 index array for `take`
    and `bincount`, would each come from new pages that the kernel
    zero-fills, about a quarter of the run.

    The trials are split among W = max(1, min(usable CPUs,
    trials // (CHUNK_SIZE // 4), MAX_WORKERS)) workers, the calling thread
    among them: worker k samples trials k * trials // W up to
    (k + 1) * trials // W and keeps its own sink counts, which the caller
    adds up.  A worker walks its range one piece of a chunk at a time; a
    piece of m trials from offset lo of chunk c (n trials) advances chunk
    c's PCG64 stream by lo, and at each node draws m uniforms and advances
    by n - m.  Every float64 takes one 64-bit output, so each trial gets
    the uniforms that drawing its chunk whole would give it, and the counts
    are the same on any number of threads.  A worker gets at least a
    quarter chunk, below which handing the interpreter lock back and forth
    on short numpy operations costs more than a second CPU gains; so a call
    of fewer than CHUNK_SIZE // 2 trials, or on one usable CPU, starts no
    thread.  When any worker fails, the others stop at their next piece,
    and its exception is raised once every thread has been joined, so a
    caller never gets partial counts.
    """
    # threading is loaded with numpy; concurrent.futures would add about
    # 0.7 MB of modules to a process that samples
    import threading

    import numpy as np

    if not isinstance(trials, Integral) or isinstance(trials, bool) or trials <= 0:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    trials, seed = int(trials), int(seed)  # PCG64.advance takes no numpy int
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

    workers = max(1, min(_usable_cpus(), trials // (CHUNK_SIZE // 4), MAX_WORKERS))
    bounds = [k * trials // workers for k in range(workers + 1)]
    size = min(-(-trials // workers), CHUNK_SIZE)
    # each worker's work arrays and sink counts, allocated before any trial runs
    work = [(np.empty(size), np.empty(size), np.empty(size, dtype=np.intp))
            for _ in range(workers)]
    tallies = [{t: np.zeros(4, dtype=np.int64) for t in net.sink_ids} for _ in range(workers)]

    # set when any worker fails, the calling one included (Ctrl-C), so that
    # the others stop at their next piece
    stop = threading.Event()

    def run(k: int) -> None:
        """Worker k's trials, bounds[k] up to bounds[k + 1], a piece of one
        chunk at a time."""
        work_u, work_p, work_i = work[k]
        counts = tallies[k]
        start, end = bounds[k], bounds[k + 1]
        while start < end and not stop.is_set():
            c, lo = divmod(start, CHUNK_SIZE)
            n = min(CHUNK_SIZE, trials - c * CHUNK_SIZE)
            m = min(n - lo, end - start)
            start += m
            u, p, i = work_u[:m], work_p[:m], work_i[:m]
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
            # every float64 takes one 64-bit output, so node by node the
            # piece draws the uniforms that the whole chunk would at lo..lo+m
            rng.bit_generator.advance(lo)
            letters: dict[int, np.ndarray] = {}
            for v, in_edges, out_edges, table in steps:
                ins = [letters.pop(e) for e in in_edges]
                if table is None:
                    np.copyto(i, ins[0])
                    counts[v] += np.bincount(i, minlength=4)
                    continue
                shift, prob, outcomes = table
                rng.random(out=u)
                rng.bit_generator.advance(n - m)
                u *= 1 << shift  # exact: a power of two
                j = u.astype(np.uint8)
                u -= j
                if ins:
                    row = ins[0] if len(ins) == 1 else ins[0] << 2 | ins[1]
                    j |= row << shift
                np.copyto(i, j)
                prob.take(i, out=p)
                i <<= 1
                i |= u >= p
                out = outcomes.take(i)
                if len(out_edges) == 1:
                    letters[out_edges[0]] = out
                else:
                    letters[out_edges[0]] = out >> 2
                    letters[out_edges[1]] = out & 3

    errors: list[BaseException] = []

    def guarded(k: int) -> None:
        try:
            run(k)
        except BaseException as e:  # raised by the caller, below
            errors.append(e)
            stop.set()

    threads = []
    try:
        for k in range(1, workers):
            t = threading.Thread(target=guarded, args=(k,))
            t.start()
            threads.append(t)
        run(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    counts = tallies[0]
    for more in tallies[1:]:
        for t, c in more.items():
            counts[t] += c
    return MonteCarloResult(trials, seed, counts)


# ---------------------------------------------------------------------------
# figures of merit


def guess_fidelities(target) -> np.ndarray:
    """Fidelity of each prepared tetra state against the delivery target.

    The target is a pure state vector (an array, list or tuple, checked by
    `qmath.as_state_vector`), or else a letter (`as_letter`): fidelity 1
    on the matching state, 1/3 on the others.
    """
    import numpy as np

    from . import qmath

    if isinstance(target, (np.ndarray, list, tuple)):
        vec = qmath.as_state_vector(target)
        return np.array([qmath.fidelity(vec, qmath.tetra_matrix(z)) for z in LETTERS])
    target = as_letter(target)
    return np.array([1.0 if z == target else 1 / 3 for z in LETTERS])


def mixture_fidelity(mixture: dict, target) -> object:
    """Fidelity of a letter mixture against a delivery target; exact when
    both the mixture and the target are exact.  Targets as in
    `guess_fidelities`."""
    if _is_array(target) or isinstance(target, (list, tuple)):
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
