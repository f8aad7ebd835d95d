"""The four workloads, and one verified pass over each.

A pass takes every instance of the workload through load, validation,
the delivery check, normalization and compilation, then runs the analytic
report, the exact sweep and Monte Carlo on the workload's input tuples,
checks every result exactly (or, for sampled counts, with the gates of
`qnc4 report`), and ends with one `qnc4 report` child process.

Input tuples for the exact sweep and the analytic report are drawn from
the benchmark seed and the pass index.  Monte Carlo always samples a fixed
list of (instance, input tuple) pairs with stream seed 0, as `qnc4 report`
does by default: the outcome of each sampled check is then a fixed property
of the program, the same in every run, instead of a fresh 1-in-270 chance
of a false miss per check in every run.
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import ladders

BUNDLED = ("butterfly", "butterfly-z4", "two-to-one-diamond", "single-edge")

# gates of `qnc4 report`: chi-square with 3 degrees of freedom at
# significance 0.001, and the fidelity estimate within 3 standard errors
CHI2_LIMIT = 16.266
CHI2_FALSE_MISS = 0.001
SE_LIMIT = 3.0
SE_FALSE_MISS = math.erfc(SE_LIMIT / math.sqrt(2))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # instance name -> (generator, size); None reads the bundled JSON
    instances: dict
    # instance name -> exact sweeps per pass, on seed-drawn input tuples
    exact: dict
    # instance name -> (fixed input letters, trials) for Monte Carlo
    sampled: dict
    # arguments of the `qnc4 report` child; "{name}" is replaced by the path
    # of that instance's JSON and "{inputs:name}" by a seed-drawn tuple
    cli: tuple
    # runs of the pipeline per instance and pass, and of the `qnc4 report`
    # child per pass: more where they are a small share of a long pass, so
    # that pipeline_s and cli_report_s have enough samples
    pipelines: int = 1
    clis: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled-exact",
            "the path users take to verify a network: bundled instances, exact "
            "sweep on seed-drawn inputs, checked against the analytic mixture",
            {n: None for n in BUNDLED},
            {"butterfly": 2, "butterfly-z4": 2, "two-to-one-diamond": 1,
             "single-edge": 1},
            {"two-to-one-diamond": ((2,), 1_000_000)},
            ("report", "butterfly", "--inputs", "01,10"),
            pipelines=3,
            clis=4,
        ),
        Workload(
            "bundled-sampled",
            "few nodes and many trials, so per-trial draws dominate; the exact "
            "sweep runs only on the small diamond, so an exact-sweep change "
            "barely moves it",
            {n: None for n in BUNDLED},
            {"two-to-one-diamond": 20},
            {
                "butterfly": ((1, 2), 400_000),
                "butterfly-z4": ((3, 1), 400_000),
                "two-to-one-diamond": ((1,), 400_000),
                "single-edge": ((3,), 400_000),
            },
            ("report", "butterfly", "--inputs", "01,10", "--trials", "1000000"),
            pipelines=3,
        ),
        Workload(
            "ladder-wide",
            "side-by-side gadgets whose exact-sweep frontier is wide only "
            "because of the processing order",
            {
                "diamond_stack-1": ("diamond_stack", 1),
                "diamond_stack-2": ("diamond_stack", 2),
                "butterfly_stack-1": ("butterfly_stack", 1),
            },
            {"diamond_stack-1": 2, "diamond_stack-2": 2, "butterfly_stack-1": 2},
            {"diamond_stack-1": ((0,), 600_000)},
            ("report", "{diamond_stack-1}", "--inputs", "{inputs:diamond_stack-1}"),
            pipelines=3,
            clis=4,
        ),
        Workload(
            "ladder-deep",
            "series chains with large exact rationals, many distinct shrink "
            "factors to compile and many nodes per Monte Carlo trial",
            {
                "relay_chain-4": ("relay_chain", 4),
                "relay_chain-16": ("relay_chain", 16),
                "diamond_chain-3": ("diamond_chain", 3),
                "diamond_chain-5": ("diamond_chain", 5),
            },
            {"relay_chain-4": 1, "relay_chain-16": 2, "diamond_chain-3": 1,
             "diamond_chain-5": 1},
            {"relay_chain-4": ((0,), 60_000), "relay_chain-16": ((0,), 60_000)},
            ("report", "{diamond_chain-5}", "--inputs", "{inputs:diamond_chain-5}"),
        ),
    )
}


def letter_str(x: int) -> str:
    return format(x, "02b")


# ---------------------------------------------------------------------------
# setup


def write_instances(w: Workload, seed: int, workdir: Path, data_dir: Path) -> dict:
    """Generate (or copy) every instance of `w` as JSON into `workdir`.

    Returns {instance name: path}.  The seed picks the group and the letter
    relabellings of the generated ladders.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"instances:{seed}")
    paths = {}
    for name, spec in w.instances.items():
        if spec is None:
            text = (data_dir / f"{name}.json").read_text()
        else:
            gen, size = spec
            text = json.dumps(ladders.GENERATORS[gen](size, rng), indent=1)
        path = workdir / f"{name}.json"
        path.write_text(text)
        paths[name] = path
    return paths


def cli_args(w: Workload, paths: dict, n_sources: dict, rng) -> list[str]:
    out = []
    for a in w.cli:
        if a.startswith("{inputs:"):
            name = a[len("{inputs:"):-1]
            out.append(",".join(letter_str(rng.randrange(4)) for _ in range(n_sources[name])))
        elif a.startswith("{"):
            out.append(str(paths[a[1:-1]]))
        else:
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """Runs one verified pass of a workload against the qnc4 API.

    `q` is the imported qnc4 package; everything the program computes is
    reached through its public modules.
    """

    def __init__(self, q, w: Workload, paths: dict, rec, root: Path, seed: int):
        self.q = q
        self.w = w
        self.paths = paths
        self.rec = rec
        self.root = root
        self.seed = seed
        self.n_sources: dict = {}
        # (instance, sink) pairs checked; every pass repeats the same draws
        self.mc_checks: set = set()

    def run(self, index: int) -> None:
        rng = random.Random(f"inputs:{self.seed}:{index}")
        for name in self.w.instances:
            self.rec.operation(f"p{index}/{name}")
            failed = self.rec.failed
            try:
                for _ in range(self.w.pipelines):
                    compiled = self.pipeline(name)
            except Exception as e:
                if self.rec.failed == failed:  # not raised inside a timed call
                    self.rec.fail(f"{type(e).__name__}: {e}")
                continue
            n = len(compiled.d3.network.source_ids)
            self.n_sources[name] = n
            tuples = [
                tuple(rng.randrange(4) for _ in range(n))
                for _ in range(self.w.exact.get(name, 0))
            ]
            for tup in tuples:
                self._exact(name, compiled, tup, index)
            if name in self.w.sampled:
                letters, trials = self.w.sampled[name]
                self.monte_carlo(name, compiled, letters, trials, index)
        for _ in range(self.w.clis):
            self.rec.operation(f"p{index}/cli")
            self._cli(cli_args(self.w, self.paths, self.n_sources, rng))

    # -- stages ----------------------------------------------------------------

    def pipeline(self, name: str):
        q, rec = self.q, self.rec
        with rec.call("netgraph.load"):
            with open(self.paths[name]) as fh:
                net, proto = q.netgraph.instance_from_json(json.load(fh))
        with rec.call("netgraph.validate"):
            report = q.netgraph.validate_network(net, proto)
        rec.check(report.ok, f"{name} fails validation: {report.violations}")
        with rec.call("classical_eval.requirement"):
            req = q.classical_eval.check_requirement(net, proto)
        rec.check(req.ok, f"{name} misses delivery on {req.counterexample}")
        rec.count("classical_eval.rows", 4 ** len(net.source_ids))
        with rec.call("netgraph.normalize"):
            d3, _ = q.netgraph.normalize_to_d3(net, proto)
        rec.count("netgraph.d3_nodes", len(d3.network.nodes))
        with rec.call("qcompiler.compile"):
            compiled = q.compile_protocol(d3)
        rec.count("qcompiler.verified_laws", len(compiled.notes))
        bits = max(op.alpha.denominator.bit_length() for op in compiled.ops.values())
        counts = rec.passes[-1]["counts"]
        counts["qcompiler.alpha_bits"] = max(counts.get("qcompiler.alpha_bits", 0), bits)
        return compiled

    def _analytic(self, name: str, compiled, tup):
        """Analytic report for one tuple, checked against delivery: every
        sink decodes its required letter at the compiled shrink."""
        q, rec = self.q, self.rec
        net = compiled.d3.network
        with rec.call("qsim.analytic"):
            rep = q.simulate_analytic(compiled, list(tup))
        by_source = dict(zip(net.source_ids, tup))
        for t in net.sink_ids:
            want = by_source[net.requirements[t]]
            expect = q.tetra_weights(q.ShrunkState(want, compiled.sink_alphas[t]))
            rec.check(
                rep.decoded[t] == want and rep.sink_mixtures[t] == expect,
                f"{name}{tup}: analytic report at {t} is not the shrunk required letter",
            )
        return rep

    def _exact(self, name: str, compiled, tup, index: int) -> None:
        q, rec = self.q, self.rec
        rec.operation(f"p{index}/{name}/{''.join(map(letter_str, tup))}")
        try:
            rep = self._analytic(name, compiled, tup)
            with rec.call("qsim.oracle"):
                res = q.simulate_oracle(compiled, list(tup))
        except Exception:
            return
        rec.count("qsim.oracle.sweeps", 1)
        peak, bound = frontier(compiled)
        counts = rec.passes[-1]["counts"]
        counts["qsim.oracle.peak_live"] = max(counts.get("qsim.oracle.peak_live", 0), peak)
        rec.count("qsim.oracle.frontier_bound", bound)
        with rec.check_span("check.exact"):
            self._check_exact(name, compiled, tup, rep, res)

    def _check_exact(self, name, compiled, tup, rep, res) -> None:
        q, rec = self.q, self.rec
        net = compiled.d3.network
        where = f"{name}{tup}"
        for t in net.sink_ids:
            got = res.sink_mixtures.get(t, {})
            rec.check(
                all(got.get(z, 0) == rep.sink_mixtures[t][z] for z in range(4)),
                f"{where}: exact mixture at {t} differs from the analytic one",
            )
        z = q.classical_eval.edge_values(compiled.d3, None, list(tup))
        for e in range(len(net.edges)):
            expect = q.tetra_weights(q.ShrunkState(z[e], compiled.edge_alpha(e)))
            got = res.edge_marginals.get(e, {})
            rec.check(
                all(got.get(x, 0) == expect[x] for x in range(4)),
                f"{where}: marginal of edge {e} is not the shrunk classical letter",
            )
        for v, joint in res.fork_joints.items():
            e1, e2 = net.out_edges(v)
            m1, m2 = res.edge_marginals[e1], res.edge_marginals[e2]
            rec.check(
                all(joint.get((a, b), 0) == m1.get(a, 0) * m2.get(b, 0)
                    for a in range(4) for b in range(4)),
                f"{where}: fork {v} output is not the product of its marginals",
            )

    def monte_carlo(self, name: str, compiled, letters, trials: int, index: int) -> None:
        q, rec = self.q, self.rec
        rec.operation(f"p{index}/{name}/{''.join(map(letter_str, letters))}/mc")
        try:
            rep = self._analytic(name, compiled, letters)
            with rec.call("qsim.montecarlo"):
                mc = q.simulate_montecarlo(compiled, list(letters), trials, seed=0)
        except Exception:
            return
        net = compiled.d3.network
        rec.count("qsim.montecarlo.trials", trials)
        rec.count("qsim.montecarlo.node_trials", trials * len(net.nodes))
        by_source = dict(zip(net.source_ids, letters))
        with rec.check_span("check.montecarlo"):
            for t in net.sink_ids:
                exact = rep.sink_mixtures[t]
                stat = q.qsim.chi_square_statistic(
                    mc.sink_counts[t], [float(exact[z]) for z in range(4)]
                )
                want = by_source[net.requirements[t]]
                est, se = q.estimate_fidelity(mc.sink_counts[t], mc.trials, want)
                target = float(rep.fidelity_tetra[t])
                self.mc_checks.add((name, t))
                rec.check(stat < CHI2_LIMIT, f"{name} {t}: chi2 {stat:.2f}")
                rec.check(
                    abs(est - target) <= max(SE_LIMIT * se, 1e-9),
                    f"{name} {t}: fidelity {est:.6f} not within 3 se of {target:.6f}",
                )

    def _cli(self, args: list[str]) -> None:
        rec = self.rec
        cmd = [sys.executable, "-m", "qnc4"] + args
        with rec.call("cli.report", profiled=False):
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(self.root),
                timeout=120,
            )
        lines = proc.stdout.splitlines()
        rec.check(
            proc.returncode == 0 and lines and all(ln.startswith("PASS ") for ln in lines),
            f"qnc4 {' '.join(args)} exited {proc.returncode}: "
            f"{(proc.stdout + proc.stderr).strip()[-300:]}",
        )


def child_env(root: Path) -> dict:
    """Environment for a child process that imports qnc4 from this checkout."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QNC_LOG", None)
    return env


def frontier(compiled) -> tuple[int, int]:
    """Peak live-edge count along `compiled.order`, and the sum of
    4^(live edges) after each node: the branch count the exact sweep can
    reach, computed from the order and the edge lists alone."""
    net = compiled.d3.network
    live: set = set()
    peak = bound = 0
    for v in compiled.order:
        live.difference_update(net.in_edges(v))
        live.update(net.out_edges(v))
        peak = max(peak, len(live))
        bound += 4 ** len(live)
    return peak, bound


def mc_false_misses(sinks: int) -> float:
    """Expected number of sampled checks a correct program still misses,
    with the two gates applied at each of `sinks` sampled sinks."""
    return sinks * (CHI2_FALSE_MISS + SE_FALSE_MISS)

