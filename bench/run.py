"""qnc4 benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload bundled-exact --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; qnc4 is imported from its `src/`.  The
run repeats verified passes over the workload for --seconds and prints
every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics; --trace 1 gives the per-layer ones, from an untraced
half and a traced half (spans and module profiles) of the same length.
Times are scaled to a fixed host speed (see tracing.py).  It exits 1 when
any operation fails its check and 2 when qnc4 cannot be imported from the
checkout.  See bench/README.md.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from record import machine, tier1
from tracing import MODULES, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# fresh processes timed for setup_s, and for cli.import_s
SETUP_PROBES = 7
IMPORT_PROBES = 3

PIPELINE = (
    "netgraph.load", "netgraph.validate", "classical_eval.requirement",
    "netgraph.normalize", "qcompiler.compile",
)
LAYER_TIMES = PIPELINE + ("qsim.analytic", "qsim.oracle", "qsim.montecarlo")
# counts the pipeline adds to at each run
PIPELINE_COUNTS = ("qcompiler.verified_laws", "netgraph.d3_nodes", "classical_eval.rows")


def import_qnc4():
    """Import qnc4 from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qnc4
    except ImportError as e:
        print(f"error: cannot import qnc4 from {ROOT / 'src'}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(qnc4.__file__).resolve().parent != (ROOT / "src" / "qnc4").resolve():
        print(f"error: qnc4 was imported from {qnc4.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)
    return qnc4


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else median(xs)


# ---------------------------------------------------------------------------
# probes in fresh processes


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time from spawning a fresh benchmark process until its set-up
    (import qnc4, generate and write the instances) reports ready, with
    the perf_counter() at its middle, for scaling."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return t0 + dt / 2, dt


def time_import(env: dict) -> tuple[float, float]:
    """Wall time of a child that only imports qnc4, like time_setup."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qnc4"], env=env, check=True, timeout=60)
    dt = time.perf_counter() - t0
    return t0 + dt / 2, dt


# ---------------------------------------------------------------------------
# measured passes


def run_passes(runner, seconds: float, between=None) -> None:
    """Verified passes, numbered from 0, until `seconds` have elapsed (at
    least one).  `between(elapsed)` runs after each pass, outside it."""
    t0 = time.perf_counter()
    index = 0
    while True:
        runner.rec.begin_pass(index)
        runner.run(index)
        runner.rec.end_pass()
        index += 1
        elapsed = time.perf_counter() - t0
        if between:
            between(elapsed)
        if elapsed >= seconds:
            runner.rec.finish()
            return


def total(rec, key: str, names) -> float:
    """Sum of `key` ("layer_s", "raw_layer_s" or "counts") entries over
    every pass."""
    return sum(p[key].get(x, 0) for p in rec.passes for x in names)


def per_pass(rec, key: str, names) -> float:
    return total(rec, key, names) / len(rec.passes)


def rate(rec, count: str, layers) -> float:
    t = total(rec, "layer_s", layers)
    return total(rec, "counts", (count,)) / t if t else 0.0


def samples(rec, layer: str) -> list:
    return [x for p in rec.passes for x in p["samples"].get(layer, [])]


def pass_medians(rec, w, layer_key: str = "layer_s", pass_key: str = "pass_s") -> dict:
    """Medians over the passes of each pass's time, sweep rate, trial rate
    and pipeline time.  A median, unlike a mean, ignores the few passes in
    which the host's speed changed more than the reference probes saw."""
    def rate(p, count: str, layers) -> float:
        t = sum(p[layer_key].get(x, 0) for x in layers)
        return p["counts"].get(count, 0) / t if t else 0.0
    ps = rec.passes
    return {
        "pass_s": median([p[pass_key] for p in ps]),
        "exact_inputs_per_s": median(
            [rate(p, "qsim.oracle.sweeps", ("qsim.oracle", "check.exact")) for p in ps]),
        "mc_trials_per_s": median(
            [rate(p, "qsim.montecarlo.trials", ("qsim.montecarlo",)) for p in ps]),
        "pipeline_s": median(
            [sum(p[layer_key].get(x, 0) for x in PIPELINE) for p in ps]) / w.pipelines,
    }


def end_to_end(rec, setup: list, w) -> dict:
    """The end-to-end metrics, from times scaled to the fixed host speed
    (see tracing.py)."""
    cli = samples(rec, "cli.report")
    n = len(rec.passes)
    m = pass_medians(rec, w)
    return {
        "setup_s": (median(setup), "s", len(setup)),
        "pass_s": (m["pass_s"], "s", n),
        "exact_inputs_per_s": (m["exact_inputs_per_s"], "1/s", n),
        "mc_trials_per_s": (m["mc_trials_per_s"], "1/s", n),
        "pipeline_s": (m["pipeline_s"], "s", n),
        "cli_report_s": (median(cli), "s", len(cli)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def raw_times(rec, setup_raw: list, w) -> dict:
    """The unscaled counterparts of the end-to-end times, for the record."""
    scales = [x for p in rec.passes for x in p["host_scale"]]
    return {
        "setup_s": median(setup_raw),
        **pass_medians(rec, w, "raw_layer_s", "raw_pass_s"),
        "cli_report_s": per_pass(rec, "raw_layer_s", ("cli.report",)) / w.clis,
        "host_scale": {"min": min(scales), "median": median(scales), "max": max(scales),
                       "segments": len(scales)},
    }


def per_layer(rec, traced, imports: list, pipelines: int) -> dict:
    n = len(rec.passes)
    out = {}
    for layer in LAYER_TIMES:
        runs = pipelines if layer in PIPELINE else 1
        out[layer + "_s"] = (per_pass(rec, "layer_s", (layer,)) / runs, "s", n * runs)
    sweeps = samples(rec, "qsim.oracle")
    out["exact_input_s.p50"] = (median(sweeps), "s", len(sweeps))
    out["exact_input_s.p90"] = (p90(sweeps), "s", len(sweeps))
    out["qsim.montecarlo.node_trials_per_s"] = (
        rate(rec, "qsim.montecarlo.node_trials", ("qsim.montecarlo",)), "1/s", n)
    for name in ("qsim.oracle.peak_live", "qsim.oracle.frontier_bound",
                 "qcompiler.verified_laws", "qcompiler.alpha_bits",
                 "netgraph.d3_nodes", "classical_eval.rows"):
        runs = pipelines if name in PIPELINE_COUNTS else 1
        out[name] = (per_pass(rec, "counts", (name,)) / runs, "count", n * runs)
    out["cli.import_s"] = (median(imports), "s", len(imports))

    k = len(traced.passes)
    totals = traced.module_totals()
    for mod in MODULES:
        s, calls = totals.get(mod, (0.0, 0))
        out[f"{mod}.self_s"] = (s / k, "s", k)
        out[f"{mod}.calls"] = (calls / k, "count", k)
    sweep = traced.module_totals({"qsim.oracle"})
    sweep_self = sum(s for s, _ in sweep.values())
    out["qsim.oracle.fractions_share"] = (
        sweep.get("fractions", (0.0, 0))[0] / sweep_self if sweep_self else 0.0, "ratio", k)
    ratios = [t["pass_s"] / u["pass_s"] for t, u in zip(traced.passes, rec.passes)]
    out["trace.overhead"] = (median(ratios), "ratio", len(ratios))
    return out


def span_summary(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds (duration minus
    the time covered by child spans)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict = {}
    for s, c in zip(spans, child):
        acc = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        acc["calls"] += 1
        acc["total_s"] += s["end"] - s["start"]
        acc["self_s"] += s["end"] - s["start"] - c
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)

    qnc4 = import_qnc4()
    w = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{w.name}-{args.seed}"
    data_dir = ROOT / "src" / "qnc4" / "data"
    if args.setup_only:
        workloads.write_instances(w, args.seed, workdir / "setup-probe", data_dir)
        print("ready", flush=True)
        return 0
    paths = workloads.write_instances(w, args.seed, workdir, data_dir)

    rec = Recorder(trace=False)
    runner = workloads.Pass(qnc4, w, paths, rec, ROOT, args.seed)
    # (middle, raw seconds) of each timed child process, scaled after the run
    setup, imports, traced = [], [], None
    if args.trace == 0:
        # set-up probes are spread over the run, so that their median sees
        # the host in the same mix of states as the passes do
        due = [args.seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]

        def probe_setup(elapsed: float) -> None:
            while due and due[0] <= elapsed:
                due.pop(0)
                rec.operation("setup")
                rec.attempted += 1
                try:
                    setup.append(time_setup(w.name, args.seed))
                except (OSError, RuntimeError, subprocess.SubprocessError) as e:
                    rec.fail(f"set-up probe: {e}")

        probe_setup(0.0)
        run_passes(runner, args.seconds, probe_setup)
        probe_setup(float("inf"))
        metrics = end_to_end(rec, [dt * rec.scale_at(mid) for mid, dt in setup], w)
    else:
        env = workloads.child_env(ROOT)
        imports = [time_import(env) for _ in range(IMPORT_PROBES)]
        run_passes(runner, args.seconds / 2)
        traced = Recorder(trace=True)
        traced_runner = workloads.Pass(qnc4, w, paths, traced, ROOT, args.seed)
        run_passes(traced_runner, args.seconds / 2)
        metrics = per_layer(rec, traced, [dt * rec.scale_at(mid) for mid, dt in imports],
                            w.pipelines)
        runner.mc_checks |= traced_runner.mc_checks

    attempted = rec.attempted + (traced.attempted if traced else 0)
    failed = rec.failed + (traced.failed if traced else 0)
    failures = rec.failures + (traced.failures if traced else [])
    expected_misses = workloads.mc_false_misses(len(runner.mc_checks))

    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(ROOT),
        "passes": len(rec.passes),
        "traced_passes": len(traced.passes) if traced else 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "mc_sampled_sinks": len(runner.mc_checks),
        "mc_expected_false_misses": expected_misses,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "raw_times": raw_times(rec, [dt for _, dt in setup], w),
        "tier1": tier1(),
        "raw_passes": rec.passes + (traced.passes if traced else []),
        # the raw timings behind the scaling, untraced half only
        "references": rec.references,
        "segments": rec.segments,
        "children": {"setup": setup, "import": imports},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    record_path = workdir / f"record-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        (workdir / "spans.json").write_text(json.dumps(
            {"summary": span_summary(traced.spans), "spans": traced.spans}) + "\n")

    print(f"workload {w.name}  seed {args.seed}  passes {len(rec.passes)}"
          + (f" + {len(traced.passes)} traced" if traced else ""))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:6s} (n={n})")
    print(f"  {'error_rate':38s} {failed / attempted:14.6g} {'ratio':6s} "
          f"({failed} of {attempted} operations failed)")
    print(f"  Monte Carlo: chi2 and 3-standard-error gates at {len(runner.mc_checks)} "
          f"sinks (stream seed 0, the same draws every pass); a correct program "
          f"misses {expected_misses:.3g} of them on average")
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
