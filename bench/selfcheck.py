"""Quick self-check of the benchmark (about two minutes on two cores).

    python3 bench/selfcheck.py

1. Runs every workload for one pass, untraced and traced: those that
   BENCHMARK.json names, and bundled-sampled, which it leaves out.  Asserts
   that each run exits 0 with error_rate 0, and prints exactly the declared
   metrics, each with its declared unit, both in the table and in the final
   JSON line.
2. Replays the Monte Carlo checks on every relabelling of the sampled ladder
   instances that seeds 0-199 reach (they reach every relabelling the
   generators can draw), so no seed can meet a false miss.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's own files, and asserts it fails without printing a result.
"""

import json
import random
import shutil
import subprocess
import sys

import ladders
import workloads
from run import OUT, ROOT, import_qnc4
from tracing import Recorder

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def require(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"self-check FAILED: {what}")


def run(args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workloads() -> None:
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            require(proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            require(result["correct"] and result["failed"] == 0, f"{where}: {result}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == want, f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            table = {ln.split()[0]: ln.split() for ln in lines[1:-1] if ln.startswith("  ")}
            for name, unit in want.items():
                require(name in table and table[name][2] == unit, f"{where}: {name} not printed with {unit}")
            require(table["error_rate"][1] == "0", f"{where}: error_rate {table['error_rate'][1]}")
            print(f"ok  {where}: {len(want)} metrics with units, error_rate 0")


def check_sampled_relabellings() -> None:
    q = import_qnc4()
    workdir = OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    for w in workloads.WORKLOADS.values():
        seen = set()
        for seed in range(200):
            rng = random.Random(f"instances:{seed}")
            for name, spec in w.instances.items():
                if spec is None:
                    continue
                doc = ladders.GENERATORS[spec[0]](spec[1], rng)
                if name in w.sampled:
                    seen.add((name, json.dumps(doc, sort_keys=True)))
        for k, (name, text) in enumerate(sorted(seen)):
            path = workdir / f"{name}-{k}.json"
            path.write_text(text)
            rec = Recorder(trace=False)
            rec.begin_pass(0)
            runner = workloads.Pass(q, w, {name: path}, rec, ROOT, 0)
            letters, trials = w.sampled[name]
            runner.monte_carlo(name, runner.pipeline(name), letters, trials, 0)
            require(rec.failed == 0, f"{w.name} {name} relabelling {k}: {rec.failures}")
        if seen:
            print(f"ok  {w.name}: sampled checks pass on all {len(seen)} reachable "
                  "relabellings of its sampled instances")


def check_bare_directory() -> None:
    bare = OUT / "selfcheck" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    name = SPEC["workloads"][0]["name"]
    proc = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    require(proc.returncode != 0, "benchmark succeeded without the program's sources")
    require('"metrics"' not in proc.stdout, "benchmark printed a result without the program")
    print(f"ok  without src/: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_workloads()
    check_sampled_relabellings()
    check_bare_directory()
    print("self-check passed")
