"""The run record written beside the metrics, and the Tier-1 timing.

`python3 bench/record.py --tier1` runs the repository's Tier-1 test
command once, and writes its wall time and its five slowest tests to
`.bench_out/tier1.json`.  Every later run record copies that file in as an
informational field; no bound applies to it.
"""

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
TIER1 = OUT / "tier1.json"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def memory_mb() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20
    except (OSError, ValueError):
        return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git has none."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = root / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine(root: Path) -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "memory_mb": memory_mb(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
    }


def tier1() -> dict | None:
    try:
        return json.loads(TIER1.read_text())
    except (OSError, ValueError):
        return None


def measure_tier1() -> dict:
    """Run the Tier-1 command with --durations=5 and parse its summary."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=5"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    slowest = [
        {"seconds": float(m.group(1)), "test": m.group(2)}
        for m in re.finditer(r"^([\d.]+)s call\s+(\S+)$", proc.stdout, re.M)
    ]
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {
        "command": " ".join(cmd[1:]),
        "wall_s": wall,
        "exit_code": proc.returncode,
        "summary": summary,
        "slowest": slowest[:5],
        "gated": False,
        "measured_on": machine(ROOT),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--tier1"]:
        sys.exit("usage: python3 bench/record.py --tier1")
    result = measure_tier1()
    OUT.mkdir(exist_ok=True)
    TIER1.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    sys.exit(0 if result["exit_code"] == 0 else 1)
