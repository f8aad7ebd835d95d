"""Statement-deletion mutants of qnc4, run against the tier-1 suite.

Each statement of the modules in MODULES, docstrings and `pass` aside, is
replaced in turn by `pass`, and the tier-1 suite runs on the mutant with
`-x`, the last failing test first.  A mutant is killed when the suite fails
or runs past TIMEOUT seconds, and survives when it passes.  Every survivor
is written to tests/mutants.json with its module, lines, function and
class, looked up in CLASSES by module, function and statement:

- "equivalent": no input can tell the mutant from the program;
- "missing test": an input could, and no test gives it;
- "dead code": the statement never runs, or never changes a result;
- "unclassified": not in CLASSES yet, to be classified by hand.

The working tree is never edited.  The mutants are written into two
scratch copies of it, one per worker, in a temporary directory that is
removed at the end.  Pytest does not collect this file.  Run it by hand
from the repository root (about 40 minutes on two CPUs):

    python tests/mutants.py
"""

import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("qsim", "netgraph", "qcompiler", "cli", "classical_eval", "instances", "shrink")
TIER_1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "--ff"]
TIMEOUT = 120  # seconds; tier-1 takes about 15 s on two CPUs
WORKERS = 2

# each known survivor's class and the reason, by (module, function, first
# line of the statement as `ast.unparse` writes it)
_TYPE_ONLY = (
    "equivalent",
    "TYPE_CHECKING is False when the program runs: only a type checker "
    "reads this numpy import, for the annotations",
)
_SINK_SHORTCUT = (
    "equivalent",
    "a sink whose input has a factor of its own skips summing it out; "
    "without the shortcut the sum gives a factor over no edge, which "
    "nothing reads",
)
CLASSES = {
    ("qsim", "<module>", "if TYPE_CHECKING:"): _TYPE_ONLY,
    ("qsim", "<module>", "import numpy as np"): _TYPE_ONLY,
    ("qsim", "simulate_oracle", "if not rest:"): _SINK_SHORTCUT,
    ("qsim", "simulate_oracle", "continue"): _SINK_SHORTCUT,
    ("netgraph", "_Normalizer.fresh", "self.used.add(nid)"): (
        "equivalent",
        "every base passed to fresh is distinct: it ends in '.rx' or in "
        "'.<tag><i>.<k>' after its node's own id, so no fresh id can equal "
        "an earlier one, and the original ids are in used from the start",
    ),
    ("qsim", "simulate_montecarlo.guarded", "stop.set()"): (
        "missing test",
        "a worker thread's error stops the other workers early; without it "
        "they finish their chunks and the error is still raised, so a test "
        "would have to time the threads",
    ),
}


def _statements(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """Every statement but docstrings and `pass`, with the dotted name of
    the function or class it is in ("<module>" at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                doc = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant) \
                    and isinstance(child.value.value, str)
                if not doc and not isinstance(child, ast.Pass):
                    found.append((child, scope or "<module>"))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return found


def mutants(module: str) -> list[dict]:
    """Each statement deletion of src/qnc4/<module>.py that still compiles,
    as {module, lines, function, statement, source}."""
    data = (ROOT / "src" / "qnc4" / f"{module}.py").read_bytes()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for node, scope in _statements(ast.parse(data)):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        # col_offset counts UTF-8 bytes; a decorator's @ sits at its def's column
        begin = starts[first - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        source = data[:begin] + b"pass" + data[end:]
        try:
            compile(source, module, "exec")
        except SyntaxError:
            continue
        out.append({
            "module": module,
            "lines": [first, node.end_lineno],
            "function": scope,
            "statement": ast.unparse(node).splitlines()[0],
            "source": source,
        })
    return out


def _run(copy: Path) -> str:
    """'killed', 'timeout' or 'survived': the tier-1 suite on one copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER_1, cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def _worker(copy: Path, todo: queue.Queue, results: list, lock: threading.Lock) -> None:
    while True:
        try:
            k, m = todo.get_nowait()
        except queue.Empty:
            return
        path = copy / "src" / "qnc4" / f"{m['module']}.py"
        original = path.read_bytes()
        path.write_bytes(m["source"])
        try:
            outcome = _run(copy)
        finally:
            path.write_bytes(original)
        with lock:
            results.append((k, m, outcome))
            if outcome == "survived":
                print(f"survived: {m['module']} {m['lines']} {m['statement']}", file=sys.stderr)
            if len(results) % 50 == 0:
                print(f"{len(results)} mutants run", file=sys.stderr)


def main() -> int:
    all_mutants = [m for module in MODULES for m in mutants(module)]
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="qnc4-mutants-") as tmp:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
        copies = [Path(tmp) / f"copy{k}" for k in range(WORKERS)]
        for copy in copies:
            shutil.copytree(ROOT, copy, ignore=ignore)
            if _run(copy) != "survived":
                print("tier-1 fails on the unmutated tree", file=sys.stderr)
                return 1
        todo: queue.Queue = queue.Queue()
        for k, m in enumerate(all_mutants):
            todo.put((k, m))
        results: list = []
        lock = threading.Lock()
        threads = [threading.Thread(target=_worker, args=(copy, todo, results, lock))
                   for copy in copies]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    results.sort(key=lambda r: r[0])
    survivors = []
    for _, m, outcome in results:
        if outcome == "survived":
            cls, why = CLASSES.get((m["module"], m["function"], m["statement"]),
                                   ("unclassified", ""))
            survivors.append({k: m[k] for k in ("module", "lines", "function", "statement")}
                             | {"class": cls, "why": why})
    report = {
        "modules": list(MODULES),
        "mutants": len(results),
        "killed": sum(outcome == "killed" for *_, outcome in results),
        "timeouts": sum(outcome == "timeout" for *_, outcome in results),
        "survivors": survivors,
    }
    (ROOT / "tests" / "mutants.json").write_text(json.dumps(report, indent=2) + "\n")
    minutes = (time.monotonic() - start) / 60
    print(f"{len(results)} mutants, {len(survivors)} survived, {minutes:.0f} min", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
