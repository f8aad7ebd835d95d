"""The exact path runs without numpy or a thread pool, a subcommand loads
no module it does not use, and `qnc4` keeps every public name.

Each check runs in a fresh interpreter, because this one has long since
imported numpy and every submodule.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import qnc4
from qnc4.cli import main
from qnc4.instances import BUNDLED

_SRC = str(Path(qnc4.__file__).resolve().parents[1])

# every subcommand that prints only exact numbers
_EXACT = (
    ["validate"], ["eval"], ["normalize"], ["compile"],
    ["simulate", "--mode", "analytic"], ["simulate", "--mode", "oracle"], ["report"],
)

# the public names of `qnc4`, submodules included
_PUBLIC = (
    "ClassicalProtocol", "CompiledProtocol", "D3Network", "GroupKind", "IDENTITY_MAP",
    "LETTERS", "LetterMap", "Network", "NodeOp", "QncError", "QuantumOp",
    "SchemaError", "ShrunkState", "SizeError", "Term", "ValidationError",
    "VerificationError", "check_requirement", "classical_eval", "compile_protocol",
    "constant_map", "efc", "errors", "estimate_fidelity", "evaluate",
    "instance_from_json", "instance_to_json", "instances", "make_network", "netgraph",
    "node_op", "normalize_to_d3", "qcompiler", "qmath", "qsim", "simulate_analytic",
    "simulate_montecarlo", "simulate_oracle", "tetra_weights", "truth_table",
    "ttr_outcome_weights", "validate_d3", "validate_network",
)


def _child(code: str, *args: str, flags: tuple = ()) -> str:
    """Run code in a fresh interpreter, started with flags, that imports
    qnc4 from this tree; its stdout."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from qnc4.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    # nor a thread pool module, which would slow the start of every subcommand
    loaded = [m for m in ("numpy", "concurrent.futures") if sys.modules.get(m) is not None]
    results.append([code, out.getvalue(), loaded])
print(json.dumps(results))
"""


def test_exact_subcommands_run_without_numpy():
    runs = [[c[0], name, *c[1:]] for name in BUNDLED for c in _EXACT]
    blocked = json.loads(_child(_RUN_WITHOUT_NUMPY, json.dumps(runs)))
    assert len(blocked) == len(runs)
    for argv, (code, out, loaded) in zip(runs, blocked):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == code == 0, argv
        assert buf.getvalue() == out, argv
        assert loaded == [], argv


_NEW_MODULES = """
import contextlib, io, json, sys
before = set(sys.modules)
from qnc4.cli import main
results = [["import", sorted(set(sys.modules) - before)]]
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    results.append([argv[0], sorted(set(sys.modules) - before)])
print(json.dumps(results))
"""

# what a subcommand that does not use them must not load: each adds to the
# start of every run
_UNUSED = {"logging", "typing", "importlib.resources", "numpy", "concurrent.futures"}


def test_subcommands_load_only_the_modules_they_use(monkeypatch):
    # -S: without site's start-up hooks, which on some hosts import typing
    # or importlib.resources before qnc4 runs and would hide either here
    monkeypatch.delenv("QNC_LOG", raising=False)
    data = Path(_SRC) / "qnc4" / "data"
    instances = [*BUNDLED, *(str(data / f"{name}.json") for name in BUNDLED)]
    runs = [[c[0], instance, *c[1:]] for instance in instances for c in _EXACT]
    results = json.loads(_child(_NEW_MODULES, json.dumps(runs), flags=("-S",)))
    assert len(results) == 1 + len(runs)
    for command, new in results:
        assert _UNUSED.isdisjoint(new), (command, _UNUSED.intersection(new))
        assert "csv" not in new or command == "eval", command
    assert any("csv" in new for _, new in results)


def test_qnc_log_still_logs_the_normal_form_size(tmp_path):
    path = str(Path(_SRC) / "qnc4" / "data" / "butterfly.json")
    out = tmp_path / "butterfly.d3.json"
    env = {**os.environ, "PYTHONPATH": _SRC, "QNC_LOG": "info"}
    done = subprocess.run(
        [sys.executable, "-m", "qnc4", "normalize", path, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0 and done.stdout == "", done.stderr
    nodes = len(json.loads(out.read_text())["nodes"])
    assert done.stderr == f"INFO:qnc4:normal form has {nodes} nodes\n"


_IMPORT_EACH = """
import sys
import qnc4
print("numpy" in sys.modules)
for name in sys.argv[1:]:
    ns = {}
    exec(f"from qnc4 import {name}", ns)
    assert ns[name] is getattr(qnc4, name), name
    assert name in dir(qnc4), name
print("numpy" in sys.modules)
"""


def test_public_names_still_import():
    # numpy is loaded only once the qmath or efc submodule is imported
    assert _child(_IMPORT_EACH, *_PUBLIC).split() == ["False", "True"]
    from qnc4 import efc, qmath

    assert qnc4.ShrunkState is qmath.ShrunkState
    assert efc.efc_apply.__module__ == "qnc4.efc"


def test_both_module_entry_points_run_the_command():
    # `python -m qnc4` and `python -m qnc4.cli` are the `qnc4` command, exit code included
    env = {**os.environ, "PYTHONPATH": _SRC}
    for module in ("qnc4", "qnc4.cli"):
        for argv, code, out in (
            (["validate", "single-edge"], 0, "ok: structure and delivery requirement verified\n"),
            (["validate", "no-such-instance"], 2, ""),
        ):
            done = subprocess.run(
                [sys.executable, "-m", module, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (done.returncode, done.stdout) == (code, out), (module, argv, done.stderr)
