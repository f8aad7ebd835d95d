"""tests/mutants.json, the record that tests/mutants.py writes, agrees with
that script's module list and survivor classes."""

import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _probe():
    """tests/mutants.py as a module, imported by path: pytest does not
    collect it, and importing it runs no mutant."""
    spec = importlib.util.spec_from_file_location("mutants", HERE / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_record_agrees_with_the_probe():
    probe = _probe()
    record = json.loads((HERE / "mutants.json").read_text())
    assert record["modules"] == list(probe.MODULES)
    for s in record["survivors"]:
        key = (s["module"], s["function"], s["statement"])
        assert key in probe.CLASSES, key
        assert (s["class"], s["why"]) == probe.CLASSES[key], key
