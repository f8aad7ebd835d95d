"""A golden transcript of the command line on every bundled instance.

Nine commands run on each bundled instance twice: by its bundled name, and
on the normal form in the file that `normalize --out` writes.  Each run's
stdout, stderr and exit code must match `cli_transcript.json` byte for
byte, so a change that means to alter no output can show that it alters
none.

After a change that is meant to alter the output, rewrite the file from
the repository root with

    PYTHONPATH=src:tests python -c "import test_transcript; test_transcript.regenerate()"

and review its diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from qnc4.cli import main
from qnc4.instances import BUNDLED

GOLDEN = Path(__file__).with_name("cli_transcript.json")

COMMANDS = (
    ["validate"],
    ["eval"],
    ["normalize"],
    ["compile"],
    ["simulate", "--mode", "analytic"],
    ["simulate", "--mode", "oracle"],
    ["simulate", "--mode", "montecarlo", "--trials", "5000", "--seed", "3"],
    ["report"],
    ["report", "--trials", "20000", "--seed", "1"],
)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def transcript(workdir: Path) -> list[dict]:
    """Every run, in a fixed order, each labelled by its command with the
    normal-form file named `<instance>.d3.json`."""
    runs = []
    for name in sorted(BUNDLED):
        d3_path = str(workdir / f"{name}.d3.json")
        made = _run(["normalize", name, "--out", d3_path])
        assert made == {"stdout": "", "stderr": "", "exit": 0}, made
        for instance, label in ((name, name), (d3_path, f"{name}.d3.json")):
            for command in COMMANDS:
                run = _run([command[0], instance, *command[1:]])
                runs.append({"args": [command[0], label, *command[1:]], **run})
    return runs


def regenerate() -> None:
    """Rewrite the golden file from the code as it stands."""
    with tempfile.TemporaryDirectory() as workdir:
        runs = transcript(Path(workdir))
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")


def test_cli_transcript_matches_the_golden_file(tmp_path, monkeypatch):
    monkeypatch.delenv("QNC_LOG", raising=False)
    want = json.loads(GOLDEN.read_text())
    got = transcript(tmp_path)
    assert [run["args"] for run in got] == [run["args"] for run in want]
    for run, golden in zip(got, want):
        assert run == golden, " ".join(run["args"])
