"""Every top-level function, class and constant of `src/qnc4` has a reader
in the program: a name, attribute or import reference to it, outside its
own definition, in `src/qnc4` or `bench/`.  Code that only the tests call
lives in `tests/`, so no `src/` module carries a second statement of a law
that no subcommand runs.

The scan reads the syntax tree, so a docstring or comment naming a
function is not a reader of it.  It matches references by name alone.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "qnc4").glob("*.py"))
READERS = PROGRAM + sorted((ROOT / "bench").glob("*.py"))

# the names that stay in src/ without a reader there, each with its reason
ALLOWED = {
    ("qcompiler", "build_kernel"): (
        "the public form of _build_kernel, which compile_protocol calls with "
        "the target it has already computed; the kernel tests and pins build "
        "a node's kernel from its op alone"
    ),
    ("qcompiler", "check_kernel"): (
        "the public form of _check_kernel, which compile_protocol calls with "
        "that same target; the tests check a kernel against its op alone"
    ),
    ("instances", "bundled"): (
        "the library's one call that gives a bundled instance as a parsed "
        "(Network, ClassicalProtocol) pair; the command reads every instance "
        "through read_json, since a name may also be a file path"
    ),
}


def _definitions(tree: ast.Module):
    """(name, index of its top-level statement) for each function, class and
    assigned name at module level, dunders aside (Python reads those)."""
    for k, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, k


def _references(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def unread_names() -> set[tuple[str, str]]:
    """(module, name) for each top-level name of src/qnc4 that nothing in
    src/qnc4 or bench/ reads outside the statement that defines it."""
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    total: Counter = Counter()
    own: dict = {}  # (path, statement index) -> its references
    for path, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            own[path, k] = Counter(_references(stmt))
            total.update(own[path, k])
    return {
        (path.stem, name)
        for path in PROGRAM
        for name, k in _definitions(trees[path])
        if total[name] == own[path, k][name]
    }


def test_every_program_name_has_a_reader_outside_the_tests():
    assert unread_names() == set(ALLOWED)
