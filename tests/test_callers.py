"""Every top-level function, class and constant of `src/qnc4`, and every
method and property of its classes, has a reader in the program: a name,
attribute or import reference to it, outside its own definition, in
`src/qnc4` or `bench/`.  Code that only the tests call lives in `tests/`,
so no `src/` module carries a second statement of a law that no
subcommand runs.

`src/qnc4/__init__.py` is no reader: it defines no name and only
re-exports, and a name that the package root re-exports but nothing calls
is still unread.

The scan reads the syntax tree, so a docstring or comment naming a
function is not a reader of it.  It matches references by name alone.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qnc4"
BENCH = ROOT / "bench"

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
    ("shrink", "ShrunkState._make"): (
        "namedtuple's _replace calls it, so it must check what it builds; "
        "Python reads it, as it reads a dunder"
    ),
}


def _definitions(tree: ast.Module):
    """(name, defining statement) for each function, class and assigned
    name at module level, and ("Class.name", its def) for each method and
    property of a top-level class; dunders aside (Python reads those)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("__")):
                    yield f"{stmt.name}.{member.name}", member


def _references(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def unread_names(package: Path = PACKAGE, bench: Path = BENCH) -> set[tuple[str, str]]:
    """(module, name) for each name that `_definitions` finds in the
    package's modules, its root aside, that nothing in those modules or in
    bench's reads outside the statement that defines it."""
    program = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    trees = {path: ast.parse(path.read_text())
             for path in program + sorted(bench.glob("*.py"))}
    total = Counter(ref for tree in trees.values() for ref in _references(tree))
    unread = set()
    for path in program:
        for name, stmt in _definitions(trees[path]):
            ref = name.rpartition(".")[2]  # a member is referenced by its own name
            if total[ref] == Counter(_references(stmt))[ref]:
                unread.add((path.stem, name))
    return unread


def test_every_program_name_has_a_reader_outside_the_tests():
    assert unread_names() == set(ALLOWED)


def test_the_package_root_defines_no_name():
    # so leaving it out of the scan drops no definition
    assert list(_definitions(ast.parse((PACKAGE / "__init__.py").read_text()))) == []


def test_the_scan_counts_no_re_export_recursion_or_own_class(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import C, f, g\n")
    (package / "mod.py").write_text(
        "def f():\n"
        "    return f()\n"
        "def g():\n"
        "    return C().used()\n"
        "class C:\n"
        "    def used(self):\n"
        "        return self.helper\n"
        "    @property\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def unread(self):\n"
        "        return self.unread()\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    (package / "run.py").write_text("from .mod import g\n")
    assert unread_names(package, tmp_path / "no-bench") == {("mod", "f"), ("mod", "C.unread")}
