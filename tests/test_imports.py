"""Every import in the package, the tests and the scripts is used.

An `ast`-only form of a linter's unused-import rule (F401), so the check
needs nothing beyond the standard library: a name an import binds must be
read somewhere in its module, be listed in the module's `__all__`, or carry
`# noqa: F401` on a line of its import statement.  A package's `__init__.py`
is exempt: it imports in order to re-export, and `test_public_surface` pins
what it exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "scripts")


def _unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and name not in exported:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    files = sorted(
        p
        for folder in FOLDERS
        for p in (ROOT / folder).rglob("*.py")
        if p.name != "__init__.py"
    )
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []
