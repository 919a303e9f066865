"""Every import in the package, the tests and the scripts is used.

An `ast`-only form of a linter's unused-import rule (F401), so the check
needs nothing beyond the standard library: a name an import binds must be
read somewhere in its module or be listed in the module's `__all__`, and
no `# noqa` comment exempts it.  A package's `__init__.py` is exempt: it
imports in order to re-export, and `test_public_surface` pins what it exports.

Star imports stay in their place: `from .module import *` appears only in a
package's `__init__.py`, and the module it names defines `__all__`, so what
it re-exports is a list someone wrote rather than whatever it happens to bind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "scripts")


def _dunder_all(tree: ast.Module) -> list:
    """The `__all__` assignments of a module (their nodes)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in _dunder_all(tree) for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
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


def _star_import_faults(path: Path) -> list:
    faults = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.names[0].name != "*":
            continue
        where = f"{path.relative_to(ROOT)}:{node.lineno}"
        target = path.parent / f"{node.module}.py"
        if path.name != "__init__.py":
            faults.append(f"{where}: star import outside a package __init__.py")
        elif node.level != 1 or not target.is_file():
            faults.append(f"{where}: star import of something other than a sibling module")
        elif not _dunder_all(ast.parse(target.read_text(encoding="utf-8"))):
            faults.append(f"{where}: {node.module} defines no __all__")
    return faults


def test_star_imports_only_re_export_an_all():
    files = sorted(p for folder in FOLDERS for p in (ROOT / folder).rglob("*.py"))
    assert [hit for path in files for hit in _star_import_faults(path)] == []
