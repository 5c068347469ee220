"""Every imported name is read somewhere in its module, and every private
module-level helper of the package somewhere in the package or its tests.

No linter runs on this package, so these tests stand in for the
unused-import and dead-code checks.  The package's `__init__.py` is left
out of the import check: its imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import braidfrac

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "braidfrac").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"] + TESTS)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # `from __future__`
                    imported.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_scanner_flags_only_unread_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(a, w)\n"
    assert _unused_imports(source) == ["os", "z"]


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in MODULES
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "imported but never read: " + ", ".join(unused)


def _private_definitions(statement: ast.stmt) -> list[str]:
    """The private names a module-level statement defines: a function, a
    class or an assignment target, leaving out dunder names."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _names_read(statement: ast.stmt) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(statement)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _dead_helpers(sources: dict[str, str], defining: set[str]) -> list[str]:
    """The private module-level names of the `defining` modules that no
    module-level statement reads as a Name or an Attribute, except the one
    that defines them (so a helper that only calls itself is dead)."""
    reads = []
    defined = []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            reads.append((statement, _names_read(statement)))
            if module in defining:
                defined += [(module, statement, n) for n in _private_definitions(statement)]
    return [
        f"{module}: {name}"
        for module, statement, name in defined
        if not any(name in names for other, names in reads if other is not statement)
    ]


def test_dead_helper_scanner():
    helpers = (
        "def _looped():\n    return _looped()\n"
        "_table = {}\n"
        "class _Unused:\n    pass\n"
        "__all__ = []\n"
        "def _attribute():\n    pass\n"
        "def public():\n    return _table\n"
    )
    sources = {"helpers": helpers, "test": "import helpers\nhelpers._attribute()\n"}
    assert _dead_helpers(sources, {"helpers"}) == ["helpers: _looped", "helpers: _Unused"]


def test_no_dead_private_helpers():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in PACKAGE + TESTS
    }
    package = {str(path.relative_to(ROOT)) for path in PACKAGE}
    dead = _dead_helpers(sources, package)
    assert not dead, "private helpers that nothing reads: " + ", ".join(dead)


def test_star_import_binds_only_the_api():
    # the package's submodules are attributes of it, not names it exports
    modules = [
        name for name in braidfrac.__all__
        if isinstance(getattr(braidfrac, name), ModuleType)
    ]
    assert modules == []
    assert {"comb_word", "pure_word_sign"} <= set(braidfrac.__all__)
