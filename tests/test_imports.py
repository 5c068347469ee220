"""Every imported name is read somewhere in its module.

No linter runs on this package, so this test stands in for the
unused-import check.  The package's `__init__.py` is left out: its imports
are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "braidfrac").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


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
