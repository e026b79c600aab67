"""Module boundaries: no module of the package imports another module's private names.

A single-underscore name is its module's own business; a module that needs
one from a sibling shows that the decision it encodes sits in the wrong
module (Parnas, "On the Criteria To Be Used in Decomposing Systems into
Modules", CACM 1972). Dunders such as ``__version__`` are public.
"""
from __future__ import annotations

import ast
from pathlib import Path

import ransomwatch

PACKAGE_DIR = Path(ransomwatch.__file__).resolve().parent


def _private_imports(source: str) -> list[str]:
    """``module.name`` for every single-underscore name imported from within the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ransomwatch"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{node.module or ''}.{name}")
    return found


def test_the_checker_sees_private_and_dunder_imports():
    source = "from .graph import _LABELS, encode\nfrom ransomwatch.events import _fast\nfrom . import __version__\n"
    assert _private_imports(source) == [".graph._LABELS", "ransomwatch.events._fast"]
    assert _private_imports("from orjson import loads as _fast_loads\nimport numpy as np\n") == []


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5  # the package, not an empty directory
    offenders = {path.name: _private_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}
