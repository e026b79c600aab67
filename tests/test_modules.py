"""Module boundaries: no module of the package imports another module's private names.

A single-underscore name is its module's own business; a module that needs
one from a sibling shows that the decision it encodes sits in the wrong
module (Parnas, "On the Criteria To Be Used in Decomposing Systems into
Modules", CACM 1972). Dunders such as ``__version__`` are public. The test
oracles in ``oracles.py`` are held to the same rule, so that an oracle
shares no private helper with the code it checks.
"""
from __future__ import annotations

import ast
from pathlib import Path

import ransomwatch

PACKAGE_DIR = Path(ransomwatch.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(source: str) -> list[str]:
    """``module.name`` for every single-underscore name imported from within the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ransomwatch"):
            continue
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"{'.' * node.level}{node.module or ''}.{alias.name}")
    return found


def _private_attributes(source: str) -> list[str]:
    """Every single-underscore name read as an attribute, as in ``features._directory_depth``."""
    return [node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and _is_private(node.attr)]


def test_the_checker_sees_private_and_dunder_imports():
    source = "from .graph import _LABELS, encode\nfrom ransomwatch.events import _fast\nfrom . import __version__\n"
    assert _private_imports(source) == [".graph._LABELS", "ransomwatch.events._fast"]
    assert _private_imports("from orjson import loads as _fast_loads\nimport numpy as np\n") == []


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5  # the package, not an empty directory
    offenders = {path.name: _private_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_oracles_share_no_private_name_with_the_package():
    source = ORACLES.read_text(encoding="utf-8")
    assert _private_imports(source) == []
    # nor reach one through an imported module, as in features._directory_depth
    assert _private_attributes(source) == []


def test_the_checker_sees_private_attributes():
    source = "from ransomwatch import features\nfeatures._directory_depth('C:/a')\nfeatures.WindowFold().__class__\n"
    assert _private_attributes(source) == ["_directory_depth"]
    assert _private_attributes("import numpy as np\nnp.ndarray\n") == []


def test_the_oracle_guard_fails_on_an_oracle_that_reads_a_fold_helper():
    source = ORACLES.read_text(encoding="utf-8")
    imported = source + "\nfrom ransomwatch.features import _directory_depth\n"
    assert _private_imports(imported) == ["ransomwatch.features._directory_depth"]
    reached = source + "\nfrom ransomwatch import features\ndepth = features._directory_depth\n"
    assert _private_attributes(reached) == ["_directory_depth"]
