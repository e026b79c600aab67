"""Module boundaries: no module of the package imports another module's private names.

A single-underscore name is its module's own business; a module that needs
one from a sibling shows that the decision it encodes sits in the wrong
module (Parnas, "On the Criteria To Be Used in Decomposing Systems into
Modules", CACM 1972). Dunders such as ``__version__`` are public. The test
oracles in ``oracles.py`` are held to the same rule, and import no function
of the package either, so that an oracle shares no code with what it checks.
Test modules share helpers only through ``oracles.py``.
"""
from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import ransomwatch

PACKAGE_DIR = Path(ransomwatch.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
ORACLES = TESTS_DIR / "oracles.py"


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


def _package_code_imports(source: str) -> list[str]:
    """Every function or module that ``source`` imports from the package; a class or a constant is not listed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "ransomwatch"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ransomwatch":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if not isinstance(value, type) and (callable(value) or isinstance(value, types.ModuleType)):
                    found.append(f"{node.module}.{alias.name}")
    return found


def test_the_oracles_import_only_classes_and_constants_from_the_package():
    assert _package_code_imports(ORACLES.read_text(encoding="utf-8")) == []


def test_the_oracle_import_guard_fails_on_an_imported_function_or_module():
    source = ORACLES.read_text(encoding="utf-8")
    assert _package_code_imports(source + "\nfrom ransomwatch.events import extension_of\n") == [
        "ransomwatch.events.extension_of"
    ]
    modules = source + "\nfrom ransomwatch import notes\nimport ransomwatch.features\n"
    assert sorted(_package_code_imports(modules)) == ["ransomwatch.features", "ransomwatch.notes"]
    assert _package_code_imports("from ransomwatch.features import MAX_DEPTH_BUCKET, WindowFold\n") == []


def _test_module_imports(source: str) -> list[str]:
    """Every module of ``tests/`` but ``oracles`` that ``source`` imports, conftest included."""
    local = {path.stem for path in TESTS_DIR.glob("*.py")} - {"oracles"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in local]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in local:
            found.append(node.module)
    return found


def test_no_test_module_imports_another_or_conftest():
    sources = sorted(TESTS_DIR.glob("*.py"))
    assert len(sources) > 5 and ORACLES in sources
    offenders = {path.name: _test_module_imports(path.read_text(encoding="utf-8")) for path in sources}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_test_import_guard_fails_on_a_test_module_or_conftest():
    source = (TESTS_DIR / "test_acceptance.py").read_text(encoding="utf-8")
    edited = source + "\nfrom test_features import _named\nfrom conftest import TRAIN_SEED\nimport test_labels\n"
    assert sorted(_test_module_imports(edited)) == ["conftest", "test_features", "test_labels"]
    assert _test_module_imports("from oracles import ref_features\nimport oracles\n") == []
