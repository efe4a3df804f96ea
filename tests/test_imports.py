"""Every name a package module imports is used in that module, and no
module imports another module's private (underscored) names.

Read with the standard library's `ast`, so that a deletion cannot leave a
dead import behind.  `__init__.py` is skipped: its imports are the exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "strandbox"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == []


def _private_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("strandbox")):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module_boundary(path):
    assert sorted(_private_imports(ast.parse(path.read_text()))) == []


def test_the_check_sees_every_module():
    assert {p.name for p in MODULES} >= {"strings.py", "modules.py", "artrans.py", "verify.py"}
