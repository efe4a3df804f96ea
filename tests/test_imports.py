"""Every name a package module imports is used in that module, no module
imports another module's private (underscored) names, every function
the benchmark's tracer wraps by name is still defined where it looks, and
importing the package loads neither `dataclasses` nor `inspect`.

Read with the standard library's `ast`, so that a deletion cannot leave a
dead import behind.  `__init__.py` is skipped: its imports are the exports.
The tracer's table is read from its source; the benchmark is not imported.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "strandbox"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


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


def _tracer_named():
    """The tracer's NAMED table: layer -> names wrapped in that module."""
    for node in ast.parse(TRACER.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["NAMED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no NAMED table")


def test_every_function_the_tracer_wraps_by_name_is_defined_in_its_module():
    named = _tracer_named()
    assert named
    missing = []
    for layer, names in named.items():
        module = importlib.import_module(f"strandbox.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if not callable(fn) or fn.__module__ != module.__name__:
                missing.append(f"{layer}.{name}")
    assert missing == []


@pytest.mark.parametrize("module", ["strandbox", "strandbox.cli"])
def test_importing_the_package_loads_no_code_generators(module):
    """A cold `import strandbox` (and the CLI) must not pull in `dataclasses`
    or `inspect`; a plain interpreter start loads neither."""
    probe = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"
