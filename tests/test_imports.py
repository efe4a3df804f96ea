"""Every name a package module imports is used in that module, no module
imports another module's private (underscored) names, every top-level
function or class is used somewhere in the package or exported, only
`artrans.neighbours` reads AR-sequences inside `artrans`, only
`verify.tau_locally_free_rank_vectors` enumerates bands inside `verify` (so
that the expected band count stays independent of the enumeration), no
function in `verify` calls `band_module` or `delta_length` (the canonical
bands are not checked or measured again), only `algebra.require_ctilde`
raises `UnsupportedPresentation` and only `errors.require_size` words a
`DomainError` as "must be >=" (one C-tilde gate, one size rule), only
the word kernel, the validator, the tau kernel and `relations_vanish`
read a presentation's `relations` (one relation table), no
unbounded cache is keyed by a size (so none keeps a verdict's output), every
function the benchmark's tracer wraps by name is still defined where it
looks, importing the package loads neither `dataclasses` nor `inspect` (nor
`json`, which only the exports and the CLI need),
every class of the package that is not an exception declares `__slots__`,
and none derives from a builtin container (a table is a plain `dict`, not
one with state bolted on), and only `cli.main` prints or touches
`sys.stdout` or `sys.stderr` (one printer).

Read with the standard library's `ast`, so that a deletion cannot leave a
dead import behind.  The import checks skip `__init__.py`: its imports are
the exports.  The tracer's table is read from its source; the benchmark is
not imported.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
from collections import Counter

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


def _names(node):
    """Every name `node` refers to: plain names, attributes and imported names
    (an import in a package module must be used, and `__init__`'s are the
    exports)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_top_level_definition_is_used_or_exported():
    trees = {p.name: ast.parse(p.read_text()) for p in (*MODULES, PACKAGE / "__init__.py")}
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    dead = [f"{module}:{node.name}" for module, tree in sorted(trees.items())
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if refs[node.name] - Counter(_names(node))[node.name] <= 0]
    assert dead == []


def _callers(module, name):
    """The top-level definitions of `module` that call `name`."""
    tree = ast.parse((PACKAGE / module).read_text())
    return {node.name for node in tree.body
            if any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == name
                   for sub in ast.walk(node))}


def test_only_neighbours_builds_ar_sequences_in_artrans():
    """Every AR-neighbour question in `artrans` goes through `neighbours`:
    no other function there calls `ar_sequence_starting_at`."""
    assert _callers("artrans.py", "ar_sequence_starting_at") == {"neighbours"}


def test_only_the_witness_table_enumerates_bands_in_verify():
    """`check_gls` counts band classes by `_band_classes`, not by a second
    call of `enumerate_bands`, so a class the enumeration loses shows."""
    assert _callers("verify.py", "enumerate_bands") == {"tau_locally_free_rank_vectors"}


def test_no_function_in_verify_revalidates_a_band():
    """The band witnesses are built from the canonical bands of
    `enumerate_bands` as they stand: no function in `verify` calls
    `band_module`, which would canonicalise each band and check each
    parameter again."""
    assert _callers("verify.py", "band_module") == set()


def test_no_function_in_verify_remeasures_a_band():
    """A band of `enumerate_bands` is a word of t atoms of 2n letters each,
    so `verify` reads its delta-length t off its length: no function there
    calls `delta_length`, which would pass every band class through the
    C-tilde gate again for the same length over 2n."""
    assert _callers("verify.py", "delta_length") == set()


def _raisers(accepts):
    """(module, top-level definition) of every `raise` in the package whose
    exception `accepts` takes."""
    return {(path.name, node.name) for path in MODULES for node in ast.parse(path.read_text()).body
            if any(isinstance(sub, ast.Raise) and sub.exc is not None and accepts(sub.exc)
                   for sub in ast.walk(node))}


def test_one_gate_refuses_presentations_outside_the_ctilde_family():
    """Every entry point that assumes the C-tilde family calls the one gate
    instead of raising `UnsupportedPresentation` itself."""
    assert _raisers(lambda exc: any(getattr(x, "id", None) == "UnsupportedPresentation"
                                    for x in ast.walk(exc))) == {("algebra.py", "require_ctilde")}


def test_one_rule_checks_every_size():
    """No entry point compares a size by hand: a `DomainError` that says
    "must be >=" is raised by the one size rule only."""
    def says_at_least(exc):
        return getattr(getattr(exc, "func", None), "id", None) == "DomainError" and any(
            isinstance(c, ast.Constant) and "must be >=" in str(c.value) for c in ast.walk(exc))

    assert _raisers(says_at_least) == {("errors.py", "require_size")}


def test_only_the_word_kernel_turns_relations_into_forbidden_walks():
    """Which walks a relation forbids is worked out once, in the letter
    windows of `strings._kernel`.  Besides it, a presentation's `relations`
    are read only by the validator, by the tau kernel for their lengths, and
    by `relations_vanish`, which multiplies a representation's matrices
    along them; `is_band` reads its longest window off the word kernel."""
    readers = {(path.name, node.name) for path in MODULES for node in ast.parse(path.read_text()).body
               if any(isinstance(sub, ast.Attribute) and sub.attr == "relations"
                      for sub in ast.walk(node))}
    assert readers == {("algebra.py", "validate_string_algebra"), ("strings.py", "_kernel"),
                       ("artrans.py", "kernel"), ("modules.py", "relations_vanish")}


def _unbounded_caches():
    """(module, function, its parameters) of every function the package
    caches without a bound: `lru_cache(maxsize=None)` or `cache`."""
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            for dec in getattr(node, "decorator_list", ()):
                unbounded = getattr(dec, "id", None) == "cache" or (
                    getattr(getattr(dec, "func", None), "id", None) == "lru_cache"
                    and any(kw.arg == "maxsize" and getattr(kw.value, "value", 0) is None
                            for kw in dec.keywords))
                if unbounded:
                    yield path.name, node.name, [a.arg for a in node.args.args]


def test_no_unbounded_cache_is_keyed_by_a_size():
    """An unbounded cache is keyed only by what a process holds few of: a
    presentation `p`, a vertex count `n`, a vertex and sign, a field `char`.
    A size such as a bound or a delta-length would keep every output it
    was asked for, a verdict's bands among them, alive for the process."""
    keys = {"p", "n", "i", "sign", "char"}
    caches = list(_unbounded_caches())
    assert ("modules.py", "count_table", ["p"]) in caches
    assert [c for c in caches if not keys.issuperset(c[2])] == []


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


def test_importing_the_package_leaves_json_to_the_exports():
    """`import strandbox` does not load `json`: `GLSReport.to_json` and
    `component_to_json` import it when called, and only the CLI loads it up
    front."""
    probe = "import sys, strandbox; print('json' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_every_class_but_the_exceptions_is_slotted():
    """No record gets attributes bolted on after construction: every class
    the package defines declares `__slots__`, so none has a `__dict__`."""
    unslotted = []
    for path in MODULES:
        module = importlib.import_module(f"strandbox.{path.stem}")
        for name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__ \
                    and not issubclass(cls, BaseException) and "__slots__" not in vars(cls):
                unslotted.append(f"{path.stem}.{name}")
    assert unslotted == []


def test_no_class_derives_from_a_builtin_container():
    """A record holds its fields in slots and a table is a plain container:
    no class the package defines derives from `dict`, `list`, `set`,
    `frozenset` or `tuple`, so none carries state beside its items."""
    containers = {"dict", "list", "set", "frozenset", "tuple"}
    derived = [f"{path.stem}.{node.name}" for path in MODULES
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
               and any(isinstance(base, ast.Name) and base.id in containers for base in node.bases)]
    assert derived == []


def test_only_the_command_line_main_prints():
    """The subcommands return their lines, and `cli.main` alone prints them,
    refusals included: no other definition of the package calls `print` or
    reads `sys.stdout` or `sys.stderr`."""
    def prints(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print") or (
            isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and getattr(node.value, "id", None) == "sys")

    printers = {(path.name, getattr(node, "name", "<module>")) for path in MODULES
                for node in ast.parse(path.read_text()).body if any(map(prints, ast.walk(node)))}
    assert printers == {("cli.py", "main")}
