"""Boundary tracing of the strandbox layers, installed from outside the library.

Every function that one package module imports from another is replaced, in
the importing module's namespace, by a span that times the call and records
which layer called it.  A few functions that a later optimisation targets
(`NAMED`) are also wrapped in their own module, so calls from inside the
layer count too.  The package's exported functions are wrapped as the entry
calls the benchmark makes.  Classes are left alone: wrapping them would
break `isinstance`.

Spans are not kept one by one.  Each wrapped function accumulates calls,
boundary calls (caller in another layer), inclusive and self time, where
self time is the span minus the time of the spans it caused.  The tracer's
own bookkeeping is timed separately and charged to no layer, so

    sum(layer self time) + time in the benchmark's own code + bookkeeping
        = traced wall time.
"""

from __future__ import annotations

import importlib
import time
import types

LAYERS = ("algebra", "strings", "modules", "linalg", "artrans", "roots", "verify")

# Functions also wrapped in their home module, so that calls from inside the
# layer count: the memoisation and Hom work of later changes acts on these.
NAMED = {
    "artrans": ("tau", "tau_inv", "ar_sequence_starting_at"),
    "strings": ("canonical_string", "can_append"),
    "modules": ("build_representation", "hom_dim"),
    "linalg": ("mat_rank",),
    "verify": ("tau_locally_free_rank_vectors",),
}

# Verifier stages: inclusive time of these calls when made from `verify`.
STAGES = {
    "enumerate_positive_roots": "roots_s",
    "tau_locally_free_rank_vectors": "witnesses_s",
    "is_rigid": "rigidity_s",
}

WITNESS_FAMILIES = ("preprojective", "preinjective", "tube", "band")


class Tracer:
    """Per-function span aggregates for one traced call sequence.

    Use as a context manager around the calls to trace; leaving it restores
    every patched name.
    """

    def __init__(self):
        self.root = ["bench", 0.0]  # [layer, time covered by child spans]
        self.stack = [self.root]
        self.functions = {}  # "layer.name" -> [calls, boundary calls, total s, self s]
        self.bookkeeping_s = 0.0
        self.stages = {v: 0.0 for v in STAGES.values()}
        self.witnesses = {f: 0 for f in WITNESS_FAMILIES}
        self.tau_seen = set()
        self.tau_letters = 0
        self.tau_strings = 0
        self.ar_seen = set()
        self.hom_unknowns = 0
        self.mat_rank_cells = 0
        self._undo = []
        self._start = None
        self.wall_s = None

    # -- installation -------------------------------------------------------

    def __enter__(self):
        package = importlib.import_module("strandbox")
        modules = {name: importlib.import_module(f"strandbox.{name}") for name in LAYERS}
        home = {mod.__name__: name for name, mod in modules.items()}
        pristine = {name: dict(vars(mod)) for name, mod in modules.items()}
        self._string_module = package.StringModule
        self._dim_vector = pristine["modules"]["dim_vector"]

        def layer_of(value):
            if isinstance(value, type) or not callable(value):
                return None
            return home.get(getattr(value, "__module__", None))

        for layer, names in pristine.items():
            for attr, value in names.items():
                if isinstance(value, types.ModuleType) and value.__name__ in home \
                        and home[value.__name__] != layer:
                    self._patch(modules[layer], attr, self._proxy(value, home[value.__name__]))
                    continue
                callee = layer_of(value)
                if callee is not None and callee != layer:
                    self._patch(modules[layer], attr, self._span(value, callee))
        for layer, names in NAMED.items():
            for attr in names:
                self._patch(modules[layer], attr, self._span(pristine[layer][attr], layer))
        for attr, value in dict(vars(package)).items():
            callee = layer_of(value)
            if callee is not None:
                self._patch(package, attr, self._span(value, callee))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()
        return False

    def _patch(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _proxy(self, module, layer):
        """A stand-in for `module` whose functions are spans (modules.roots)."""
        proxy = types.ModuleType(module.__name__)
        for attr, value in vars(module).items():
            if callable(value) and not isinstance(value, type) \
                    and getattr(value, "__module__", None) == module.__name__:
                value = self._span(value, layer)
            setattr(proxy, attr, value)
        return proxy

    # -- spans --------------------------------------------------------------

    def _span(self, fn, layer):
        name = fn.__name__
        rec = self.functions.setdefault(f"{layer}.{name}", [0, 0, 0.0, 0.0])
        pre = {
            "tau": self._note_tau,
            "tau_inv": self._note_tau,
            "ar_sequence_starting_at": self._note_ar_seq,
            "hom_dim": self._note_hom,
            "mat_rank": self._note_mat_rank,
        }.get(name)
        post = self._note_witnesses if name == "tau_locally_free_rank_vectors" else None
        stage = STAGES.get(name)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            t0 = clock()
            if pre is not None:
                pre(name, args)
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            ok = False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = clock()
                stack.pop()
                dur = t2 - t1
                rec[0] += 1
                if parent[0] != layer:
                    rec[1] += 1
                rec[2] += dur
                rec[3] += dur - frame[1]
                if stage is not None and parent[0] == "verify":
                    tracer.stages[stage] += dur
                if ok and post is not None:
                    post(result)
                book = (t1 - t0) + (clock() - t2)
                tracer.bookkeeping_s += book
                parent[1] += dur + book
            return result

        span.__name__ = name
        span.__doc__ = fn.__doc__
        return span

    def _note_tau(self, name, args):
        m = args[0]
        self.tau_seen.add((name, m))
        if isinstance(m, self._string_module):
            self.tau_letters += sum(self._dim_vector(m)) - 1
            self.tau_strings += 1

    def _note_ar_seq(self, name, args):
        self.ar_seen.add(args[0])

    def _note_hom(self, name, args):
        x, y = args[0], args[1]
        self.hom_unknowns += sum(a * b for a, b in zip(x.dims, y.dims))

    def _note_mat_rank(self, name, args):
        rows = args[0]
        self.mat_rank_cells += len(rows) * (len(rows[0]) if rows else 0)

    def _note_witnesses(self, table):
        for ws in table.values():
            for w in ws:
                self.witnesses[w.family] += 1

    # -- output -------------------------------------------------------------

    def summary(self):
        """Plain-data aggregates; sums of these over samples stay meaningful."""
        return {
            "wall_s": self.wall_s,
            "bench_s": self.wall_s - self.root[1],
            "bookkeeping_s": self.bookkeeping_s,
            "functions": {k: rec for k, rec in self.functions.items() if rec[0]},
            "stages": self.stages,
            "witnesses": self.witnesses,
            "tau_distinct": len(self.tau_seen),
            "tau_letters": self.tau_letters,
            "tau_strings": self.tau_strings,
            "ar_distinct": len(self.ar_seen),
            "hom_unknowns": self.hom_unknowns,
            "mat_rank_cells": self.mat_rank_cells,
        }
