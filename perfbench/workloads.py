"""The four workloads: inputs from a seed, the timed calls, reference checks.

A workload is a list of items.  One cold sample runs one item in a fresh
interpreter:

* `plan(workload, seed, reference)` turns the seed into plain data (an
  orientation, a Coxeter sequence, a band's text) for every item;
* `setup(workload, spec)` builds library values from that data;
* `run(workload, spec, inputs)` makes the timed library calls;
* `check(workload, spec, outputs, reference)` compares the results with a
  reference that does not share the timed code path, and returns
  (attempted, failed, problems).

Why each workload exists, and which layer counters it should move, is in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import strandbox as sb
from strandbox.linalg import scalar_from_spec

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# check_gls sizes: (n, height bound).
GLS_SIZES = ((3, 14), (4, 14), (5, 14), (6, 20), (7, 21), (8, 28))
# check_coxeter_compatibility sizes: (n, depth); each orbit takes depth + 1 steps.
ORBIT_SIZES = ((3, 60), (4, 52), (5, 45))
# hom_dense: presentation size, orbit step of the string modules, band levels.
# The orientations with one change of direction are images of each other
# under reversal and under flipping every arrow, and their Hom systems have
# the same sizes; linear (RRR) and alternating (RLR) ones give systems 40%
# larger or 10% smaller, which would make a run's time depend on its seed.
HOM_N = 4
HOM_ORIENTATIONS = ("RRL", "RLL", "LRR", "LLR")
HOM_STEP = 3
HOM_LEVELS = {"band_dl1": (1, 2, 3, 4), "band_dl2": (1, 2, 3)}
HOM_FIELDS = ("rat", "fp:101")
# ar_window: presentation size and component radius.
AR_N = 3
AR_RADIUS = 12

ITEMS = {
    "gls_sweep": tuple(f"n{n}" for n, _ in GLS_SIZES),
    "orbit_deep": tuple(f"n{n}" for n, _ in ORBIT_SIZES),
    "hom_dense": ("strings", "band_dl1", "band_dl2"),
    "ar_window": ("za", "p1"),
}


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seed -> plain data
# ---------------------------------------------------------------------------

def random_orientation(rng, n):
    return "".join(rng.choice("RL") for _ in range(n - 1))


def _is_end(orientation, v, sink):
    """Whether v is a sink (or a source) of the spine; edge k joins k and k+1
    and reads 'R' for k -> k+1."""
    n = len(orientation) + 1
    left, right = ("R", "L") if sink else ("L", "R")
    return (v == 1 or orientation[v - 2] == left) and (v == n or orientation[v - 1] == right)


def random_admissible_sequence(rng, orientation, polarity):
    """A random +-admissible (sinks first) or --admissible (sources) ordering,
    written independently of `strandbox.roots`."""
    sink = polarity == "+"
    omega = list(orientation)
    remaining = set(range(1, len(omega) + 2))
    seq = []
    while remaining:
        choices = sorted(v for v in remaining if _is_end(omega, v, sink))
        if not choices:
            raise RuntimeError(f"no admissible vertex left for {orientation}")
        v = rng.choice(choices)
        seq.append(v)
        remaining.discard(v)
        for k in (v - 1, v):  # flip the spine edges at v
            if 1 <= k <= len(omega):
                omega[k - 1] = "L" if omega[k - 1] == "R" else "R"
    return tuple(seq)


def plan(workload, seed, reference):
    """Plain-data inputs of every item, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gls_sweep":
        out = {}
        for n, bound in GLS_SIZES:
            o = random_orientation(rng, n)
            out[f"n{n}"] = {"n": n, "bound": bound, "orientation": o,
                            "seq": random_admissible_sequence(rng, o, "+")}
        return out
    if workload == "orbit_deep":
        out = {}
        for n, depth in ORBIT_SIZES:
            o = random_orientation(rng, n)
            polarity = rng.choice("+-")
            out[f"n{n}"] = {"n": n, "depth": depth, "orientation": o,
                            "seq": random_admissible_sequence(rng, o, polarity)}
        return out
    if workload == "hom_dense":
        o = rng.choice(HOM_ORIENTATIONS)
        bands = reference["hom_dense"][o]["bands"]
        out = {"strings": {"item": "strings", "orientation": o}}
        for item, levels in HOM_LEVELS.items():
            text = rng.choice(sorted(bands[item]))
            out[item] = {"item": item, "orientation": o, "band": text, "levels": levels}
        return out
    if workload == "ar_window":
        o = random_orientation(rng, AR_N)
        za = rng.choice(sorted(reference["ar_window"][o]["za"]))
        return {"za": {"orientation": o, "seed": za}, "p1": {"orientation": o, "seed": "P_1"}}
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# plain data -> library values
# ---------------------------------------------------------------------------

def orbit(m, step, k):
    for _ in range(k):
        m = step(m)
    return m


def setup(workload, spec):
    if workload in ("gls_sweep", "orbit_deep"):
        return sb.build_type_C_algebra(spec["n"], spec["orientation"])
    if workload == "hom_dense":
        p = sb.build_type_C_algebra(HOM_N, spec["orientation"])
        fields = {f: scalar_from_spec(f) for f in HOM_FIELDS}
        if spec["item"] == "strings":
            mods = {}
            for i in p.vertices:
                mods[f"P{i}"] = orbit(sb.projective_string(p, i), sb.tau_inv, HOM_STEP)
                mods[f"I{i}"] = orbit(sb.injective_string(p, i), sb.tau, HOM_STEP)
            return fields, mods
        band = sb.parse_band(p, spec["band"])
        param = sb.canonical_simple_param(1)
        return fields, {lv: sb.band_module(band, param, lv) for lv in spec["levels"]}
    if workload == "ar_window":
        p = sb.build_type_C_algebra(AR_N, spec["orientation"])
        if spec["seed"] == "P_1":
            return sb.projective_string(p, 1)
        return sb.parse_module(p, spec["seed"])
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# the timed calls
# ---------------------------------------------------------------------------

def run(workload, spec, inputs):
    """The timed library calls; returns (outputs, work units done)."""
    if workload == "gls_sweep":
        report = sb.check_gls(inputs, spec["bound"])
        return report, len(report.matched_real) + len(report.matched_imaginary)
    if workload == "orbit_deep":
        report = sb.check_coxeter_compatibility(inputs, spec["seq"], spec["depth"])
        return report, 2 * spec["n"] * (spec["depth"] + 1)
    if workload == "hom_dense":
        fields, mods = inputs
        out = {}
        if spec["item"] == "strings":
            for f, scalar in fields.items():
                for i in range(1, HOM_N + 1):
                    x = mods[f"P{i}"]
                    for j in range(1, HOM_N + 1):
                        y = mods[f"I{j}"]
                        out[f, f"P{i}>I{j}"] = sb.hom_dim_modules(x, y, scalar)
                        out[f, f"I{j}>P{i}"] = sb.hom_dim_modules(y, x, scalar)
                for label, m in mods.items():
                    out[f, f"rigid {label}"] = sb.is_rigid(m, scalar)
        else:
            for f, scalar in fields.items():
                for lv, m in mods.items():
                    out[f, lv] = sb.hom_dim_modules(m, m, scalar)
        return out, len(out)
    if workload == "ar_window":
        g = sb.build_component(inputs, AR_RADIUS)
        return g, len(g.nodes)
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------

def normal_text(text):
    """A module's text with the word read in the smaller of its two directions.

    Strings are identified with their inverses, so this is content, not
    output bytes: a change of canonical representative keeps it.
    """
    if "(" in text:
        return text
    letters = text.split(".")
    inverse = [c[:-1] if c.endswith("~") else c + "~" for c in reversed(letters)]
    return ".".join(min(letters, inverse))


def node_digest(texts):
    joined = "\n".join(sorted(normal_text(t) for t in texts))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def check(workload, spec, outputs, reference):
    """(attempted, failed, problems) for one item's outputs."""
    problems = []
    if workload == "gls_sweep":
        report = outputs
        if not report.passed:
            problems.append(f"check_gls failed: {report.missing=} {report.extra=} {report.problems[:3]}")
        cd = sb.cartan(spec["n"])
        expected = sb.closed_form_positive_roots(cd, spec["orientation"], spec["seq"], spec["bound"])
        got = set(report.matched_real) | set(report.matched_imaginary)
        if got != expected:
            problems.append(f"matched roots differ from the closed form: "
                            f"{len(got - expected)} extra, {len(expected - got)} missing")
        return 1, int(bool(problems)), problems
    if workload == "orbit_deep":
        if not outputs.passed:
            problems.extend(outputs.problems[:3])
        return 1, int(bool(problems)), problems
    if workload == "hom_dense":
        ref = reference["hom_dense"][spec["orientation"]]
        if spec["item"] == "strings":
            # Preprojective and preinjective modules are directing, hence rigid.
            expected = dict(ref["strings"])
            expected.update({f"rigid {kind}{i}": True
                             for kind in "PI" for i in range(1, HOM_N + 1)})
        else:
            values = ref["bands"][spec["item"]][spec["band"]]
            expected = dict(zip(spec["levels"], values))
        failed = 0
        for key, want in expected.items():
            got = [outputs[f, key] for f in HOM_FIELDS]
            if any(g != want for g in got):
                failed += 1
                problems.append(f"{key}: {dict(zip(HOM_FIELDS, got))} != reference {want}")
        return len(expected), failed, problems
    if workload == "ar_window":
        g = outputs
        seed = spec["seed"]
        want = reference["ar_window"][spec["orientation"]]["p1" if seed == "P_1" else "za"]
        if seed != "P_1":
            want = want[seed]
        got = {"nodes": len(g.nodes), "digest": node_digest(g.nodes), "kind": g.kind}
        if got != want:
            problems.append(f"component of {seed}: {got} != reference {want}")
        return 1, int(bool(problems)), problems
    raise KeyError(workload)

