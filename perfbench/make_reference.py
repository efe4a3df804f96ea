"""Regenerate reference.json, the committed values the hom_dense and
ar_window checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

It covers every input a seed can pick: the hom_dense orientations, all
orientations of the ar_window presentation, every band of delta-length 1
and 2, and the first three ZA-infinity-infinity minimal strings.  Run it
only when a change is meant to alter these values, and say why in the
change.
"""

from __future__ import annotations

import itertools
import json

import strandbox as sb
import workloads as wl


def hom_reference(orientation):
    p = sb.build_type_C_algebra(wl.HOM_N, orientation)
    spec = {"item": "strings", "orientation": orientation}
    _, mods = wl.setup("hom_dense", spec)
    strings = {}
    for i in p.vertices:
        for j in p.vertices:
            x, y = mods[f"P{i}"], mods[f"I{j}"]
            strings[f"P{i}>I{j}"] = sb.hom_dim_modules(x, y)
            strings[f"I{j}>P{i}"] = sb.hom_dim_modules(y, x)
    bands = {item: {} for item in wl.HOM_LEVELS}
    param = sb.canonical_simple_param(1)
    for b in sb.enumerate_bands(p, 2):
        item = f"band_dl{sb.delta_length(b)}"
        bands[item][sb.format_word(b)] = [
            sb.hom_dim_modules(m, m)
            for m in (sb.band_module(b, param, lv) for lv in wl.HOM_LEVELS[item])]
    return {"strings": strings, "bands": bands}


def component_reference(seed):
    g = sb.build_component(seed, wl.AR_RADIUS)
    return {"nodes": len(g.nodes), "digest": wl.node_digest(g.nodes), "kind": g.kind}


def ar_reference(orientation):
    p = sb.build_type_C_algebra(wl.AR_N, orientation)
    za = sb.minimal_strings(p, max_len=12)[(2, 2)][:3]
    return {
        "za": {sb.format_module(m): component_reference(m) for m in za},
        "p1": component_reference(sb.projective_string(p, 1)),
    }


def orientations(n):
    return ["".join(bits) for bits in itertools.product("RL", repeat=n - 1)]


def main():
    doc = {
        "hom_dense": {o: hom_reference(o) for o in wl.HOM_ORIENTATIONS},
        "ar_window": {o: ar_reference(o) for o in orientations(wl.AR_N)},
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
