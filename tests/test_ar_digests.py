"""Golden AR calculus: SHA-256 digests of tube, component and string tables.

The digests in ``data/ar_digests.json`` pin, for every orientation with
n = 3 and 4:

- the JSON and the DOT of ``tube_rank(p, 5)``;
- the JSON and the DOT of ``build_component`` at radius 6 from ``P_1``
  and from ``triv(2)``;
- ``minimal_strings(p, 8)``;
- for every string of length <= 6: its index, minimality, AR-sequence
  (case, middle terms, end), tau and component kind.

A change to the hook calculus that alters any of these shows up here.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_ar_digests.py``.
"""

import hashlib
import itertools
import json
import pathlib

import pytest

from strandbox import (
    ar_sequence_starting_at,
    build_component,
    build_type_C_algebra,
    classify_component,
    component_to_dot,
    component_to_json,
    enumerate_strings,
    format_module,
    format_word,
    index,
    is_minimal,
    minimal_strings,
    projective_string,
    simple_module,
    string_module,
    tau,
    tube_rank,
)

DATA = pathlib.Path(__file__).parent / "data" / "ar_digests.json"

ORIENTATIONS = [(n, "".join(bits)) for n in (3, 4) for bits in itertools.product("RL", repeat=n - 1)]
PARTS = ("tube", "component_P1", "component_triv2", "minimal", "strings",
         "tube_dot", "component_P1_dot", "component_triv2_dot")


def _strings_table(p):
    lines = []
    for w in enumerate_strings(p, 6):
        m = string_module(w)
        seq = ar_sequence_starting_at(m)
        seq_text = "injective" if seq is None else f"{seq.case_tag}: {seq!r}"
        lines.append(" | ".join((
            format_word(w), str(index(w)), str(is_minimal(w)), seq_text,
            format_module(tau(m)), str(classify_component(m)),
        )))
    return "\n".join(lines)


def _minimal_table(p):
    table = minimal_strings(p, 8)
    return json.dumps({str(t): [format_module(m) for m in mods] for t, mods in table.items()})


def texts(n, orient):
    """The text of each pinned part for one presentation."""
    p = build_type_C_algebra(n, orient)
    windows = {
        "tube": lambda: tube_rank(p, 5),
        "component_P1": lambda: build_component(projective_string(p, 1), 6),
        "component_triv2": lambda: build_component(simple_module(p, 2), 6),
    }
    parts = {"minimal": lambda: _minimal_table(p), "strings": lambda: _strings_table(p)}
    for name, window in windows.items():
        parts[name] = lambda window=window: component_to_json(window())
        parts[name + "_dot"] = lambda window=window: component_to_dot(window())
    return parts


def case_id(n, orient, part):
    return f"{n}/{orient}/{part}"


CASES = [(n, orient, part) for n, orient in ORIENTATIONS for part in PARTS]


def digest(n, orient, part):
    return hashlib.sha256(texts(n, orient)[part]().encode()).hexdigest()


def test_digest_file_covers_every_case():
    assert sorted(json.loads(DATA.read_text())) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_id(*c))
def test_ar_output_matches_golden_digest(case):
    assert digest(*case) == json.loads(DATA.read_text())[case_id(*case)]


if __name__ == "__main__":
    DATA.write_text(json.dumps({case_id(*c): digest(*c) for c in CASES}, indent=2) + "\n")
