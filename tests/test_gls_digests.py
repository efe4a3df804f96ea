"""Golden verdicts: SHA-256 digests of ``check_gls(p, bound).to_json()``.

The digests in ``data/gls_digests.json`` pin the full JSON report (every
witness label, in order) for every orientation with n <= 5 at bound 14 and
for three larger cases.  A change to the word kernel or the AR calculus that
alters any verdict or witness shows up here.

Regenerate (only when a verdict change is intended) with
``PYTHONPATH=src python tests/test_gls_digests.py``.
"""

import hashlib
import itertools
import json
import pathlib

import pytest

from strandbox import build_type_C_algebra, check_gls

DATA = pathlib.Path(__file__).parent / "data" / "gls_digests.json"

CASES = [
    (n, "".join(bits), 14)
    for n in (3, 4, 5)
    for bits in itertools.product("RL", repeat=n - 1)
] + [(6, "RRLRL", 20), (7, "RLLRRL", 21), (8, "RRLRLRR", 28)]


def case_id(n, orient, bound):
    return f"{n}/{orient}/{bound}"


def digest(n, orient, bound):
    report = check_gls(build_type_C_algebra(n, orient), bound)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_digest_file_covers_every_case():
    assert sorted(json.loads(DATA.read_text())) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: case_id(*c))
def test_gls_report_matches_golden_digest(case):
    assert digest(*case) == json.loads(DATA.read_text())[case_id(*case)]


if __name__ == "__main__":
    DATA.write_text(json.dumps({case_id(*c): digest(*c) for c in CASES}, indent=2) + "\n")
