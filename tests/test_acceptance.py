"""Acceptance criteria for the package, one test per criterion.

Each test prints a single pass line on success; tolerances are exact
(integer/rational arithmetic throughout).
"""

import itertools
import random
import time

from strandbox import (
    ar_sequence_starting_at,
    band_module,
    build_component,
    build_type_C_algebra,
    canonical_band,
    canonical_string,
    cartan,
    check_coxeter_compatibility,
    check_gls,
    check_tube_invariants,
    classify_component,
    closed_form_positive_roots,
    delta,
    dim_vector,
    enumerate_bands,
    enumerate_positive_roots,
    enumerate_strings,
    format_module,
    index,
    injective_string,
    is_band,
    is_injective,
    is_projective,
    is_string,
    minimal_strings,
    parse_word,
    projective_string,
    quadratic,
    rank_vector,
    reflect,
    ringel_form,
    admissible_sequences,
    build_representation,
    simple_module,
    string_module,
    sym_form,
    tau,
    tau_inv,
    tau_locally_free_rank_vectors,
    tube_bottom,
)
from strandbox.algebra import arrow_named
from strandbox.modules import relations_vanish
from strandbox.strings import Letter, word

from conftest import all_orientations
from oracles import fails_tau_local_freeness, raw_string_class_count

W1 = "a21~.a32~.e3.a32.a21"
W2 = "e1.a21~.a32~.e3.a32.a21"


def _as_int(rep, name):
    """The matrix of arrow `name`, densified from `dims` and the sparse dict."""
    a = arrow_named(rep.presentation)[name]
    return [[rep.mats[name].get((r, c), 0) for c in range(rep.dims[a.source - 1])]
            for r in range(rep.dims[a.target - 1])]


def test_criterion_1_paper_example_regression(a3):
    t0 = time.time()
    w1 = parse_word(a3, W1)
    assert is_string(w1) and not is_band(w1)
    w2 = parse_word(a3, W2)
    assert is_band(w2)
    m1 = string_module(w1)
    assert dim_vector(m1) == (2, 2, 2)
    rep = build_representation(m1)
    # walk-order basis: the e3 action is the 2x2 nilpotent Jordan block,
    # spine arrows act as identities, e1 acts by zero
    assert _as_int(rep, "e3") == [[0, 1], [0, 0]]
    assert _as_int(rep, "e1") == [[0, 0], [0, 0]]
    assert _as_int(rep, "a21") == [[1, 0], [0, 1]]
    assert _as_int(rep, "a32") == [[1, 0], [0, 1]]
    lam = 5
    band = band_module(canonical_band(w2), (-lam, 1), 1)
    rep2 = build_representation(band)
    assert rep2.dims == (2, 2, 2)
    assert _as_int(rep2, "e1") == [[0, lam], [0, 0]]
    assert _as_int(rep2, "e3") == [[0, 1], [0, 0]]
    assert relations_vanish(rep) and relations_vanish(rep2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS - paper string/band/module regression ({elapsed:.2f}s)")


def test_criterion_2_tube_reproduction():
    t0 = time.time()
    cases = [
        (4, "RRR", ["e4.a43.a32.a21.e1", "triv(3)", "triv(2)"]),
        (5, "RRLR", ["a32.a21.e1", "e5.a54", "a34", "triv(2)"]),
        (4, "RRL", ["a32.a21.e1", "a34.e4", "triv(2)"]),
    ]
    for n, orient, expected_texts in cases:
        p = build_type_C_algebra(n, orient)
        expected = [string_module(parse_word(p, t)) for t in expected_texts]
        assert tube_bottom(p) == expected, (n, orient)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS - tube bottoms match the three listed orbits ({elapsed:.2f}s)")


def test_criterion_3_theorem_a_structure():
    for n in (3, 4, 5):
        t0 = time.time()
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            g = build_component(projective_string(p, 1), 2 * n)
            keys = set(g.nodes)
            for i in p.vertices:
                assert format_module(projective_string(p, i)) in keys
                assert format_module(injective_string(p, i)) in keys
            bottom = tube_bottom(p)
            dims = [dim_vector(m) for m in bottom]
            assert tuple(sum(c) for c in zip(*dims)) == (2,) * n
            ranks = [rank_vector(m) for m in bottom]
            assert tuple(sum(c) for c in zip(*ranks)) == delta(cartan(n))
            for m in minimal_strings(p, max_len=12)[(2, 2)]:
                kind, _ = classify_component(m)
                assert kind == "ZAInfInf"
        elapsed = time.time() - t0
        assert elapsed < 30.0
        print(f"criterion 3: PASS - Theorem A structure for n={n}, "
              f"all {2 ** (n - 1)} orientations ({elapsed:.1f}s)")


def test_criterion_4_theorem_b_double_entry():
    t0 = time.time()
    # witness families re-validated along tau-orbits with |k| <= 10
    # (tau_locally_free_rank_vectors raises on any failure)
    for n in (3, 4):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            tau_locally_free_rank_vectors(p, 12)
    # no module of a ZA-infinity window is tau-locally free (the paper's
    # statement; plain local freeness does occur off the rays)
    for n in (3, 4):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            for m in minimal_strings(p, max_len=10)[(2, 2)]:
                g = build_component(m, 4)
                for node in g.nodes.values():
                    assert fails_tau_local_freeness(node, 10), format_module(node)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"criterion 4: PASS - Theorem B double entry ({elapsed:.1f}s)")


def test_criterion_5_theorem_c_corollary_d():
    t0 = time.time()
    for n in (3, 4, 5):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            report = check_gls(p, 14)
            assert report.passed, (n, orient, report.problems,
                                   report.missing, report.extra)
            tube_rep = check_tube_invariants(p)
            assert tube_rep.passed, (n, orient, tube_rep.problems)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"criterion 5: PASS - rank vectors = positive roots at bound 14, "
          f"n in 3..5, every orientation ({elapsed:.1f}s)")


def test_criterion_6_coxeter_compatibility():
    t0 = time.time()
    checked = 0
    for n in (3, 4, 5):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            for polarity in ("+", "-"):
                for seq in admissible_sequences(p.orientation, polarity):
                    rep = check_coxeter_compatibility(p, seq, 6)
                    assert rep.passed, (n, orient, seq, rep.problems)
                    checked += 1
    elapsed = time.time() - t0
    print(f"criterion 6: PASS - Coxeter compatibility over {checked} admissible "
          f"sequences ({elapsed:.1f}s)")


def test_criterion_7_oracle_equivalences():
    t0 = time.time()
    # string enumeration vs the raw DFS oracle
    for n, orient, max_len in ((3, "RR", 8), (3, "LR", 8), (4, "RRL", 8), (5, "RLRL", 8)):
        p = build_type_C_algebra(n, orient)
        assert len(enumerate_strings(p, max_len)) == raw_string_class_count(p, max_len)
    # closed-form roots vs reflection BFS
    for n in (3, 4, 5):
        cd = cartan(n)
        bfs = enumerate_positive_roots(cd, 14)
        for orient in all_orientations(n):
            omega = tuple(orient)
            for seq in admissible_sequences(omega, "+"):
                assert closed_form_positive_roots(cd, omega, seq, 14) == bfs
    # canonical idempotence over 10^4 random words
    p = build_type_C_algebra(4, "RLR")
    rng = random.Random(20240810)
    checked = 0
    attempts = 0
    while checked < 10_000 and attempts < 400_000:
        attempts += 1
        letters = tuple(Letter(rng.choice(p.arrows), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 8)))
        w = word(p, letters)
        if not is_string(w):
            continue
        checked += 1
        c = canonical_string(w)
        assert canonical_string(c) == c
        assert canonical_string(w.inverse) == c
    assert checked == 10_000
    elapsed = time.time() - t0
    print(f"criterion 7: PASS - oracle equivalences and 10^4 canonical "
          f"round trips ({elapsed:.1f}s)")


def test_criterion_8_property_suites():
    t0 = time.time()
    # AR-sequence dimension exactness + index membership + inverse laws
    exact_cases = 0
    index_cases = 0
    inverse_cases = 0
    pool = []
    for n, orient, max_len in ((3, "RR", 12), (3, "RL", 12), (3, "LL", 10),
                               (4, "RRR", 10), (4, "LRL", 10), (4, "RRL", 10),
                               (5, "RRLR", 8), (5, "LRLR", 8)):
        p = build_type_C_algebra(n, orient)
        pool.extend(string_module(w) for w in enumerate_strings(p, max_len))
        pool.extend(band_module(b, level=lv) for b in enumerate_bands(p, 1) for lv in (1, 2))
    for m in pool:
        seq = ar_sequence_starting_at(m)
        if seq is not None:
            mids = [dim_vector(x) for x in seq.middle]
            lhs = tuple(sum(c) for c in zip(*mids))
            rhs = tuple(a + b for a, b in zip(dim_vector(seq.left), dim_vector(seq.right)))
            assert lhs == rhs
            exact_cases += 1
        if hasattr(m, "word"):
            assert index(m.word) in {(0, 1), (1, 0), (1, 1), (0, 2), (2, 0),
                                     (1, 2), (2, 1), (2, 2)}
            index_cases += 1
            if not is_projective(m):
                assert tau_inv(tau(m)) == m
                inverse_cases += 1
            if not is_injective(m):
                assert tau(tau_inv(m)) == m
                inverse_cases += 1
    assert exact_cases >= 1000 and index_cases >= 1000 and inverse_cases >= 1000
    # reflection invariance of q and the bilinear identity
    rng = random.Random(8)
    form_cases = 0
    for _ in range(1000):
        n = rng.choice((3, 4, 5))
        cd = cartan(n)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        y = tuple(rng.randint(-5, 5) for _ in range(n))
        i = rng.randint(1, n)
        assert quadratic(cd, reflect(cd, i, x)) == quadratic(cd, x)
        omega = tuple(rng.choice("RL") for _ in range(n - 1))
        assert ringel_form(cd, omega, x, y) + ringel_form(cd, omega, y, x) == sym_form(cd, x, y)
        form_cases += 1
    assert form_cases >= 1000
    elapsed = time.time() - t0
    print(f"criterion 8: PASS - property suites ({exact_cases} exactness, "
          f"{index_cases} index, {inverse_cases} inverse-law, {form_cases} form cases; "
          f"{elapsed:.1f}s)")
