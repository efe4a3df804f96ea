import gc
import json
import re
from collections import Counter
from itertools import product

import pytest

from strandbox import (
    ZERO,
    Band,
    DomainError,
    InternalCheckError,
    Letter,
    StringModule,
    UnsupportedPresentation,
    ar_sequence_starting_at,
    band_module,
    beta,
    build_component,
    build_representation,
    build_type_C_algebra,
    canonical_simple_param,
    cartan,
    check_coxeter_compatibility,
    check_gls,
    check_tube_invariants,
    classify_component,
    closed_form_families,
    coxeter,
    delta,
    delta_length,
    enumerate_bands,
    enumerate_positive_roots,
    enumerate_strings,
    format_module,
    hom_dim,
    hom_dim_modules,
    injective_string,
    is_rigid,
    minimal_strings,
    parse_band,
    projective_string,
    quadratic,
    rank_vector,
    ringel_form,
    spine_walk_word,
    tau,
    tau_inv,
    tau_locally_free_rank_vectors,
    trivial_word,
    tube_bottom,
    tube_rank,
)
from strandbox import artrans, verify
from strandbox.cli import main
from strandbox.linalg import is_irreducible_mod
from strandbox.roots import height

from conftest import all_orientations
from oracles import fails_tau_local_freeness, orbit_witnesses_by_window
from test_fast_paths import KRONECKER
from test_word_kernel import linear_a4_with_a_cubic_relation


def test_preprojective_ranks_follow_coxeter(a3):
    cd = cartan(3)
    seq = (3, 2, 1)
    cox = coxeter(cd, seq)
    for k, i in enumerate(seq, start=1):
        m = projective_string(a3, i)
        expected = beta(cd, seq, k, "+")
        for r in range(6):
            assert rank_vector(m) == expected
            m = tau_inv(m)
            expected = cox.apply(expected, -1)


def test_witness_table_small(a3):
    table = tau_locally_free_rank_vectors(a3, 8)
    dl = delta(cd := cartan(3))
    assert dl in table
    ws = table[dl]
    families = {w.family for w in ws}
    assert "tube" in families and "band" in families
    tube_ws = [w for w in ws if w.family == "tube"]
    assert len(tube_ws) == 2  # n - 1 modules at level n - 1
    band_ws = [w for w in ws if w.family == "band"]
    assert len(band_ws) == 2  # two band classes of delta-length 1, deg 1, level 1
    # no witness sits in a ZA component
    for w in ws:
        kind, _ = classify_component(w.module)
        assert kind in ("TubeRank", "HomogeneousTube")
    # real roots have unique witnesses
    for root, witnesses in table.items():
        if quadratic(cd, root) in (1, 2):
            assert len(witnesses) == 1, root


def test_no_witness_fails_the_orbit_oracle():
    # the verifier walks each orbit once; the oracle walks from every witness
    for n in (3, 4, 5):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            for ws in tau_locally_free_rank_vectors(p, 14).values():
                for w in ws:
                    assert not fails_tau_local_freeness(w.module), (orient, w.label)


def test_check_gls_passes(a3):
    report = check_gls(a3, 12)
    assert report.passed
    assert not report.missing and not report.extra and not report.problems
    assert set(report.matched_real) | set(report.matched_imaginary) == \
        enumerate_positive_roots(cartan(3), 12)


def test_a_dropped_verdict_keeps_no_band_alive(a3):
    """The report is the only holder of a verdict's bands: once it is
    dropped, no `Band` it was built from stays alive.  The tube check runs
    first, so that the caches `check_gls` shares with it (the tau kernel,
    the Hom tallies of the tube bottom) are in the state it leaves them."""
    def bands():
        gc.collect()
        return sum(isinstance(x, Band) for x in gc.get_objects())

    check_tube_invariants(a3)
    before = bands()
    report = check_gls(a3, 20)
    assert report.passed and bands() > before
    del report
    assert bands() == before


def test_a_check_passes_exactly_when_it_has_no_problems():
    assert verify.CheckReport("tube-invariants", []).passed
    assert not verify.CheckReport("tube-invariants", ["bottom module is not rigid"]).passed


def test_band_witnesses_are_band_modules_over_the_field_of_the_check():
    """Over GF(7) every band witness has a parameter irreducible there, so that
    Hom(M, tau M) is defined (T^2 - 2 splits over GF(7)); over Q the witnesses
    keep T^s - 2, and the two tables agree on everything but the parameters."""
    p = build_type_C_algebra(3, "RR")
    over_q, over_7 = tau_locally_free_rank_vectors(p, 8), tau_locally_free_rank_vectors(p, 8, 7)
    bands_q = [w for ws in over_q.values() for w in ws if w.family == "band"]
    bands_7 = [w for ws in over_7.values() for w in ws if w.family == "band"]
    assert {w.module.param_degree for w in bands_7} == {1, 2}
    for w in bands_q:
        assert w.module.param == canonical_simple_param(w.module.param_degree)
    for w in bands_7:
        m = w.module
        assert is_irreducible_mod(m.param, 7)
        assert hom_dim_modules(m, tau(m), 7) == \
            hom_dim(build_representation(m, 7), build_representation(tau(m), 7))

    def shape(table):
        return {rv: [(w.family, w.label) for w in ws] for rv, ws in table.items()}

    assert shape(over_q) == shape(over_7)
    assert check_gls(p, 8, 7).passed


def test_check_gls_vacuous_bound(a3):
    report = check_gls(a3, 0)
    assert report.passed
    assert not report.matched_real and not report.matched_imaginary


def test_check_gls_imaginary_structure(a3):
    report = check_gls(a3, 8)
    dl = delta(cartan(3))
    ws = report.matched_imaginary[dl]
    tube_ws = [w for w in ws if w.family == "tube"]
    assert all(w.label.startswith("level 2") for w in tube_ws)
    two_delta = tuple(2 * v for v in dl)
    ws2 = report.matched_imaginary[two_delta]
    # factorizations of m=2 over each dl-1 band: (s,l) in {(1,2),(2,1)};
    # plus one dl-2 class exists per sign pattern at this bound
    assert len([w for w in ws2 if w.family == "tube"]) == 2


def test_check_gls_catches_a_lost_band_class(monkeypatch):
    """The expected band count does not come from `enumerate_bands`, so a
    class it loses is reported."""
    real = verify.enumerate_bands
    monkeypatch.setattr(verify, "enumerate_bands", lambda p, max_dl: real(p, max_dl)[:-1])
    report = check_gls(build_type_C_algebra(3, "RL"), 8)
    assert not report.passed
    assert "imaginary root (2, 4, 2): expected 7 band witnesses, got 6" in report.problems


def test_band_classes_are_half_the_lyndon_words():
    """Witt's count against the Lyndon words of each length over four letters,
    counted one by one."""
    counts = [verify._band_classes(t) for t in range(1, 9)]
    assert counts == [2, 3, 10, 30, 102, 335, 1170, 4080]
    lyndon = [sum(all(ks < ks[i:] + ks[:i] for i in range(1, t))
                  for ks in product(range(4), repeat=t)) for t in range(1, 9)]
    assert lyndon == [4, 6, 20, 60, 204, 670, 2340, 8160] == [2 * c for c in counts]


@pytest.mark.parametrize("orientation", all_orientations(3))
def test_band_classes_match_the_enumeration_per_delta_length(orientation):
    tally = [0] * 7
    for b in enumerate_bands(build_type_C_algebra(3, orientation), 6):
        tally[delta_length(b)] += 1
    assert tally[1:] == [verify._band_classes(t) for t in range(1, 7)]


def test_gls_report_serialization(a3):
    report = check_gls(a3, 6)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    table = report.to_table()
    assert "pass" in table and "GLS check" in table


def test_check_coxeter(a3):
    rep = check_coxeter_compatibility(a3, (3, 2, 1), 6)
    assert rep.passed
    rep_minus = check_coxeter_compatibility(a3, (1, 2, 3), 6)
    assert rep_minus.passed
    with pytest.raises(DomainError):
        check_coxeter_compatibility(a3, (2, 1, 3), 4)


@pytest.mark.parametrize("name, real, side", [
    ("tau_inv", tau_inv, r"rank\(tau\^-(\d+) P_\d\) = \(.+\) != c\^-(\d+)\(beta_\d\) = \(.+\)"),
    ("tau", tau, r"rank\(tau\^(\d+) I_\d\) = \(.+\) != c\^(\d+)\(gamma_\d\) = \(.+\)"),
])
def test_check_coxeter_reports_a_skipped_step_on_its_side(a3, monkeypatch, name, real, side):
    def skip(m):
        m = real(m)
        return m if m is ZERO else real(m)

    monkeypatch.setattr(verify, name, skip)
    rep = check_coxeter_compatibility(a3, (3, 2, 1), 6)
    assert not rep.passed
    ranks = [p for p in rep.problems if p.startswith("rank(")]
    assert ranks
    for problem in ranks:
        match = re.fullmatch(side, problem)
        assert match and match[1] == match[2] != "0", problem


def test_check_tube_invariants(a4):
    rep = check_tube_invariants(a4)
    assert rep.passed, rep.problems


def test_check_gls_reports_the_tube_invariants(a4, monkeypatch):
    """check_gls takes its tube-bottom problems from check_tube_invariants:
    with rigidity failing, each bottom module is reported once, and only at
    a positive bound."""
    monkeypatch.setattr(verify, "is_rigid", lambda m, char=0: False)
    problems = check_gls(a4, 6).problems
    assert problems == check_tube_invariants(a4).problems
    assert problems == [f"bottom module {format_module(m)} is not rigid" for m in tube_bottom(a4)]
    assert check_gls(a4, 0).problems == []


def test_check_gls_walks_the_tube_bottom_twice(a4, monkeypatch):
    """At every positive bound, also one that leaves bottom modules out of
    the table, the bottom row is walked once for the table's tube and once
    by `check_tube_invariants`; bound 0 walks no tube."""
    calls = []

    def counted(p, real=artrans.tube_bottom):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(artrans, "tube_bottom", counted)
    monkeypatch.setattr(verify, "tube_bottom", counted)
    for bound, walks in ((0, 0), (1, 2), (a4.n, 2), (2 * a4.n, 2)):
        calls.clear()
        assert check_gls(a4, bound).passed and len(calls) == walks, bound


def test_the_orbit_walks_read_ranks_off_the_kernel_and_build_only_witnesses(a4, monkeypatch):
    """The orbit walks of the witness table take every rank vector from the
    counts the tau kernel carries, with no `free_rank_vector` call, and
    build one string module per orbit witness: retraced steps compare letter
    tuples (or canonical tuples where the raw ones differ), not modules."""
    calls, inside = Counter(), []
    real_walk, real_rank, real_init = verify._orbit_witnesses, verify.free_rank_vector, \
        StringModule.__init__

    def walk(*args):
        inside.append(True)
        try:
            return real_walk(*args)
        finally:
            inside.pop()

    def rank(m):
        calls["free_rank_vector"] += bool(inside)
        return real_rank(m)

    def init(m, word):
        calls["StringModule"] += bool(inside)
        real_init(m, word)

    monkeypatch.setattr(verify, "_orbit_witnesses", walk)
    monkeypatch.setattr(verify, "free_rank_vector", rank)
    monkeypatch.setattr(StringModule, "__init__", init)
    table = tau_locally_free_rank_vectors(a4, 3 * height(delta(cartan(a4.n))))
    orbit_witnesses = sum(w.family in ("preprojective", "preinjective")
                          for ws in table.values() for w in ws)
    assert orbit_witnesses > 0
    assert calls == Counter(StringModule=orbit_witnesses)


def test_the_checks_refuse_presentations_outside_the_ctilde_family():
    """A generic A_4 with a cubic relation is a string algebra, but neither
    the GLS check nor the Coxeter and tube checks apply to it: each refuses
    it up front rather than failing inside the calculus.  So do the other
    entry points that assume the family, on it and on a band of the
    Kronecker quiver, through the one gate `algebra.require_ctilde`."""
    p = linear_a4_with_a_cubic_relation()
    m, band = projective_string(p, 1), parse_band(KRONECKER, "a.b~")
    for check in (lambda: check_gls(p, 8), lambda: tau_locally_free_rank_vectors(p, 8),
                  lambda: check_coxeter_compatibility(p, (4, 3, 2, 1), 3),
                  lambda: check_tube_invariants(p), lambda: minimal_strings(p, 4),
                  lambda: tube_bottom(p), lambda: classify_component(m),
                  lambda: build_component(m, 1), lambda: spine_walk_word(p),
                  lambda: enumerate_bands(p, 1), lambda: delta_length(band),
                  lambda: classify_component(band_module(band))):
        with pytest.raises(UnsupportedPresentation, match="in the C-tilde family only"):
            check()


def test_the_library_refuses_the_zero_module_a_sign_0_and_a_wrong_vertex_order(a3):
    """The zero module has no translate and no AR-sequence, a letter's sign
    is 1 or -1, a Coxeter sequence orders the vertices, and the Ringel form
    takes one direction per spine edge."""
    cd = cartan(3)
    for call, message in ((lambda: tau(ZERO), "tau of the zero module"),
                          (lambda: tau_inv(ZERO), "tau_inv of the zero module"),
                          (lambda: ar_sequence_starting_at(ZERO), "no AR-sequence at the zero"),
                          (lambda: Letter(a3.arrows[0], 0), "sign must be 1 or -1"),
                          (lambda: coxeter(cd, (1, 1, 2)), "must order the vertices"),
                          (lambda: ringel_form(cd, ("R",), (1, 0, 0), (0, 1, 0)),
                           "orientation of length n-1")):
        with pytest.raises(DomainError, match=message):
            call()


@pytest.mark.parametrize("char", [1, -3, 4, 6, 2**31, 2.0, "7"])
def test_every_field_entry_point_refuses_a_characteristic_that_names_no_field(a3, char):
    """0 or a prime up to 2^31 - 1: char 1 and -3 used to hang in the search
    for an irreducible parameter, and 4 and 6 to pass over Z/4 and Z/6."""
    m = projective_string(a3, 1)
    for check in (lambda: check_gls(a3, 8, char), lambda: tau_locally_free_rank_vectors(a3, 8, char),
                  lambda: check_tube_invariants(a3, char), lambda: canonical_simple_param(2, char),
                  lambda: hom_dim_modules(m, m, char), lambda: is_rigid(m, char)):
        with pytest.raises(DomainError):
            check()


@pytest.mark.parametrize("size", [2.5, 2.0, True, "2", "one below the least"])
def test_every_size_entry_point_refuses_a_size_that_is_no_int_of_its_least(a3, size):
    """A size is an int, not a bool, and at least the entry point's least,
    checked by the one rule `errors.require_size` before any work: 2.5 used
    to pass check_gls, 2.0 to build Presentation(n=2.0) and True to count as
    1.  The entries of 2 are cached first, so a check behind a cache lookup
    that takes 2.0 for 2 shows; a vertex is an int of p in the same way."""
    cd, m, b = cartan(3), projective_string(a3, 2), enumerate_bands(a3, 2)[0]
    for call, least in ((lambda v: build_type_C_algebra(v, "RR"), 3), (cartan, 3),
                        (lambda v: enumerate_positive_roots(cd, v), 0),
                        (lambda v: closed_form_families(cd, ("R", "R"), (3, 2, 1), v), 0),
                        (lambda v: tau_locally_free_rank_vectors(a3, v), 0),
                        (lambda v: check_gls(a3, v), 0),
                        (lambda v: check_coxeter_compatibility(a3, (3, 2, 1), v), 0),
                        (lambda v: tube_rank(a3, v), 1), (lambda v: build_component(m, v), 0),
                        (lambda v: enumerate_strings(a3, v), 0),
                        (lambda v: minimal_strings(a3, v), 0),
                        (lambda v: enumerate_bands(a3, v), 1), (canonical_simple_param, 1),
                        (lambda v: band_module(b, None, v), 1),
                        (lambda v: trivial_word(a3, v), 1),
                        (lambda v: projective_string(a3, v), 1)):
        with pytest.raises(DomainError, match="must be >= |no vertex "):
            call(least - 1 if size == "one below the least" else size)


def test_check_tube_invariants_all_orientations_n4():
    for orient in all_orientations(4):
        p = build_type_C_algebra(4, orient)
        rep = check_tube_invariants(p)
        assert rep.passed, (orient, rep.problems)


def _check_gls_over(monkeypatch, edit, p, bound):
    """check_gls over the real witness table as `edit` changes it in place."""
    real = verify.tau_locally_free_rank_vectors

    def doctored(p, bound, char=0):
        table = real(p, bound, char)
        edit(table)
        return table

    monkeypatch.setattr(verify, "tau_locally_free_rank_vectors", doctored)
    return check_gls(p, bound)


def test_check_gls_reports_a_real_root_with_two_witnesses(a3, monkeypatch):
    report = _check_gls_over(monkeypatch, lambda t: t[(0, 0, 1)].append(t[(0, 0, 1)][0]), a3, 8)
    assert report.passed is False
    assert report.problems == ["real root (0, 0, 1) has 2 witnesses: tau^-0 P_3, tau^-0 P_3"]


def test_check_gls_reports_a_non_regular_witness_at_an_imaginary_root(a3, monkeypatch):
    def edit(table):
        table[(1, 2, 1)].append(verify.Witness("preprojective", projective_string(a3, 1),
                                               vertex=1, step=0))

    report = _check_gls_over(monkeypatch, edit, a3, 8)
    assert report.passed is False
    assert report.problems == ["imaginary root (1, 2, 1) has non-regular witnesses: tau^-0 P_1"]


def test_check_gls_reports_a_lost_tube_witness(a3, monkeypatch):
    report = _check_gls_over(monkeypatch, lambda t: t[(1, 2, 1)].pop(0), a3, 8)
    assert report.passed is False
    assert report.problems == ["imaginary root (1, 2, 1): expected 2 tube witnesses, got 1"]


def test_check_gls_reports_a_tube_witness_off_its_level(a3, monkeypatch):
    def edit(table):
        w = table[(1, 2, 1)][0]
        table[(1, 2, 1)][0] = verify.Witness("tube", w.module, level=3, position=w.position)

    report = _check_gls_over(monkeypatch, edit, a3, 8)
    assert report.passed is False
    assert report.problems == ["imaginary root (1, 2, 1): tube witnesses not at level 2"]


@pytest.mark.parametrize("name, problem", [
    ("dim_vector", "bottom dimension sum (4, 4, 4, 4) != (2,...,2)"),
    ("rank_vector", "bottom rank sum (2, 4, 4, 2) != delta"),
])
def test_check_gls_reports_a_wrong_bottom_sum(a4, monkeypatch, name, problem):
    """A bottom row counted twice over fails exactly the one sum it is read by."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda m: tuple(2 * x for x in real(m)))
    report = check_gls(a4, 6)
    assert report.passed is False
    assert report.problems == [problem] == check_tube_invariants(a4).problems


def test_check_coxeter_reports_rank_vectors_that_repeat(a3, monkeypatch):
    """Each I_i walked as P_i, with its expected rank beta in place of gamma:
    every rank matches, and only the repeats are reported."""
    monkeypatch.setattr(verify, "injective_string", projective_string)
    monkeypatch.setattr(verify, "gamma", verify.beta)
    rep = check_coxeter_compatibility(a3, (3, 2, 1), 0)
    assert rep.passed is False
    assert rep.problems == ["rank vectors along the orbits are not pairwise distinct"]


def test_gls_report_table_lists_what_failed(a3, monkeypatch):
    def edit(table):
        del table[(0, 1, 1)]
        table[(1, -1, 0)] = table[(0, 0, 1)]
        table[(0, 0, 1)] = table[(0, 0, 1)] * 2

    report = _check_gls_over(monkeypatch, edit, a3, 8)
    assert report.passed is False
    lines = report.to_table().splitlines()
    assert lines[-4:] == [
        "  MISSING root (0, 1, 1)",
        "  EXTRA rank vector (1, -1, 0)",
        "  PROBLEM: real root (0, 0, 1) has 2 witnesses: tau^-0 P_3, tau^-0 P_3",
        "  => FAIL",
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_periodic_stop_returns_the_witnesses_of_the_window_walk(n):
    """Each orbit walk stops where the kernel proves it periodic; it returns
    exactly the witnesses of the earlier walk, which stopped n - 1 modules
    past the last one in the bound and walked on to WINDOW - 1 past its last
    witness: every orientation, every P_i and I_i, every bound up to
    3 ht(delta)."""
    cd = cartan(n)
    for orient in all_orientations(n):
        p = build_type_C_algebra(n, orient)
        k = artrans.kernel(p)
        for i in p.vertices:
            for start, sign in ((projective_string(p, i), 1), (injective_string(p, i), -1)):
                for bound in range(3 * height(delta(cd)) + 1):
                    got = verify._orbit_witnesses(cd, k, start, sign, bound)
                    assert got == orbit_witnesses_by_window(cd, k, start, sign, bound), \
                        (orient, i, sign, bound)


def test_an_orbit_that_stops_growing_is_an_internal_error(capsys, monkeypatch):
    """With no word known to grow, no period is ever found: the walk raises
    once it has gone n - 1 modules above the bound, rather than walking on,
    and `verify-gls` exits 1."""
    kernel = type(artrans.kernel(build_type_C_algebra(3, "RR")))
    monkeypatch.setattr(kernel, "grows", lambda k, raw, sign: None)
    with pytest.raises(InternalCheckError, match="stops growing"):
        check_gls(build_type_C_algebra(4, "RRL"), 12)
    assert main(["verify-gls", "--n", "3", "--orient", "RR", "--bound", "6"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "stops growing" in out.err


def test_the_orbit_walk_stops_at_the_period_or_the_bound_whichever_is_later(a4, monkeypatch):
    """n = 4: every P_i and I_i orbit is found periodic, with period n - 1 =
    3, by step 2(n - 1) at the latest.  So each walk stops n - 1 modules past
    its last witness, or at the period if that comes later: at bound 0 by
    step 2(n - 1), at bound 30 exactly n - 1 steps past the last witness."""
    steps = []
    real = type(artrans.kernel(a4)).shift

    def shift(k, raw, counts, sign):
        steps[-1] += counts is not None
        return real(k, raw, counts, sign)

    monkeypatch.setattr(type(artrans.kernel(a4)), "shift", shift)
    cd, k = cartan(4), artrans.kernel(a4)
    for i in a4.vertices:
        for start, sign in ((projective_string(a4, i), 1), (injective_string(a4, i), -1)):
            for bound in (0, 30):
                steps.append(0)
                out = verify._orbit_witnesses(cd, k, start, sign, bound)
                last = out[-1][0] if out else -1
                assert last + 3 <= steps[-1] <= max(2 * 3, last + 3), (i, sign, bound)
                assert bound == 0 or steps[-1] == last + 3, (i, sign, bound)
