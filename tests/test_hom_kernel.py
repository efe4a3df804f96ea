"""The Hom kernels against their oracles.

`modules.hom_dim_modules` counts graph maps between any two string or band
modules and builds no representation.  The sparse kernel `modules.hom_dim`
builds the intertwiner system as sparse rows and `linalg.mat_rank`
eliminates them over plain ints, fraction-free over Q and mod p over GF(p);
it is the oracle of the graph-map count, compared on every pair of string
modules of length <= 6, on presentations outside the C-tilde family, on
every pair of string witnesses up to bound 10, and on band x band, band x
string and string x band pairs for every orientation with n <= 5, with
parameters over Q, GF(2), GF(7) and GF(101).  The oracle of the sparse
kernel (`oracles.dense_hom_dim`, `oracles.dense_rank`) writes the same
system as dense rows and eliminates column by column, over Fractions for Q
and ints mod p for GF(p).  The two are compared on every pair of string
modules of length <= 6, on band modules, and on random sparse rows.
"""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandbox import (
    DomainError,
    StringModule,
    band_module,
    build_representation,
    build_type_C_algebra,
    canonical_simple_param,
    enumerate_bands,
    enumerate_strings,
    hom_dim,
    hom_dim_modules,
    injective_string,
    is_rigid,
    projective_string,
    string_module,
    tau,
    tau_inv,
    tau_locally_free_rank_vectors,
)
from strandbox import modules
from strandbox.linalg import (
    echelon,
    field_value,
    gcd_degree,
    is_irreducible_mod,
    mat_rank,
    poly_mul,
    scalar_from_spec,
)
from strandbox.modules import Representation, _substring_tallies

from conftest import all_orientations
from oracles import dense_hom_dim, dense_rank, gcd_degree_by_euclid
from test_fast_paths import KRONECKER
from test_word_kernel import linear_a4_with_a_cubic_relation

FIELDS = ("rat", "fp:2", "fp:101")
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n, orientation", [(n, o) for n in (3, 4) for o in all_orientations(n)])
def test_hom_of_every_pair_of_short_strings_matches_the_dense_oracle(n, orientation, field):
    p = build_type_C_algebra(n, orientation)
    char = scalar_from_spec(field)
    reps = [build_representation(string_module(w), char) for w in enumerate_strings(p, 6)]
    assert 48 <= len(reps) <= 52
    for x, y in itertools.product(reps, repeat=2):
        assert hom_dim(x, y) == dense_hom_dim(x, y)


def _assert_graph_maps_match_the_sparse_kernel(mods, char):
    reps = {m: build_representation(m, char) for m in mods}
    for x, y in itertools.product(mods, repeat=2):
        assert hom_dim_modules(x, y, char) == hom_dim(reps[x], reps[y]), (x, y)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n, orientation", [(n, o) for n in (3, 4) for o in all_orientations(n)])
def test_graph_maps_of_every_pair_of_short_strings_match_the_sparse_kernel(n, orientation, field):
    p = build_type_C_algebra(n, orientation)
    mods = [string_module(w) for w in enumerate_strings(p, 6)]
    _assert_graph_maps_match_the_sparse_kernel(mods, scalar_from_spec(field))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("p", [KRONECKER, linear_a4_with_a_cubic_relation()],
                         ids=["kronecker", "a4-cubic"])
def test_graph_maps_match_the_sparse_kernel_outside_the_ctilde_family(p, field):
    mods = [string_module(w) for w in enumerate_strings(p, 6)]
    assert len(mods) > 4 + len(p.vertices)
    _assert_graph_maps_match_the_sparse_kernel(mods, scalar_from_spec(field))


@pytest.mark.parametrize("n, orientation", [(3, "RR"), (3, "LR"), (4, "RRL"), (4, "LLR")])
def test_graph_maps_of_string_witnesses_match_the_sparse_kernel(n, orientation):
    p = build_type_C_algebra(n, orientation)
    mods = [w.module for ws in tau_locally_free_rank_vectors(p, 10).values() for w in ws
            if isinstance(w.module, StringModule)]
    assert len(mods) >= 25
    _assert_graph_maps_match_the_sparse_kernel(mods, scalar_from_spec("fp:101"))


@pytest.mark.parametrize("field", FIELDS)
def test_a_pair_with_a_band_module_matches_the_sparse_and_dense_kernels(field):
    p = build_type_C_algebra(3, "RR")
    char = scalar_from_spec(field)
    band = band_module(enumerate_bands(p, 1)[0], level=2)
    strings = [string_module(w) for w in enumerate_strings(p, 4)]
    rb = build_representation(band, char)
    assert hom_dim_modules(band, band, char) == hom_dim(rb, rb) == dense_hom_dim(rb, rb)
    for m in strings:
        rm = build_representation(m, char)
        assert hom_dim_modules(m, band, char) == hom_dim(rm, rb) == dense_hom_dim(rm, rb)
        assert hom_dim_modules(band, m, char) == hom_dim(rb, rm) == dense_hom_dim(rb, rm)
    assert any(hom_dim_modules(m, band, char) for m in strings)
    assert any(hom_dim_modules(band, m, char) for m in strings)


def test_graph_maps_between_presentations_are_refused_as_by_the_sparse_kernel():
    x = string_module(enumerate_strings(build_type_C_algebra(3, "RR"), 1)[-1])
    y = string_module(enumerate_strings(build_type_C_algebra(3, "LR"), 1)[-1])
    with pytest.raises(DomainError) as sparse:
        hom_dim(build_representation(x), build_representation(y))
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DomainError) as graph:
            hom_dim_modules(a, b)
        assert str(graph.value) == str(sparse.value)


def _band_modules(p, field):
    """Band modules of delta-length <= 2, levels 1-3 and parameter degrees 1
    and 2 where the parameter is irreducible over the field, of total
    dimension <= 36 (the dense oracle takes seconds beyond that)."""
    char = scalar_from_spec(field)
    mods = []
    for b in enumerate_bands(p, 2):
        for s in (1, 2):
            param = canonical_simple_param(s)
            if char and not is_irreducible_mod(param, char):
                continue
            for level in (1, 2, 3):
                if level * s * len(b) <= 36:
                    mods.append(band_module(b, param, level))
    return mods


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n, orientation", [(3, "RR"), (4, "RRL")])
def test_hom_of_band_modules_matches_the_dense_oracle(n, orientation, field):
    p = build_type_C_algebra(n, orientation)
    char = scalar_from_spec(field)
    mods = _band_modules(p, field)
    assert {m.param_degree for m in mods} == ({1} if field == "fp:2" else {1, 2})
    reps = [build_representation(m, char) for m in mods]
    short = [build_representation(string_module(w), char) for w in enumerate_strings(p, 3)]
    for x in reps:
        assert hom_dim(x, x) == dense_hom_dim(x, x)
    for x, y in itertools.permutations(reps, 2):
        if sum(a * b for a, b in zip(x.dims, y.dims)) <= 60:
            assert hom_dim(x, y) == dense_hom_dim(x, y)
    for x, y in itertools.product(reps, short):
        assert hom_dim(x, y) == dense_hom_dim(x, y)
        assert hom_dim(y, x) == dense_hom_dim(y, x)


@st.composite
def representations(draw):
    """Two representations of one presentation with any small integer
    matrices, relations or not, loops with diagonal entries among them."""
    p = draw(st.sampled_from([build_type_C_algebra(3, "RR"), build_type_C_algebra(4, "RLR")]))
    char = draw(st.sampled_from((0, 2, 101)))
    reps = []
    for _ in range(2):
        dims = tuple(draw(st.lists(st.integers(0, 3), min_size=p.n, max_size=p.n)))
        mats = {}
        for a in p.arrows:
            entries = ((r, c, draw(st.integers(-2, 2))) for r in range(dims[a.target - 1])
                       for c in range(dims[a.source - 1]))
            mats[a.name] = {(r, c): x for r, c, v in entries if (x := field_value(v, char))}
        reps.append(Representation(p, dims, mats, char))
    return reps


@PROPERTY
@given(representations())
def test_hom_of_any_representations_matches_the_dense_oracle(reps):
    x, y = reps
    assert hom_dim(x, y) == dense_hom_dim(x, y)


def _divides(g, f, q):
    """Whether the monic g divides f over GF(q), by long division."""
    f = [c % q for c in f]
    for top in range(len(f) - 1, len(g) - 2, -1):
        c = f[top]
        for k, gk in enumerate(g):
            f[top - len(g) + 1 + k] = (f[top - len(g) + 1 + k] - c * gk) % q
    return not any(f)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_irreducibility_matches_trial_division(q):
    for degree in range(1, 5 if q < 5 else 4):
        for tail in itertools.product(range(q), repeat=degree):
            f = tail + (1,)
            factors = (g + (1,) for d in range(1, degree // 2 + 1)
                       for g in itertools.product(range(q), repeat=d))
            assert is_irreducible_mod(f, q) == (not any(_divides(g, f, q) for g in factors)), f


monic = st.lists(st.integers(-3, 3), max_size=3).map(lambda tail: tuple(tail) + (1,))


@PROPERTY
@given(monic, monic, monic, st.sampled_from((0, 2, 7, 101)))
def test_gcd_degree_matches_the_euclidean_algorithm(f, g, h, char):
    a, b = poly_mul(f, g), poly_mul(f, h)
    assert gcd_degree(a, b, char) == gcd_degree_by_euclid(a, b, char) >= len(f) - 1
    assert gcd_degree(a, a, char) == len(a) - 1


@st.composite
def sparse_rows(draw):
    """Sparse integer rows over at most 8 columns, with zero entries, zero
    rows and repeated rows among them."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-3, 3)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, max_size=10))
    if rows:
        repeats = draw(st.lists(st.sampled_from(rows), max_size=3))
        rows += [dict(r) for r in repeats]
    rows = draw(st.permutations(rows))
    return ncols, rows


def _dense(ncols, rows):
    return [[r.get(c, 0) for c in range(ncols)] for r in rows]


@PROPERTY
@given(sparse_rows(), st.sampled_from((0, 2, 101)))
def test_mat_rank_matches_the_dense_oracle(case, char):
    ncols, rows = case
    expected = dense_rank(_dense(ncols, rows), char)
    assert mat_rank([dict(r) for r in rows], char) == expected
    assert mat_rank([dict(r) for r in reversed(rows)], char) == expected
    if char == 0:
        scales = [(k + 2) * (-1) ** k for k in range(len(rows))]
        assert mat_rank([{c: s * v for c, v in r.items()} for s, r in zip(scales, rows)]) == expected


@PROPERTY
@given(sparse_rows(), st.sampled_from((0, 2, 101)))
def test_echelon_stores_normalised_pivot_rows(case, char):
    # over Q primitive integer rows (entry gcd 1), over GF(p) rows with lead 1
    _, rows = case
    for lead, pivot in echelon([dict(r) for r in rows], char).items():
        assert min(pivot) == lead and all(type(v) is int and v for v in pivot.values())
        if char:
            assert pivot[lead] == 1 and all(0 < v < char for v in pivot.values())
        else:
            assert gcd(*pivot.values()) == 1


def test_mat_rank_of_no_rows_is_zero():
    assert mat_rank([]) == 0 and mat_rank([], 7) == 0 and dense_rank([]) == 0
    assert mat_rank([{}, {0: 0}, {1: 7}], 7) == 0


# Band parameters per field: the default ones of degree 1 and 2, two
# reducible ones over Q ((T-1)(T-2) and (T+1)^2), T+6 over GF(7), equal to
# the default T-1 there but not as ints, and parameters that give no band
# module over the field: constant term 0 there (T^2-2 over GF(2), T+7 over
# GF(7)) or reducible over GF(p) ((T+1)^2 over GF(2), T^2-2 over GF(7)).
BAND_PARAMS = {
    0: ((-1, 1), (-2, 0, 1), (2, -3, 1), (1, 2, 1)),
    2: ((-1, 1), (1, 1, 1), (1, 0, 1), (-2, 0, 1)),
    7: ((-1, 1), (6, 1), (1, 0, 1), (-2, 0, 1), (7, 1)),
    101: ((-1, 1), (1, 1, 1)),
}


def _band_modules_of_each_param(p, char, dim_limit):
    """Band modules of delta-length <= 2 for every parameter of the field,
    at levels 1-3 while level * degree * length <= dim_limit."""
    return [band_module(b, param, level) for b in enumerate_bands(p, 2)
            for param in BAND_PARAMS[char] for level in (1, 2, 3)
            if level * (len(param) - 1) * len(b) <= dim_limit]


@pytest.mark.parametrize("n, orientation, char", [
    (n, o, char) for n in (3, 4, 5) for o in all_orientations(n)
    for char in sorted(BAND_PARAMS) if n < 5 or char in (0, 7)])
def test_graph_maps_with_band_modules_match_the_sparse_kernel(n, orientation, char):
    # band x band, band x string and string x band; where the sparse kernel
    # cannot build a representation, the count raises the same DomainError.
    # GF(2) and GF(101) stop at n = 4 to keep the oracle's time down.
    p = build_type_C_algebra(n, orientation)
    bands = _band_modules_of_each_param(p, char, 6 * n)
    strings = [string_module(w) for w in enumerate_strings(p, 2)]
    reps = {}
    for m in bands + strings:
        try:
            reps[m] = build_representation(m, char)
        except DomainError as refusal:
            reps[m] = refusal
    pairs = [*itertools.product(bands, repeat=2), *itertools.product(bands, strings),
             *itertools.product(strings, bands)]
    for x, y in pairs:
        refusal = next((r for r in (reps[x], reps[y]) if isinstance(r, DomainError)), None)
        if refusal is None:
            assert hom_dim_modules(x, y, char) == hom_dim(reps[x], reps[y]), (x, y)
        else:
            with pytest.raises(DomainError) as raised:
                hom_dim_modules(x, y, char)
            assert str(raised.value) == str(refusal)


@pytest.mark.parametrize("n, orientation", [(n, o) for n in (3, 4) for o in all_orientations(n)])
def test_the_cap_between_bands_cuts_off_no_pair(n, orientation):
    # counted far past the cap m_X + m_Y, a pair of one band is shorter than
    # the band, and a pair of two bands shorter than m_X + m_Y - 1
    bands = enumerate_bands(build_type_C_algebra(n, orientation), 2)
    for bx, by in itertools.product(bands, repeat=2):
        far = 3 * (len(bx) + len(by))
        factor, image = _substring_tallies(bx, far)[0], _substring_tallies(by, far)[1]
        longest = max((len(key) for key in factor if key in image and isinstance(key, tuple)),
                      default=0)
        assert longest < (len(bx) if bx == by else len(bx) + len(by) - 1), (bx, by)


@pytest.mark.parametrize("orientation", ["RRL", "RLL", "LRR", "LLR"])
def test_no_hom_call_of_the_hom_benchmark_builds_a_representation(orientation, monkeypatch):
    # the calls of perfbench's hom_dense workload: Hom both ways between
    # tau^-3 P_i and tau^3 I_j, rigidity of each, band self-Hom at levels 1-4
    p = build_type_C_algebra(4, orientation)
    strings = []
    for i in p.vertices:
        x, y = projective_string(p, i), injective_string(p, i)
        for _ in range(3):
            x, y = tau_inv(x), tau(y)
        strings += [x, y]
    bands = [band_module(b, level=level) for b in enumerate_bands(p, 2) for level in (1, 2, 3, 4)]
    pairs = [*itertools.product(strings, repeat=2), *((m, m) for m in bands)]
    expected = [hom_dim(build_representation(x), build_representation(y)) for x, y in pairs]

    def refuse(*args):
        raise AssertionError("a Hom call built a representation")

    monkeypatch.setattr(modules, "build_representation", refuse)
    monkeypatch.setattr(modules, "hom_dim", refuse)
    for char in (0, 101):
        assert [hom_dim_modules(x, y, char) for x, y in pairs] == expected
        assert all(is_rigid(m, char) for m in strings)
