import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandbox import (
    DomainError,
    NotLocallyFree,
    band_module,
    build_representation,
    build_type_C_algebra,
    canonical_band,
    canonical_simple_param,
    cartan,
    dim_vector,
    enumerate_bands,
    enumerate_strings,
    ext1_dim_locally_free,
    format_module,
    free_rank_vector,
    hom_dim_modules,
    injective_string,
    is_injective,
    is_locally_free,
    is_projective,
    is_rigid,
    parse_band,
    parse_module,
    parse_word,
    projective_string,
    rad_decomposition,
    rank_vector,
    relations_vanish,
    ringel_form,
    simple_module,
    soc_quotient_decomposition,
    string_module,
)
from strandbox import (
    BandModuleClass,
    Band,
    Representation,
    StringModule,
    ZERO,
    delta_length,
    hom_dim,
    tau,
    tau_locally_free_rank_vectors,
)
from strandbox.algebra import arrow_named
from strandbox.linalg import is_irreducible_mod, scalar_from_spec

from conftest import all_orientations
from oracles import is_locally_free_by_generator, path_basis_dims

W1 = "a21~.a32~.e3.a32.a21"
W2 = "e1.a21~.a32~.e3.a32.a21"


def test_dim_vectors(a3):
    assert dim_vector(string_module(parse_word(a3, W1))) == (2, 2, 2)
    assert dim_vector(simple_module(a3, 2)) == (0, 1, 0)
    assert dim_vector(string_module(parse_word(a3, "a32.a21"))) == (1, 1, 1)


def test_dim_sum_is_length_plus_one(a3):
    for w in enumerate_strings(a3, 8):
        assert sum(dim_vector(string_module(w))) == len(w) + 1


def test_locally_free(a3):
    assert not is_locally_free(string_module(parse_word(a3, W1)))
    assert not is_locally_free(simple_module(a3, 1))
    assert is_locally_free(simple_module(a3, 2))
    for b in enumerate_bands(a3, 2):
        assert is_locally_free(band_module(b))
    # locally free string modules have even dimensions at the loop vertices
    for w in enumerate_strings(a3, 8):
        m = string_module(w)
        if is_locally_free(m):
            d = dim_vector(m)
            assert d[0] % 2 == 0 and d[-1] % 2 == 0


def test_rank_vectors(a3):
    b = band_module(canonical_band(parse_word(a3, W2)))
    assert rank_vector(b) == (1, 2, 1)
    assert rank_vector(projective_string(a3, 1)) == (1, 2, 2)
    assert rank_vector(simple_module(a3, 2)) == (0, 1, 0)
    with pytest.raises(NotLocallyFree):
        rank_vector(simple_module(a3, 1))


def test_free_rank_vector_is_the_rank_vector_or_none():
    """None exactly where the generator oracle finds m not locally free (and
    rank_vector raises), else the rank vector: the dimensions halved at the
    loop vertices, on strings and on band modules of degree and level 1 and 2."""
    for orient in ("RR", "RL", "RRL"):
        p = build_type_C_algebra(len(orient) + 1, orient)
        loops = {1, p.n}
        mods = [string_module(w) for w in enumerate_strings(p, 6)]
        mods += [band_module(b, canonical_simple_param(s), level)
                 for b in enumerate_bands(p, 2) for s in (1, 2) for level in (1, 2)]
        for m in mods:
            ranks = free_rank_vector(m)
            assert (ranks is not None) == is_locally_free(m) == is_locally_free_by_generator(m)
            if ranks is None:
                with pytest.raises(NotLocallyFree):
                    rank_vector(m)
                continue
            assert ranks == rank_vector(m)
            assert ranks == tuple(d // 2 if v in loops else d
                                  for v, d in zip(p.vertices, dim_vector(m)))
        b = enumerate_bands(p, 1)[0]
        one = free_rank_vector(band_module(b))
        assert free_rank_vector(band_module(b, canonical_simple_param(2), 2)) == \
            tuple(4 * r for r in one)


def test_band_rank_formula():
    for orient in ("RR", "RL"):
        p = build_type_C_algebra(3, orient)
        delta = (1, 2, 1)
        for b in enumerate_bands(p, 3):
            t = delta_length(b)
            for s in (1, 2):
                for level in (1, 2, 3):
                    m = band_module(b, canonical_simple_param(s), level)
                    expected = tuple(level * s * t * v for v in delta)
                    assert rank_vector(m) == expected


def test_projective_dims_match_path_oracle():
    """dim P_i counts the paths out of i; dim I_i counts the paths into i,
    which are the paths out of i in the opposite quiver."""
    for n in (3, 4, 5):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            q = build_type_C_algebra(n, orient.translate(str.maketrans("RL", "LR")))
            for i in p.vertices:
                assert dim_vector(projective_string(p, i)) == path_basis_dims(p, i)
                assert dim_vector(injective_string(p, i)) == path_basis_dims(q, i)


def test_projective_injective_examples(a3, a4):
    assert dim_vector(projective_string(a3, 1)) == (2, 2, 4)
    assert rad_decomposition(a3, 2) == [projective_string(a3, 3)]
    assert soc_quotient_decomposition(a3, 1) == [simple_module(a3, 1)]
    # rad P_1 = P_2 + M((e1)_-)
    rads = rad_decomposition(a3, 1)
    assert projective_string(a3, 2) in rads
    assert string_module(parse_word(a3, "e3.a32.a21")) in rads
    # type (3-1): rad P_n = S_n
    assert rad_decomposition(a4, 4) == [simple_module(a4, 4)]


def test_soc_quotient_at_sink():
    p = build_type_C_algebra(4, "RLL")  # 2 is a sink of Q^0
    parts = soc_quotient_decomposition(p, 2)
    assert sorted(parts, key=str) == sorted(
        [injective_string(p, 1), injective_string(p, 3)], key=str)


def test_is_projective_injective_flags(a3):
    assert is_projective(projective_string(a3, 2))
    assert is_injective(injective_string(a3, 3))
    assert not is_projective(simple_module(a3, 1))
    assert is_injective(string_module(parse_word(a3, "e1")))  # I_1 = M(e1)


def as_int(rep, name):
    """The matrix of arrow `name`, densified from `dims` and the sparse dict."""
    a = arrow_named(rep.presentation)[name]
    return [[rep.mats[name].get((r, c), 0) for c in range(rep.dims[a.source - 1])]
            for r in range(rep.dims[a.target - 1])]


def test_representation_matrices_frozen(a3):
    rep = build_representation(string_module(parse_word(a3, W1)))
    assert rep.dims == (2, 2, 2)
    assert as_int(rep, "e1") == [[0, 0], [0, 0]]
    assert as_int(rep, "e3") == [[0, 1], [0, 0]]
    assert as_int(rep, "a21") == [[1, 0], [0, 1]]
    assert as_int(rep, "a32") == [[1, 0], [0, 1]]
    assert relations_vanish(rep)


def test_band_representation_frozen(a3):
    lam = 5
    b = band_module(canonical_band(parse_word(a3, W2)), (-lam, 1), 1)
    rep = build_representation(b)
    assert rep.dims == (2, 2, 2)
    assert as_int(rep, "e1") == [[0, lam], [0, 0]]
    assert as_int(rep, "e3") == [[0, 1], [0, 0]]
    assert relations_vanish(rep)


def test_relations_vanish_everywhere(a3):
    for w in enumerate_strings(a3, 10):
        assert relations_vanish(build_representation(string_module(w)))
    for b in enumerate_bands(a3, 2):
        for level in (1, 2):
            assert relations_vanish(build_representation(band_module(b, level=level)))


def test_hom_simples(a3):
    assert hom_dim_modules(simple_module(a3, 2), simple_module(a3, 2)) == 1
    assert hom_dim_modules(simple_module(a3, 1), simple_module(a3, 1)) == 1


def test_hom_projective_property(a3):
    rng = random.Random(3)
    words = enumerate_strings(a3, 8)
    sample = rng.sample(words, 20)
    for w in sample:
        m = string_module(w)
        dims = dim_vector(m)
        for i in a3.vertices:
            assert hom_dim_modules(projective_string(a3, i), m) == dims[i - 1]


def test_ext_examples(a3):
    assert ext1_dim_locally_free(simple_module(a3, 2), simple_module(a3, 2)) == 0
    assert ext1_dim_locally_free(projective_string(a3, 1), projective_string(a3, 1)) == 0
    b = band_module(canonical_band(parse_word(a3, W2)))
    assert ext1_dim_locally_free(b, b) >= 1
    assert is_rigid(simple_module(a3, 2))
    assert not is_rigid(b)


def test_hom_minus_ext_is_ringel(a3):
    cd = cartan(3)
    mods = [string_module(w) for w in enumerate_strings(a3, 6)
            if is_locally_free(string_module(w))]
    mods += [band_module(b) for b in enumerate_bands(a3, 1)]
    for x in mods[:8]:
        for y in mods[:8]:
            pairing = ringel_form(cd, a3.orientation, rank_vector(x), rank_vector(y))
            hom = hom_dim_modules(x, y)
            ext = ext1_dim_locally_free(x, y)
            assert hom - ext == pairing
            assert hom >= pairing


def test_hom_over_prime_field(a3):
    gf = scalar_from_spec("fp:7")
    p1 = projective_string(a3, 1)
    assert hom_dim_modules(p1, p1, gf) == 2
    assert hom_dim_modules(simple_module(a3, 2), simple_module(a3, 2), gf) == 1


def test_band_parameter_with_zero_constant_term_in_the_field_is_rejected(a3):
    # T^2 - 2 is T^2 over GF(2), which gives no band module
    m = band_module(parse_band(a3, W2), canonical_simple_param(2))
    with pytest.raises(DomainError, match=r"\(-2, 0, 1\).*constant term 0 over GF\(2\)"):
        hom_dim_modules(m, m, scalar_from_spec("fp:2"))
    assert hom_dim_modules(m, m, scalar_from_spec("fp:3")) >= 1


def test_band_parameter_reducible_in_the_field_is_rejected(a3):
    # T^2 - 2 = (T - 3)(T + 3) over GF(7); over GF(3) it stays irreducible
    m = band_module(parse_band(a3, W2), canonical_simple_param(2))
    with pytest.raises(DomainError, match=r"\(-2, 0, 1\).*reducible over GF\(7\)"):
        hom_dim_modules(m, m, scalar_from_spec("fp:7"))
    assert hom_dim_modules(m, m, scalar_from_spec("fp:3")) >= 1


@pytest.mark.parametrize("param", [(1.5, 1), (-1, 1.0), ("a", 1), (-1, True), (True, 1), 5, 1.5])
def test_band_parameter_with_a_coefficient_other_than_an_int_is_rejected(a3, param):
    """A float, str or bool coefficient builds no module, so none prints as
    a band, compares equal to the int module or reaches `linalg`; nor does a
    bare number given in place of the coefficients."""
    with pytest.raises(DomainError, match="monic int polynomial"):
        band_module(parse_band(a3, W2), param)


@pytest.mark.parametrize("field", ["fp:2", "fp:7", "fp:101"])
def test_band_parameter_of_a_prime_field_is_irreducible_there(a3, field):
    # T^2 - 2 is rejected over GF(2) and GF(7) (above); the parameter chosen
    # for the field gives a degree-2 band module with the End of the one over Q
    char = scalar_from_spec(field)
    assert canonical_simple_param(1, char) == canonical_simple_param(1) == (-1, 1)
    band = parse_band(a3, W2)
    over_q = band_module(band, canonical_simple_param(2))
    for s in (2, 3, 4):
        param = canonical_simple_param(s, char)
        assert len(param) == s + 1 and param[-1] == 1 and 0 < param[0] < char
        assert all(0 <= c < char for c in param) and is_irreducible_mod(param, char)
    m = band_module(band, canonical_simple_param(2, char))
    assert hom_dim_modules(m, m, char) == hom_dim_modules(over_q, over_q) == 2


@pytest.mark.parametrize("n, orientation", [(3, "RR"), (3, "LR"), (4, "RRL"), (4, "LLR")])
def test_ext1_of_witnesses_agrees_with_the_auslander_reiten_formula(n, orientation):
    # locally free modules have projective dimension <= 1 (Geiss-Leclerc-
    # Schroer 2017), so Ext^1(M, N) = D Hom(N, tau M), independently of the
    # Ringel form that `ext1_dim_locally_free` subtracts
    p = build_type_C_algebra(n, orientation)
    char = scalar_from_spec("fp:101")
    cd = cartan(n)
    mods = [w.module for ws in tau_locally_free_rank_vectors(p, 10).values() for w in ws]
    assert len(mods) >= 34 and not all(isinstance(m, StringModule) for m in mods)
    ranks = {m: rank_vector(m) for m in mods}
    taus = {m: tau(m) for m in mods}
    for x, y in itertools.product(mods, repeat=2):
        ar = 0 if taus[x] is ZERO else hom_dim_modules(y, taus[x], char)
        pairing = ringel_form(cd, p.orientation, ranks[x], ranks[y])
        assert hom_dim_modules(x, y, char) - ar == pairing, (x, y)
        assert ext1_dim_locally_free(x, y, char) == ar, (x, y)


def test_module_text_round_trip(a3):
    mods = [simple_module(a3, 2), string_module(parse_word(a3, W1)),
            band_module(canonical_band(parse_word(a3, W2)), canonical_simple_param(2), 3)]
    for m in mods:
        assert parse_module(a3, format_module(m)) == m
    assert parse_module(a3, "zero") is parse_module(a3, "zero")


# the default parameters of degree 1-3 over Q, GF(2), GF(7) and GF(101), and
# any T - lambda
band_params = st.one_of(
    st.builds(canonical_simple_param, st.integers(1, 3), st.sampled_from((0, 2, 7, 101))),
    st.integers(-50, 50).filter(bool).map(lambda lam: (-lam, 1)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(["RR", "LR", "RRL", "RLR"]), st.integers(0, 4), band_params,
       st.integers(1, 4))
def test_band_module_text_round_trip_for_every_parameter(orientation, k, param, level):
    p = build_type_C_algebra(len(orientation) + 1, orientation)
    m = band_module(enumerate_bands(p, 2)[k], param, level)
    assert parse_module(p, format_module(m)) == m


def test_band_text_names_a_parameter_other_than_the_rational_default(a3):
    b = parse_band(a3, W2)
    m = band_module(b, canonical_simple_param(2, 7), 2)
    assert format_module(m) == f"band({W2};1,0,1;2)"
    assert format_module(band_module(b, canonical_simple_param(2), 2)) == f"band({W2};2;2)"
    assert format_module(band_module(b, (3, 1))) == f"band({W2};3,1;1)"
    for text in (f"band({W2};1,x;1)", f"band({W2};0,1;1)", f"band({W2};1,0,2;1)"):
        with pytest.raises(DomainError):
            parse_module(a3, text)


def test_representation_scalar_is_exact(a3):
    # (T - 5)^2 = T^2 - 10T + 25: its companion block has entries 1, -25 and 10
    band = band_module(parse_band(a3, W2), (-5, 1), 2)
    for field in ("rat", "fp:3", "fp:101"):
        char = scalar_from_spec(field)
        for m in (projective_string(a3, 1), band):
            rep = build_representation(m, char)
            assert rep.char == char
            entries = [v for mat in rep.mats.values() for v in mat.values()]
            assert entries and all(type(v) is int and v for v in entries)
            if char:
                assert all(0 <= v < char for v in entries)
    assert -25 in build_representation(band).mats["e1"].values()


def test_relations_vanish_reduces_the_product_mod_p(a3):
    # e1 = [[1, 1], [2, 2]] squares to [[3, 3], [6, 6]]: zero over GF(3) only
    e1 = {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2}
    mats = {a.name: {} for a in a3.arrows}
    mats["e1"] = e1
    assert relations_vanish(Representation(a3, (2, 0, 0), mats, 3))
    assert not relations_vanish(Representation(a3, (2, 0, 0), mats, 0))


def test_hom_between_representations_over_different_fields_is_rejected(a3):
    m = projective_string(a3, 1)
    with pytest.raises(DomainError, match="different fields"):
        hom_dim(build_representation(m), build_representation(m, 3))
    with pytest.raises(DomainError, match="different fields"):
        hom_dim(build_representation(m, 101), build_representation(m, 3))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_canonical_band_starts_with_a_direct_loop(n):
    # so build_representation puts the parameter block on letter 0 of every
    # band module built through band_module, and never inverts it
    for orientation in all_orientations(n):
        p = build_type_C_algebra(n, orientation)
        for b in enumerate_bands(p, 3):
            first = canonical_band(b).letters[0]
            assert first.sign > 0 and first.arrow.is_loop, (orientation, b)


@pytest.mark.parametrize("field", ["rat", "fp:3", "fp:101"])
@pytest.mark.parametrize("n, orientation", [(3, "RR"), (3, "LR"), (4, "RRL")])
def test_a_band_rotated_to_an_inverse_first_letter_gives_the_same_module(n, orientation, field):
    # the parameter block acting on an inverse letter would give the band
    # module of the reciprocal parameter, which Hom with the canonical
    # module tells apart unless the parameter is its own reciprocal
    p = build_type_C_algebra(n, orientation)
    char = scalar_from_spec(field)
    strings = [build_representation(string_module(w), char) for w in enumerate_strings(p, 3)]
    checked = 0
    for b in enumerate_bands(p, 2):
        for s in (1, 2):
            param = canonical_simple_param(s)
            if char and not is_irreducible_mod(param, char):
                continue
            canon = build_representation(band_module(b, param), char)
            end = hom_dim(canon, canon)
            letters = b.letters
            for i, c in enumerate(letters):
                if c.sign > 0:
                    continue
                turned = Band(p, letters[i:] + letters[:i])
                rot = build_representation(BandModuleClass(turned, param, 1), char)
                assert hom_dim(rot, rot) == hom_dim(rot, canon) == hom_dim(canon, rot) == end
                for y in strings:
                    assert hom_dim(rot, y) == hom_dim(canon, y)
                    assert hom_dim(y, rot) == hom_dim(y, canon)
                checked += 1
    assert checked
