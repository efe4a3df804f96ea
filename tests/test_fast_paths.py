"""The fast word and translation paths against their former implementations.

`canonical_string`, `canonical_band`, `tau_inv`, `is_locally_free`,
`rank_vector` and `free_rank_vector` are compared with the slow oracles in
`oracles.py` on every orientation with n = 3, 4, 5 and on the Kronecker
quiver, whose two parallel arrows tie in every letter order that does not
look at arrow names.  The hook and cohook steps at both ends, `tau` and
`tau_inv` are also compared on a linear A_4 with a relation of length 3,
where an added letter must pass the window check.  `enumerate_bands` is
compared with the sweep over every sign word of the standard form on every
orientation with n = 3, 4, 5.  On every module that `check_gls` walks at
bound 3 ht(delta) for n = 3, 4, 5, the counts the tau kernel carries give
the ranks of `free_rank_vector` and of the walk, and each kernel step on
letter tuples gives the module of the inversion oracle.  The kernel reads its
counts from the one count table of `modules`, and the band witnesses of the
witness table, counted once per band class and built without `band_module`,
have the walk's ranks and the module `band_module` builds.
"""

import itertools

import pytest

from strandbox import (
    ZERO,
    Arrow,
    Presentation,
    add_left,
    add_right,
    band_module,
    build_type_C_algebra,
    canonical_band,
    canonical_simple_param,
    canonical_string,
    cartan,
    check_gls,
    delete_left,
    delta,
    delete_right,
    enumerate_bands,
    enumerate_strings,
    free_rank_vector,
    is_locally_free,
    parse_band,
    rank_vector,
    string_module,
    tau,
    tau_inv,
    tau_locally_free_rank_vectors,
    validate_string_algebra,
)
from strandbox import artrans, modules
from strandbox.algebra import arrow_named
from strandbox.errors import InternalCheckError, NotLocallyFree
from strandbox.roots import height
from strandbox.strings import Band, Letter, string_word, trivial_word, word

from oracles import (
    add_left_by_inversion,
    add_right_by_inversion,
    bands_by_sweep,
    canonical_band_by_min,
    canonical_string_by_min,
    delete_left_by_inversion,
    delete_right_by_inversion,
    free_rank_vector_by_walk,
    is_locally_free_by_generator,
    raw_string_class_count,
    raw_string_classes,
    tau_inv_by_ar_sequence,
    translate_by_inversion,
)
from test_word_kernel import linear_a4_with_a_cubic_relation

CTILDE = [
    build_type_C_algebra(n, "".join(bits))
    for n in (3, 4, 5)
    for bits in itertools.product("RL", repeat=n - 1)
]
KRONECKER = Presentation(n=2, arrows=(Arrow("a", 1, 2), Arrow("b", 1, 2)), relations=())
ALL = CTILDE + [KRONECKER]
A4 = linear_a4_with_a_cubic_relation()


def ids(p):
    if p is KRONECKER:
        return "kronecker"
    return "a4-cubic" if p is A4 else f"n{p.n}-{''.join(p.orientation)}"


def all_strings(p, max_len):
    """Every string of length <= max_len, both words of each rho-class and
    both tags of each trivial string, built from the oracle's classes."""
    named = arrow_named(p)
    for key in raw_string_classes(p, max_len):
        if key[0] == "triv":
            yield from (trivial_word(p, key[1], tag) for tag in (1, -1))
        else:
            w = string_word(p, [Letter(named[name], sign) for name, sign in key])
            yield from (w, w.inverse)


def bands(p):
    """The bands of delta-length <= 3 (C-tilde), or the one Kronecker band."""
    if p is KRONECKER:
        return [parse_band(p, "a.b~")]
    return list(enumerate_bands(p, 3))


def rotations(b):
    """Every rotation of the band letters and of their inverse."""
    m = len(b.letters)
    inverse = tuple(c.inverse for c in reversed(b.letters))
    return [Band(b.presentation, ls[i:] + ls[:i]) for ls in (b.letters, inverse) for i in range(m)]


def test_the_kronecker_quiver_is_a_string_algebra():
    assert validate_string_algebra(KRONECKER) == []


@pytest.mark.parametrize("max_len", range(7))
def test_kronecker_string_classes_match_the_oracle(max_len):
    assert len(enumerate_strings(KRONECKER, max_len)) == raw_string_class_count(KRONECKER, max_len)


def test_kronecker_canonical_string_is_one_per_class():
    for w in all_strings(KRONECKER, 6):
        assert canonical_string(w) == canonical_string(w.inverse), w


@pytest.mark.parametrize("p", ALL, ids=ids)
def test_canonical_string_matches_the_min_oracle(p):
    for w in all_strings(p, 8):
        assert canonical_string(w) == canonical_string_by_min(w), w


@pytest.mark.parametrize("p", ALL, ids=ids)
def test_canonical_band_matches_the_min_oracle(p):
    for b in bands(p):
        expected = canonical_band_by_min(b)
        for r in rotations(b):
            assert canonical_band(r) == canonical_band_by_min(r) == expected, r


@pytest.mark.parametrize("p", CTILDE, ids=ids)
def test_enumerate_bands_matches_the_sweep_oracle(p):
    """The same band tuple, in the same order: delta-length <= 5 for n = 3,
    <= 4 for n = 4 and 5."""
    max_dl = 5 if p.n == 3 else 4
    assert enumerate_bands(p, max_dl) == bands_by_sweep(p, max_dl)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalCheckError as e:
        return type(e)


@pytest.mark.parametrize("p", ALL, ids=ids)
def test_tau_inv_matches_the_ar_sequence_oracle(p):
    modules = [string_module(w) for w in all_strings(p, 8)]
    modules += [band_module(b, level=level) for b in bands(p) for level in (1, 2)]
    for m in modules:
        assert _outcome(tau_inv, m) == _outcome(tau_inv_by_ar_sequence, m), m


SIDE_STEPS = (
    (add_right, add_right_by_inversion),
    (add_left, add_left_by_inversion),
    (delete_right, delete_right_by_inversion),
    (delete_left, delete_left_by_inversion),
)


@pytest.mark.parametrize("p", ALL + [A4], ids=ids)
def test_side_steps_and_translations_match_the_inversion_oracle(p):
    for w in all_strings(p, 8):
        for fast, slow in SIDE_STEPS:
            for sign in (1, -1):
                assert _outcome(fast, w, sign) == _outcome(slow, w, sign), (fast.__name__, sign, w)
        m = string_module(w)
        for fast, sign in ((tau_inv, 1), (tau, -1)):
            expected = _outcome(translate_by_inversion, m, sign)
            assert _outcome(fast, m) == expected, (fast.__name__, w)


def _has_a_rank_vector(m):
    try:
        rank_vector(m)
    except NotLocallyFree:
        return False
    return True


@pytest.mark.parametrize("p", ALL, ids=ids)
def test_is_locally_free_matches_the_generator_oracle(p):
    """So does rank_vector: it raises NotLocallyFree exactly where the
    oracle finds a module not locally free."""
    modules = [string_module(w) for w in all_strings(p, 8)]
    modules += [band_module(b) for b in bands(p)]
    for m in modules:
        free = is_locally_free_by_generator(m)
        assert is_locally_free(m) == free == _has_a_rank_vector(m), m


@pytest.mark.parametrize("p", ALL, ids=ids)
def test_free_rank_vector_matches_the_walk_count(p):
    """free_rank_vector's values against the walk's visits, on strings and
    on band modules of three block sizes."""
    modules = [string_module(w) for w in all_strings(p, 8)]
    modules += [band_module(b, canonical_simple_param(s), level)
                for b in bands(p) for s, level in ((1, 1), (1, 3), (2, 2))]
    for m in modules:
        assert free_rank_vector(m) == free_rank_vector_by_walk(m), m


@pytest.mark.parametrize("p", CTILDE, ids=ids)
def test_the_tau_kernel_reads_the_count_table_of_modules(p):
    """The kernel holds the very count table of `modules.count_table`, so its
    counts and rank rule are that table's: free ranks and local freeness are
    counted in one place."""
    assert artrans.kernel(p).table is modules.count_table(p)


@pytest.mark.parametrize("p", CTILDE, ids=ids)
def test_band_witnesses_match_the_walk_count_and_band_module(p):
    """Each band witness at bound 3 ht(delta), whose ranks are counted once
    per band class and scaled by degree and level, and whose module is built
    from the canonical band as it stands: its key is the walk's rank vector,
    and its module is `band_module` of its own fields."""
    table = tau_locally_free_rank_vectors(p, 3 * height(delta(cartan(p.n))))
    witnesses = [(rv, w) for rv, ws in table.items() for w in ws if w.family == "band"]
    assert {w.module.param_degree for _, w in witnesses} == {1, 2, 3}
    for rv, w in witnesses:
        m = w.module
        assert rv == free_rank_vector_by_walk(m), m
        assert m == band_module(m.band, m.param, m.level) and w.level == m.level, m


def test_tau_inv_refuses_an_ambiguous_ray_class(monkeypatch, a3):
    """Two letters whose rays give different modules claim the class of m:
    both sides raise rather than pick one."""
    c, d = (Letter(a, -1) for a in a3.arrows[:2])
    assert artrans.ray(a3, c.inverse) != artrans.ray(a3, d.inverse)
    m = string_module(word(a3, [Letter(a3.arrows[2], 1)]))
    assert tau_inv(m) is not ZERO
    monkeypatch.setattr(artrans, "_ray_letters", lambda w, sign: [c, d])
    for fn in (tau_inv, tau_inv_by_ar_sequence):
        with pytest.raises(InternalCheckError, match="ambiguous"):
            fn(m)


def _kernel_walks(monkeypatch, p, bound):
    """The kernel steps (raw word, counts, sign, result) and the tube rows
    of (module, counts) that `check_gls(p, bound)` makes and walks."""
    table = type(artrans.kernel(p))
    steps, rows = [], []
    real_shift, real_tube = table.shift, table.tube

    def shift(k, raw, counts, sign):
        result = real_shift(k, raw, counts, sign)
        steps.append((raw, counts, sign, result))
        return result

    def tube(k):
        for row in real_tube(k):
            rows.append(row)
            yield row

    monkeypatch.setattr(table, "shift", shift)
    monkeypatch.setattr(table, "tube", tube)
    assert check_gls(p, bound).passed
    return steps, rows


@pytest.mark.parametrize("p", CTILDE, ids=ids)
def test_kernel_counts_and_steps_match_the_oracles_on_the_walked_modules(monkeypatch, p):
    """Every module an orbit walk or tube row of `check_gls` visits at bound
    3 ht(delta), and every module a step back from it with counts reaches:
    the carried counts give `free_rank_vector` and the walk's ranks (None
    where not locally free), and each step on letter tuples, with counts or
    without (a retrace, a public translation), gives the module
    `translate_by_inversion` gives."""
    k = artrans.kernel(p)
    steps, rows = _kernel_walks(monkeypatch, p, 3 * height(delta(cartan(p.n))))
    assert steps and rows
    carried = [(k.module(raw), counts) for raw, counts, _, _ in steps if counts is not None]
    forward = [(result, sign) for _, counts, sign, result in steps
               if counts is not None and result is not None]
    carried += [(k.module(raw), counts) for (raw, counts), _ in forward]
    # each step taken back with its counts, so that tails are also taken away
    carried += [(k.module(raw), counts) for result, sign in forward
                for raw, counts in [k.shift(*result, -sign)]]
    carried += [item for row in rows for item in row]
    for m, counts in carried:
        assert k.table.ranks(counts) == free_rank_vector(m) == free_rank_vector_by_walk(m), m
    for raw, _, sign, result in steps:
        got = ZERO if result is None else k.module(result[0])
        assert got == translate_by_inversion(k.module(raw), sign), (raw, sign)
