"""The word kernel: interned letters and validity by the letter-pair table.

Property tests compare `is_string`, `can_append` and `canonical_string`
with the brute-force oracle on every orientation with n <= 5, on a linear
A_4 with one relation of length 3 and on a linear A_6 with relations of
lengths 3 and 4.  The last two take the kernel's window check on top of the
pair table.
"""

import copy
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandbox import (
    Arrow,
    Presentation,
    Witness,
    ar_sequence_starting_at,
    band_module,
    build_type_C_algebra,
    canonical_string,
    cartan,
    coxeter,
    enumerate_strings,
    format_word,
    is_string,
    parse_band,
    parse_word,
    string_module,
    validate_string_algebra,
)
from strandbox.record import Record
from strandbox.strings import Letter, can_append, word

from oracles import string_ok

CTILDE = [
    build_type_C_algebra(n, "".join(bits))
    for n in (3, 4, 5)
    for bits in itertools.product("RL", repeat=n - 1)
]


def linear_a4_with_a_cubic_relation():
    a21, a32, a43 = Arrow("a21", 1, 2), Arrow("a32", 2, 3), Arrow("a43", 3, 4)
    return Presentation(n=4, arrows=(a21, a32, a43), relations=((a43, a32, a21),))


def linear_a6_with_relations_of_lengths_3_and_4():
    a21, a32, a43, a54, a65 = (Arrow(f"a{i + 1}{i}", i, i + 1) for i in range(1, 6))
    return Presentation(n=6, arrows=(a21, a32, a43, a54, a65),
                        relations=((a43, a32, a21), (a65, a54, a43, a32)))


A4 = linear_a4_with_a_cubic_relation()
A6 = linear_a6_with_relations_of_lengths_3_and_4()
PRESENTATIONS = st.one_of(st.just(A4), st.just(A6), st.sampled_from(CTILDE))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def plain(letters):
    return tuple((c.arrow.name, c.sign) for c in letters)


@st.composite
def letter_sequences(draw):
    """Any sequence of letters of one presentation, composable or not."""
    p = draw(PRESENTATIONS)
    letter = st.builds(Letter, st.sampled_from(p.arrows), st.sampled_from((1, -1)))
    return p, tuple(draw(st.lists(letter, min_size=1, max_size=8)))


@st.composite
def walks(draw):
    """A composable sequence of letters: each letter starts where the
    previous one ends, so only backtracks and relations can spoil it."""
    p = draw(PRESENTATIONS)
    at = draw(st.sampled_from(list(p.vertices)))
    letters = []
    for _ in range(draw(st.integers(0, 10))):
        options = [Letter(a, 1) for a in p.arrows if a.target == at]
        options += [Letter(a, -1) for a in p.arrows if a.source == at]
        c = draw(st.sampled_from(options))
        letters.append(c)
        at = c.source
    return p, tuple(letters)


def longest_string_prefix(p, letters):
    while letters and not string_ok(p, plain(letters)):
        letters = letters[:-1]
    return letters


def test_the_presentations_reach_every_relation_length():
    assert {len(r) for p in CTILDE + [A4, A6] for r in p.relations} == {2, 3, 4}


def test_the_two_length_fixture_is_a_string_algebra():
    assert validate_string_algebra(A6) == []


@PROPERTY
@given(letter_sequences())
def test_is_string_matches_the_oracle_on_any_letters(case):
    p, letters = case
    assert is_string(word(p, letters)) == string_ok(p, plain(letters))


@PROPERTY
@given(walks())
def test_is_string_matches_the_oracle_on_walks(case):
    p, letters = case
    if letters:
        assert is_string(word(p, letters)) == string_ok(p, plain(letters))


@PROPERTY
@given(walks())
def test_can_append_is_is_string_of_the_longer_word(case):
    p, letters = case
    w = longest_string_prefix(p, letters)
    for a in p.arrows:
        for sign in (1, -1):
            c = Letter(a, sign)
            assert can_append(p, w, c) == is_string(word(p, w + (c,)))


@PROPERTY
@given(walks())
def test_canonical_string_is_idempotent_and_inverse_invariant(case):
    p, letters = case
    w = word(p, longest_string_prefix(p, letters))
    if w.letters:
        c = canonical_string(w)
        assert canonical_string(c) == c
        assert canonical_string(w.inverse) == c
        assert c in (w, w.inverse)


def test_letters_are_interned():
    p = build_type_C_algebra(4, "RRL")
    for a in p.arrows:
        for sign in (1, -1):
            c = Letter(a, sign)
            assert c is Letter(a, sign)
            assert c.inverse.inverse is c
            assert c.inverse is Letter(a, -sign)
            assert (c.source, c.target) == ((a.source, a.target) if sign > 0 else (a.target, a.source))


def test_threads_intern_one_letter_per_arrow_and_sign():
    # Fresh arrows, so every thread races to intern letters nobody made yet.
    arrows = [Arrow(f"race{i}", i, i + 1) for i in range(2000)]
    seen = [[] for _ in range(4)]
    start = threading.Barrier(len(seen))

    def intern(out):
        start.wait(timeout=10)
        out.extend(Letter(a, sign) for a in arrows for sign in (-1, 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 2 * len(arrows) for out in seen)
    for letters in zip(*seen):
        assert all(c is letters[0] for c in letters)
        assert letters[0].inverse.inverse is letters[0]


def records(p):
    """One value of every record type, built from the presentation p (n = 3, RR)."""
    w = parse_word(p, "a21~.a32~.e3.a32.a21")
    band = parse_band(p, "e1.a21~.a32~.e3.a32.a21")
    m = band_module(band, (1, 0, 1), 2)  # canonical_simple_param(2, 7)
    cd = cartan.__wrapped__(p.n)  # `cartan` is cached per n; this builds a value of its own
    return {
        "Arrow": p.arrows[0],
        "Presentation": p,
        "StringWord": w,
        "Band": band,
        "StringModule": string_module(w),
        "BandModuleClass": m,
        "CartanData": cd,
        "CoxeterTransform": coxeter(cd, (3, 2, 1)),
        "Witness": Witness("band", m, level=2),
        "ARSequence": ar_sequence_starting_at(string_module(w)),
    }


def test_every_public_record_type_is_covered():
    """Each public subclass of the record base has a value in `records`."""
    public = {cls.__name__ for cls in Record.__subclasses__() if not cls.__name__.startswith("_")}
    assert public == set(records(build_type_C_algebra(3, "RR")))


def test_records_are_equal_by_value_across_equal_presentations():
    p, q = build_type_C_algebra(3, "RR"), build_type_C_algebra(3, "RR")
    for kind, v in records(p).items():
        w = records(q)[kind]
        assert v is not w, kind
        assert v == w and not v != w and hash(v) == hash(w), kind


def test_letters_are_immutable():
    """Letters, and every record: no field can be set or deleted, and no
    attribute added."""
    c = Letter(build_type_C_algebra(3, "RR").arrows[0], 1)
    with pytest.raises(AttributeError):
        c.sign = -1
    assert c.sign == 1
    for kind, value in records(build_type_C_algebra(3, "RR")).items():
        field = value.__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before, kind


def test_values_survive_pickle_and_deepcopy():
    """Every record round-trips to an equal value of its type; a letter to
    the interned letter itself."""
    for kind, value in records(build_type_C_algebra(3, "RR")).items():
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(clone) is type(value), kind
            assert clone == value and hash(clone) == hash(value), kind
    w = parse_word(build_type_C_algebra(3, "RR"), "a21~.a32~.e3.a32.a21")
    assert pickle.loads(pickle.dumps(w.letters[0])) is w.letters[0]
    assert copy.deepcopy(w.letters[0]) is w.letters[0]


def test_equal_presentations_give_equal_words_and_modules():
    p, q = build_type_C_algebra(4, "RLR"), build_type_C_algebra(4, "RLR")
    assert p is not q and p == q and hash(p) == hash(q)
    for v in enumerate_strings(p, 6):
        w = parse_word(q, format_word(v))
        assert v == w and hash(v) == hash(w)
    v = parse_word(p, "a21~.a23.a43~.e4.a43.a23~.a21")
    w = parse_word(q, "a21~.a23.a43~.e4.a43.a23~.a21")
    assert v == w and hash(v) == hash(w)
    assert all(c is d for c, d in zip(v.letters, w.letters))
    assert string_module(v) == string_module(w)
    assert hash(string_module(v)) == hash(string_module(w))
