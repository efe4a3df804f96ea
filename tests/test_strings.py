import random
import re

import pytest

from strandbox import (
    DomainError,
    build_type_C_algebra,
    canonical_band,
    canonical_string,
    delta_length,
    enumerate_bands,
    enumerate_strings,
    format_word,
    is_band,
    is_string,
    parse_band,
    parse_word,
    spine_walk_word,
    string_word,
    trivial_word,
)
from strandbox.strings import Band, Letter, StringWord, word, word_sort_key

from oracles import raw_string_class_count

W1 = "a21~.a32~.e3.a32.a21"
W2 = "e1.a21~.a32~.e3.a32.a21"


def test_paper_string_and_band(a3):
    w1 = parse_word(a3, W1)
    assert is_string(w1) and not is_band(w1)
    w2 = parse_word(a3, W2)
    assert is_band(w2)
    # a proper power is not a band
    ww = word(a3, w2.letters * 2)
    assert is_string(ww) and not is_band(ww)


def test_relation_and_backtrack_rejected(a3):
    e1 = next(a for a in a3.arrows if a.name == "e1")
    a21 = next(a for a in a3.arrows if a.name == "a21")
    assert not is_string(word(a3, (Letter(e1, 1), Letter(e1, 1))))
    assert not is_string(word(a3, (Letter(a21, 1), Letter(a21, -1))))


def test_foreign_letters_rejected(a3, a4):
    foreign = next(a for a in a4.arrows if a.name == "a43")
    with pytest.raises(DomainError):
        is_string(word(a3, (Letter(foreign, 1),)))


def _random_letters(p, rng, length):
    return tuple(Letter(rng.choice(p.arrows), rng.choice((1, -1))) for _ in range(length))


def test_canonical_string_properties(a3):
    rng = random.Random(7)
    checked = 0
    while checked < 500:
        letters = _random_letters(a3, rng, rng.randint(1, 7))
        w = word(a3, letters)
        if not is_string(w):
            continue
        checked += 1
        c = canonical_string(w)
        assert c == canonical_string(w.inverse)
        assert c == canonical_string(c)
        assert c in (w, w.inverse)


def test_trivial_canonical(a3):
    plus = trivial_word(a3, 2, 1)
    minus = trivial_word(a3, 2, -1)
    assert canonical_string(plus) == canonical_string(minus)
    assert plus.inverse.tag == -1


def test_enumerate_counts(a3):
    assert len(enumerate_strings(a3, 0)) == 3
    assert len(enumerate_strings(a3, 1)) == 7
    level2 = enumerate_strings(a3, 2)
    assert len(level2) == raw_string_class_count(a3, 2)
    assert canonical_string(parse_word(a3, "a32.a21")) in set(level2)
    assert canonical_string(parse_word(a3, "e3.a32")) in set(level2)


def test_enumeration_matches_oracle():
    for n, orient, max_len in ((3, "RR", 6), (3, "RL", 6), (4, "RRL", 5)):
        p = build_type_C_algebra(n, orient)
        assert len(enumerate_strings(p, max_len)) == raw_string_class_count(p, max_len)


def test_string_count_grows(a3):
    counts = [len(enumerate_strings(a3, k)) for k in range(0, 9, 2)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_walk_length(a3):
    for w in enumerate_strings(a3, 5):
        assert len(w.walk()) == len(w) + 1


def test_bands_a3(a3):
    bands = enumerate_bands(a3, 1)
    assert len(bands) == 2
    assert all(is_band(b) for b in bands)
    assert all(delta_length(b) == 1 for b in bands)
    two = enumerate_bands(a3, 2)
    composite = parse_word(a3, "a21~.a32~.e3.a32.a21.e1~.a21~.a32~.e3.a32.a21.e1")
    assert canonical_band(composite) in set(two)
    assert {delta_length(b) for b in two} == {1, 2}


def test_band_loops_pair_every_visit(a3):
    for b in enumerate_bands(a3, 2):
        walk = b.walk()
        for v, loop in ((1, "e1"), (3, "e3")):
            loops = sum(1 for c in b.letters if c.arrow.name == loop)
            assert 2 * loops == walk.count(v)


def test_canonical_band_class(a3):
    w2 = parse_word(a3, W2)
    base = canonical_band(w2)
    m = len(w2.letters)
    for letters in (w2.letters, tuple(c.inverse for c in reversed(w2.letters))):
        for i in range(m):
            rotated = Band(a3, letters[i:] + letters[:i])
            assert canonical_band(rotated) == base
    # the standard form w0^-1 e3 w0 e1 lands in the same class
    std = parse_word(a3, "a21~.a32~.e3.a32.a21.e1")
    assert canonical_band(std) == base


def test_delta_length_examples(a3):
    w0 = spine_walk_word(a3)
    assert format_word(w0) == "a32.a21"
    assert delta_length(canonical_band(parse_word(a3, "a21~.a32~.e3.a32.a21.e1"))) == 1
    double = "a21~.a32~.e3.a32.a21.e1~.a21~.a32~.e3.a32.a21.e1"
    assert delta_length(canonical_band(parse_word(a3, double))) == 2
    assert delta_length(canonical_band(parse_word(a3, W2))) == 1


def test_parser_round_trip(a3):
    for w in enumerate_strings(a3, 6):
        assert canonical_string(parse_word(a3, format_word(w))) == w
    for b in enumerate_bands(a3, 2):
        assert canonical_band(parse_word(a3, format_word(b))) == b


def test_parse_rejects_garbage(a3):
    with pytest.raises(DomainError):
        parse_word(a3, "zz.a21")
    with pytest.raises(DomainError):
        parse_word(a3, "e1.e1")
    with pytest.raises(DomainError):
        string_word(a3, parse_word(a3, "e1").letters * 2)


@pytest.mark.parametrize("text", [W1, f"{W2}.{W2}", "e1.e1"])
def test_parse_band_rejects_a_text_that_is_no_band(a3, text):
    with pytest.raises(DomainError, match=re.escape(text)):
        parse_band(a3, text)


def test_sort_key_total_order(a3):
    words = enumerate_strings(a3, 4)
    keys = [word_sort_key(w) for w in words]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_w0_general_orientation(a4_rrl):
    w0 = spine_walk_word(a4_rrl)
    assert w0.source == 1 and w0.target == 4
    assert len(w0) == 3
    assert is_string(w0)
