import pytest

from strandbox import (
    Arrow,
    DomainError,
    Presentation,
    build_type_C_algebra,
    validate_string_algebra,
)
from strandbox import Letter, is_string
from strandbox.artrans import kernel
from strandbox.strings import word
from strandbox.roots import is_end

from conftest import all_orientations
from test_fast_paths import KRONECKER
from test_word_kernel import A4, A6


def test_a3_linear_shape(a3):
    assert {a.name for a in a3.arrows} == {"a21", "a32", "e1", "e3"}
    assert {tuple(x.name for x in r) for r in a3.relations} == {("e1", "e1"), ("e3", "e3")}


def test_a4_linear_shape(a4):
    assert len(a4.arrows) == 5
    assert {a.name for a in a4.arrows if a.is_loop} == {"e1", "e4"}


def test_orientation_flip():
    p = build_type_C_algebra(3, "RL")
    spine = {a.name: (a.source, a.target) for a in p.arrows if not a.is_loop}
    assert spine == {"a21": (1, 2), "a23": (3, 2)}


def test_n_too_small():
    with pytest.raises(DomainError):
        build_type_C_algebra(2, "R")
    with pytest.raises(DomainError):
        build_type_C_algebra(4, "RR")  # wrong orientation length


def test_family_always_valid():
    for n in (3, 4, 5, 6):
        for orient in all_orientations(n):
            assert validate_string_algebra(build_type_C_algebra(n, orient)) == []


def test_three_outgoing_violation():
    arrows = (Arrow("x", 1, 2), Arrow("y", 1, 3), Arrow("z", 1, 1), Arrow("w", 2, 3))
    p = Presentation(n=3, arrows=arrows, relations=())
    assert any("condition (1)" in v for v in validate_string_algebra(p))


def test_two_continuations_violation():
    # b.a and c.a both avoid I: condition (2) fails at a
    arrows = (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 2, 1))
    p = Presentation(n=3, arrows=arrows, relations=())
    report = validate_string_algebra(p)
    assert any("condition (2)" in v and "a " in v for v in report)


def admissible_vertices(p):
    """The sinks and sources of the loop-free spine quiver."""
    return {(u, kind) for u in p.vertices
            for kind, polarity in (("sink", "+"), ("source", "-"))
            if is_end(p.orientation, p.n, u, polarity)}


def test_admissible_vertices_examples(a3, a4):
    assert admissible_vertices(a3) == {(1, "source"), (3, "sink")}
    assert admissible_vertices(build_type_C_algebra(3, "RL")) == {
        (1, "source"), (2, "sink"), (3, "source")}
    assert admissible_vertices(a4) == {(1, "source"), (4, "sink")}


def test_spine_is_a_tree():
    for n in (3, 5):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            spine = [a for a in p.arrows if not a.is_loop]
            assert len(spine) == n - 1
            edges = {frozenset((a.source, a.target)) for a in spine}
            assert len(edges) == n - 1  # no doubled edges: a path, hence a tree


def test_relations_are_square_loops(a4):
    for rel in a4.relations:
        assert len(rel) == 2 and rel[0] == rel[1] and rel[0].is_loop


def test_path_in_ideal(a3):
    e1 = next(a for a in a3.arrows if a.name == "e1")
    a21 = next(a for a in a3.arrows if a.name == "a21")
    assert not is_string(word(a3, (Letter(e1, 1), Letter(e1, 1))))
    assert is_string(word(a3, (Letter(a21, 1), Letter(e1, 1))))


def test_a_relation_shorter_than_two_arrows_is_a_violation():
    """A one-arrow relation would make its arrow zero; the ideal of a string
    algebra is generated by paths of length at least 2."""
    a, b = Arrow("a", 1, 2), Arrow("b", 2, 3)
    for rel in ((a,), ()):
        report = validate_string_algebra(Presentation(n=3, arrows=(a, b), relations=(rel,)))
        assert [v for v in report if "condition (3)" in v and "shorter than 2 arrows" in v], rel
    assert validate_string_algebra(Presentation(n=3, arrows=(a, b), relations=((b, a),))) == []


def test_side_functions_consistency():
    """The letter sides agree with the three side rules: opposite at a common
    target, opposite at a common source, and sigma(b) = -epsilon(d) when b.d
    avoids the ideal."""
    ctilde = [build_type_C_algebra(n, o) for n in (3, 4, 5, 6) for o in all_orientations(n)]
    for p in ctilde + [KRONECKER, A4, A6]:
        side = kernel(p).side
        eps = {a: side[Letter(a, 1)] for a in p.arrows}
        sig = {a: side[Letter(a, -1)] for a in p.arrows}
        by_tgt = {}
        by_src = {}
        for a in p.arrows:
            by_tgt.setdefault(a.target, []).append(a)
            by_src.setdefault(a.source, []).append(a)
        for u, arrows in by_tgt.items():
            if len(arrows) == 2:
                assert eps[arrows[0]] == -eps[arrows[1]]
        for u, arrows in by_src.items():
            if len(arrows) == 2:
                assert sig[arrows[0]] == -sig[arrows[1]]
        for b in p.arrows:
            for d in by_tgt.get(b.source, []):
                if (b, d) not in p.relations:
                    assert sig[b] == -eps[d]
