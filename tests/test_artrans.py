import json
from collections import Counter
from itertools import islice

import pytest

from strandbox import (
    ZERO,
    InternalCheckError,
    Letter,
    StringWord,
    add_left,
    add_right,
    ar_sequence_starting_at,
    band_module,
    build_component,
    build_type_C_algebra,
    canonical_band,
    canonical_string,
    classify_component,
    component_to_dot,
    component_to_json,
    delete_left,
    delete_right,
    dim_vector,
    enumerate_bands,
    enumerate_strings,
    extendable,
    format_module,
    format_word,
    index,
    injective_string,
    is_injective,
    is_locally_free,
    is_minimal,
    is_projective,
    minimal_strings,
    orbit,
    parse_word,
    projective_string,
    rank_vector,
    ray,
    simple_module,
    string_module,
    tau,
    tau_inv,
    tube_bottom,
    tube_rank,
)
from strandbox import artrans
from strandbox.artrans import neighbours
from strandbox.errors import UnsupportedPresentation
from strandbox.modules import dim_sum

from conftest import all_orientations
from oracles import fails_tau_local_freeness, maximal_ray, string_ok
from test_fast_paths import KRONECKER

W1 = "a21~.a32~.e3.a32.a21"


def _letter(p, name, sign):
    return Letter(next(a for a in p.arrows if a.name == name), sign)


def _names(letters):
    return tuple((c.arrow.name, c.sign) for c in letters)


# ---------------------------------------------------------------------------
# side extensions
# ---------------------------------------------------------------------------

def test_side_extension_examples(a3, a4):
    e1 = _letter(a3, "e1", 1)
    assert ray(a3, e1.inverse).inverse.is_trivial  # M(_-(e1)) = S_1
    assert format_word(ray(a3, e1)) == "a21~.a32~.e3~"  # (e1)_-
    e4 = _letter(a4, "e4", 1)
    assert ray(a4, e4).is_trivial  # M((e_n)_-) = S_n in type (3-1)
    a21 = _letter(a3, "a21", 1)
    assert format_word(ray(a3, a21)) == "e1~.a21~.a32~.e3~"


def test_ray_matches_the_oracle():
    for n in (3, 4, 5):
        for orient in all_orientations(n):
            p = build_type_C_algebra(n, orient)
            names = sorted(a.name for a in p.arrows)
            for a in p.arrows:
                for c in (Letter(a, 1), Letter(a, -1)):
                    r = ray(p, c)
                    assert _names(r.letters) == maximal_ray(p, a.name, c.sign), (orient, c)
                    assert r.target == c.source
                    tail = _names((c,) + r.letters)
                    assert not any(string_ok(p, tail + ((b, -c.sign),)) for b in names)
                    assert not extendable(StringWord(p, (c,) + r.letters), -c.sign)


def test_extendable_examples(a3):
    assert extendable(canonical_string(parse_word(a3, "triv(1)")), 1)
    w0 = parse_word(a3, "a32.a21")
    assert extendable(w0.inverse, 1)  # on the left, by an inverse letter
    # e1 cannot be extended by e1 again: relation on the direct side,
    # backtrack on the inverse side
    e1 = parse_word(a3, "e1")
    assert not extendable(e1, 1)
    assert extendable(e1, -1)  # via a21~


def test_extendable_left_right_duality(a3):
    # extendable(w.inverse, sign): a letter of sign -sign may stand left of w
    names = sorted(a.name for a in a3.arrows)
    for w in enumerate_strings(a3, 5):
        seq = _names(w.letters)
        for sign in (1, -1):
            right = any(string_ok(a3, seq + ((b, sign),)) for b in names)
            left = any(string_ok(a3, ((b, -sign),) + seq) for b in names)
            if w.is_trivial:
                right = left = any(a.target == w.base for a in a3.arrows) if sign > 0 \
                    else any(a.source == w.base for a in a3.arrows)
            assert extendable(w, sign) == right
            assert extendable(w.inverse, sign) == left


# ---------------------------------------------------------------------------
# hooks and cohooks
# ---------------------------------------------------------------------------

def test_trivial_hooks_at_loop_vertex(a3):
    # At the Q^0-sink n the right hook continues along the spine, so that the
    # whole hook ray misses the loop; the loop hook sits on the left.
    t3 = canonical_string(parse_word(a3, "triv(3)"))
    right = add_right(t3, 1)
    assert format_word(right) == "a32"
    left = add_left(t3, 1)
    assert format_word(left) == "e3~"  # the module M(e3) = P_3


def test_hook_commutation(a3):
    for w in enumerate_strings(a3, 6):
        wh = add_right(w, 1)
        hw = add_left(w, 1)
        if wh is None or hw is None:
            continue
        a = add_left(wh, 1)
        b = add_right(hw, 1)
        assert a is not None and b is not None and a == b


def test_hook_round_trips(a3):
    for w in enumerate_strings(a3, 6):
        for sign in (1, -1):  # +1: hooks, -1: cohooks
            for add, dele in ((add_right, delete_right), (add_left, delete_left)):
                added = add(w, sign)
                if added is not None:
                    back = dele(added, sign)
                    assert back is not None
                    assert canonical_string(back) == canonical_string(w)
                deleted = dele(w, sign)
                if deleted is not None:
                    again = add(deleted, sign)
                    assert again is not None and again == w


# ---------------------------------------------------------------------------
# AR sequences and tau
# ---------------------------------------------------------------------------

def test_sequence_exactness(a3, a4_rrl):
    for p in (a3, a4_rrl):
        for w in enumerate_strings(p, 6):
            m = string_module(w)
            seq = ar_sequence_starting_at(m)
            if seq is None:
                assert is_injective(m)
                continue
            assert 1 <= len(seq.middle) <= 2
            total = [sum(col) for col in zip(*(dim_vector(x) for x in seq.middle))]
            left_right = [a + b for a, b in zip(dim_vector(seq.left), dim_vector(seq.right))]
            assert total == left_right


def test_band_sequence(a3):
    b = band_module(next(iter(enumerate_bands(a3, 1))))
    seq = ar_sequence_starting_at(b)
    assert seq.case_tag == "BandSelf"
    assert seq.left == b and seq.right == b
    assert [m.level for m in seq.middle] == [2]
    up = seq.middle[0]
    seq2 = ar_sequence_starting_at(up)
    assert sorted(m.level for m in seq2.middle) == [1, 3]


def test_indec_middle_case(a4):
    s2 = simple_module(a4, 2)
    seq = ar_sequence_starting_at(s2)
    assert seq.case_tag == "IndecMiddle"
    assert len(seq.middle) == 1
    assert seq.right == string_module(parse_word(a4, "e4.a43.a32.a21.e1"))


def test_tau_examples(a4):
    assert tau(simple_module(a4, 2)) == simple_module(a4, 3)
    expected = string_module(parse_word(a4, "e4.a43.a32.a21.e1"))
    assert tau(simple_module(a4, 3)) == expected
    for i in a4.vertices:
        assert tau(projective_string(a4, i)) is ZERO
        assert tau_inv(injective_string(a4, i)) is ZERO


def test_tau_inverse_laws():
    for n, orients in ((3, all_orientations(3)), (4, ["RRR", "RRL", "LRL"])):
        for orient in orients:
            p = build_type_C_algebra(n, orient)
            for w in enumerate_strings(p, 6):
                m = string_module(w)
                if not is_projective(m):
                    assert tau_inv(tau(m)) == m
                if not is_injective(m):
                    assert tau(tau_inv(m)) == m


def test_tau_band_identity(a3):
    b = band_module(next(iter(enumerate_bands(a3, 1))), level=2)
    assert tau(b) == b and tau_inv(b) == b


# ---------------------------------------------------------------------------
# index and minimality
# ---------------------------------------------------------------------------

def test_index_examples(a3):
    assert index(simple_module(a3, 1).word) == (2, 1)
    assert index(simple_module(a3, 2).word) == (1, 1)
    p_sink = build_type_C_algebra(3, "RL")
    assert index(simple_module(p_sink, 2).word) == (0, 2)


def test_index_set_and_absent_types(a3, a4_rrl):
    seen = set()
    for p in (a3, a4_rrl):
        for w in enumerate_strings(p, 6):
            seen.add(index(w))
    assert seen <= {(0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    assert (0, 1) not in seen and (1, 0) not in seen


def test_index_counts_each_map_once_when_tau_fixes_the_module():
    """On the Kronecker quiver M(a) = tau M(a) lies in a rank-1 tube: the one
    AR-sequence starting at M(a) also ends there, and its maps count once."""
    assert index(parse_word(KRONECKER, "a")) == (1, 1)
    assert index(parse_word(KRONECKER, "b")) == (1, 1)
    assert index(parse_word(KRONECKER, "a.b~.a")) == (2, 2)


@pytest.mark.parametrize("orient", all_orientations(3) + all_orientations(4))
def test_neighbours_are_dual(orient):
    """y has an irreducible map from x exactly as often as x has one into y,
    and the translates are tau^-1 x and tau x."""
    p = build_type_C_algebra(len(orient) + 1, orient)
    mods = [string_module(w) for w in enumerate_strings(p, 6)]
    mods += [band_module(b, level=level) for b in enumerate_bands(p, 1) for level in (1, 2)]
    for x in mods:
        for sign, translate in ((1, tau_inv), (-1, tau)):
            mids, t = neighbours(x, sign)
            assert t == translate(x)
            for y, k in Counter(mids).items():
                assert Counter(neighbours(y, -sign)[0])[x] == k


def test_minimal_examples(a3):
    assert is_minimal(simple_module(a3, 2).word)
    assert not is_minimal(projective_string(a3, 1).word)
    assert is_minimal(parse_word(a3, W1))
    assert index(parse_word(a3, W1)) == (2, 2)


def test_minimal_matches_local_minimum(a3):
    # minimal <=> strict local dimension minimum among irreducible-map neighbors
    for w in enumerate_strings(a3, 7):
        m = string_module(w)
        local_min = all(dim_sum(nb) > dim_sum(m) for s in (1, -1) for nb in neighbours(m, s)[0])
        assert is_minimal(w) == local_min, format_word(w)


def test_minimal_strings_classification(a3, a4):
    table4 = minimal_strings(a4, max_len=10)
    expected_11 = {
        string_module(parse_word(a4, "e4.a43.a32.a21.e1")),
        simple_module(a4, 3),
        simple_module(a4, 2),
    }
    assert set(table4[(1, 1)]) == expected_11
    table3 = minimal_strings(a3, max_len=10)
    assert set(table3[(2, 1)]) == {
        simple_module(a3, 1),
        string_module(parse_word(a3, "e1~.a21~.a32~")),
    }
    two_two = set(table3[(2, 2)])
    assert string_module(parse_word(a3, "a32.a21")) in two_two
    assert string_module(parse_word(a3, W1)) in two_two
    assert len(table3[(1, 1)]) == 2
    # sinks/sources of Q only at interior vertices
    assert table3[(0, 2)] == [] and table3[(2, 0)] == []
    p_sink = build_type_C_algebra(3, "RL")
    assert minimal_strings(p_sink, max_len=6)[(0, 2)] == [simple_module(p_sink, 2)]


# ---------------------------------------------------------------------------
# the tube
# ---------------------------------------------------------------------------

def test_tube_bottom_paper_examples(a4, a4_rrl, a5_rrlr):
    expect4 = [string_module(parse_word(a4, t))
               for t in ("e4.a43.a32.a21.e1", "triv(3)", "triv(2)")]
    assert tube_bottom(a4) == expect4
    expect4b = [string_module(parse_word(a4_rrl, t))
                for t in ("a32.a21.e1", "a34.e4", "triv(2)")]
    assert tube_bottom(a4_rrl) == expect4b
    expect5 = [string_module(parse_word(a5_rrlr, t))
               for t in ("a32.a21.e1", "e5.a54", "a34", "triv(2)")]
    assert tube_bottom(a5_rrlr) == expect5


def test_tube_sums_and_period(a4):
    bottom = tube_bottom(a4)
    dims = [dim_vector(m) for m in bottom]
    assert tuple(sum(c) for c in zip(*dims)) == (2, 2, 2, 2)
    ranks = [rank_vector(m) for m in bottom]
    assert tuple(sum(c) for c in zip(*ranks)) == (1, 2, 2, 1)
    cur = bottom[0]
    for _ in range(3):
        cur = tau_inv(cur)
    assert cur == bottom[0]


@pytest.mark.parametrize("orient", ["RR", "RL", "RRL", "RLR"])
def test_an_orbit_stops_before_zero(orient):
    p = build_type_C_algebra(len(orient) + 1, orient)
    for i in p.vertices:
        assert list(orbit(projective_string(p, i), tau)) == [projective_string(p, i)]
        assert list(orbit(injective_string(p, i), tau_inv)) == [injective_string(p, i)]
        walk = list(islice(orbit(projective_string(p, i), tau_inv), 6))
        assert walk[0] == projective_string(p, i)
        assert all(tau_inv(x) == y for x, y in zip(walk, walk[1:]))
    assert list(orbit(ZERO, tau)) == []


def test_a_band_orbit_repeats(a3):
    for b in enumerate_bands(a3, 2):
        m = band_module(b, level=2)
        assert list(islice(orbit(m, tau), 5)) == [m] * 5
        assert list(islice(orbit(m, tau_inv), 5)) == [m] * 5


@pytest.mark.parametrize("step", [lambda m: ZERO, lambda m: simple_module(m.word.presentation, 1)],
                         ids=["ends", "leaves"])
def test_tube_bottom_checks_that_tau_inv_closes_it(a4, monkeypatch, step):
    """The one check of the bottom's period: an orbit that ends, or one that
    does not come back to its start after n-1 steps, is an internal error."""
    monkeypatch.setattr(artrans, "tau_inv", step)
    with pytest.raises(InternalCheckError, match="does not close"):
        tube_bottom(a4)


def test_tube_level_ranks_are_window_sums(a4_rrl):
    g = tube_rank(a4_rrl, levels=5)
    bottom_ranks = [rank_vector(m) for m in g.rows[0]]
    r = len(bottom_ranks)
    for level, row in enumerate(g.rows, start=1):
        for k, m in enumerate(row):
            window = [bottom_ranks[(k + j) % r] for j in range(level)]
            expected = tuple(sum(c) for c in zip(*window))
            assert rank_vector(m) == expected


# ---------------------------------------------------------------------------
# non-locally-free rays (type (1,2): hook ray; (2,1): cohook ray; (2,2): all)
# ---------------------------------------------------------------------------

def test_rays_not_locally_free(a3, a4):
    for p in (a3, a4):
        for loop in (a for a in p.arrows if a.is_loop):
            w = ray(p, Letter(loop, 1))  # type (1,2) minimal
            for _ in range(6):
                assert not is_locally_free(string_module(w))
                w = add_right(w, 1)
                assert w is not None
            w = ray(p, Letter(loop, -1)).inverse  # type (2,1) minimal
            for _ in range(6):
                assert not is_locally_free(string_module(w))
                w = add_left(w, -1)
                assert w is not None
        for m in minimal_strings(p, max_len=8)[(2, 2)]:
            for add, sign in ((add_right, 1), (add_left, 1), (add_right, -1), (add_left, -1)):
                w = m.word
                for _ in range(5):
                    assert not is_locally_free(string_module(w))
                    w = add(w, sign)
                    assert w is not None


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_ray_steps_preserve_extendability(a3, a4_rrl):
    for p in (a3, a4_rrl):
        for w in enumerate_strings(p, 5):
            for sign in (1, -1):
                if extendable(w, sign):
                    wr = add_right(w, sign)
                    if wr is not None:
                        assert extendable(wr, sign)
                if extendable(w.inverse, sign):
                    lw = add_left(w, sign)
                    if lw is not None:
                        assert extendable(lw.inverse, sign)


def test_minimal_22_smallest_in_window(a3):
    for m in minimal_strings(a3, max_len=8)[(2, 2)]:
        g = build_component(m, 4)
        me = format_module(m)
        for key, node in g.nodes.items():
            if key != me:
                assert sum(dim_vector(node)) > sum(dim_vector(m))


def test_component_radius_is_the_largest_distance(a3):
    for r in range(4):
        g = build_component(simple_module(a3, 2), r)
        assert max(g.dist.values()) == r
        assert set(g.dist) == set(g.nodes.values())
        # breadth first: the seed at 0, and an arrow joins modules at most 1 apart
        assert g.dist[simple_module(a3, 2)] == 0
        assert all(abs(g.dist[a] - g.dist[b]) <= 1 for a, b in g.edges | g.tau_edges)
    g = build_component(simple_module(a3, 2), 0)
    assert list(g.nodes) == ["triv(2)"] and not g.edges and not g.tau_edges


@pytest.mark.parametrize("window, size", [
    (lambda: build_component(projective_string(build_type_C_algebra(3, "RL"), 1), 12), 453),
    (lambda: tube_rank(build_type_C_algebra(5, "RRLR"), 6), 24),
])
def test_a_window_formats_each_module_once_when_its_nodes_are_read(monkeypatch, window, size):
    """Windows are keyed by module: building one formats nothing, and
    reading `nodes` formats each module once."""
    calls = Counter()
    real = artrans.format_module
    monkeypatch.setattr(artrans, "format_module", lambda m: calls.update([m]) or real(m))
    g = window()
    assert not calls
    assert len(g.nodes) == size
    assert len(calls) == size and set(calls.values()) == {1}


def test_component_of_p1(a3):
    g = build_component(projective_string(a3, 1), 6)
    assert g.kind == "PI"
    keys = set(g.nodes)
    for i in a3.vertices:
        assert format_module(projective_string(a3, i)) in keys
        assert format_module(injective_string(a3, i)) in keys


def test_classify_kinds(a3):
    assert classify_component(projective_string(a3, 1)) == ("PI", None)
    assert classify_component(simple_module(a3, 2)) == ("TubeRank", 2)
    assert classify_component(string_module(parse_word(a3, W1))) == ("ZAInfInf", None)
    b = band_module(next(iter(enumerate_bands(a3, 1))), level=3)
    assert classify_component(b) == ("HomogeneousTube", 1)


def test_components_are_classified_only_in_the_ctilde_family():
    m = string_module(parse_word(KRONECKER, "a"))
    with pytest.raises(UnsupportedPresentation):
        classify_component(m)
    with pytest.raises(UnsupportedPresentation):
        build_component(m, 1)
    with pytest.raises(UnsupportedPresentation):
        classify_component(band_module(parse_word(KRONECKER, "a.b~")))


def test_za_window_has_no_tau_locally_free_module(a3):
    for m in minimal_strings(a3, max_len=8)[(2, 2)]:
        g = build_component(m, 4)
        for node in g.nodes.values():
            assert fails_tau_local_freeness(node)


def test_exports(a3):
    g = build_component(simple_module(a3, 2), 3)
    dot = component_to_dot(g)
    assert dot.startswith("digraph") and "triv(2)" in dot and "dashed" in dot
    doc = json.loads(component_to_json(g))
    assert doc["kind"] == "TubeRank" and doc["rank"] == 2
    ids = {n["id"] for n in doc["nodes"]}
    assert "triv(2)" in ids
    for a, b in doc["edges"]:
        assert a in ids and b in ids


def test_homogeneous_tube_component(a3):
    b = band_module(next(iter(enumerate_bands(a3, 1))))
    g = build_component(b, 3)
    levels = sorted(node.level for node in g.nodes.values())
    assert levels == [1, 2, 3, 4]
    assert g.kind == "HomogeneousTube"
