import itertools
import random

import pytest

from strandbox import (
    DomainError,
    admissible_sequences,
    beta,
    cartan,
    closed_form_families,
    closed_form_positive_roots,
    coxeter,
    delta,
    enumerate_positive_roots,
    gamma,
    is_admissible_sequence,
    quadratic,
    reflect,
    ringel_form,
    sym_form,
)
from strandbox.roots import (
    _orbit_within_bound,
    height,
    is_end,
    nonadmissible_vertices,
    reflect_orientation,
    simple_root,
)

from conftest import all_orientations
from oracles import bounded_orbit, orbit_within_bound_by_walk, reflection_closure_alt


def test_cartan_matrix_pattern():
    cd = cartan(3)
    assert cd.rows == ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
    assert cd.d == (2, 1, 2)
    cd5 = cartan(5)
    assert cd5.rows[0] == (2, -1, 0, 0, 0)
    assert cd5.rows[1] == (-2, 2, -1, 0, 0)
    assert cd5.rows[3] == (0, 0, -1, 2, -2)
    assert cd5.rows[4] == (0, 0, 0, -1, 2)
    with pytest.raises(DomainError):
        cartan(2)


def test_cartan_is_built_once_per_n():
    """`cartan` is cached per n, so every caller shares one immutable value,
    equal to a freshly built one."""
    for n in range(3, 9):
        assert cartan(n) is cartan(n) and cartan(n) == cartan.__wrapped__(n)


def test_dc_symmetric():
    for n in range(3, 9):
        cd = cartan(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cd.d[i - 1] * cd.c(i, j) == cd.d[j - 1] * cd.c(j, i)


def test_delta():
    assert delta(cartan(4)) == (1, 2, 2, 1)
    assert quadratic(cartan(3), delta(cartan(3))) == 0


def test_reflection_examples():
    cd = cartan(3)
    assert reflect(cd, 1, simple_root(cd, 2)) == (1, 1, 0)
    assert reflect(cd, 2, simple_root(cd, 1)) == (1, 2, 0)
    for i in (1, 2, 3):
        a = simple_root(cd, i)
        assert reflect(cd, i, a) == tuple(-v for v in a)


def test_reflection_involution_and_q_invariance():
    rng = random.Random(11)
    for n in (3, 5):
        cd = cartan(n)
        for _ in range(200):
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            for i in range(1, n + 1):
                assert reflect(cd, i, reflect(cd, i, x)) == x
                assert quadratic(cd, reflect(cd, i, x)) == quadratic(cd, x)


def test_forms():
    cd = cartan(3)
    for i in (1, 2, 3):
        assert quadratic(cd, simple_root(cd, i)) == cd.d[i - 1]
    rng = random.Random(5)
    omega = ("R", "R")
    for _ in range(200):
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        y = tuple(rng.randint(-3, 3) for _ in range(3))
        lhs = ringel_form(cd, omega, x, y) + ringel_form(cd, omega, y, x)
        assert lhs == sym_form(cd, x, y)
    dl = delta(cd)
    assert quadratic(cd, dl) == sym_form(cd, dl, dl) == ringel_form(cd, omega, dl, dl) == 0


def test_enumerate_examples():
    cd = cartan(3)
    roots4 = enumerate_positive_roots(cd, 4)
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 0), (1, 2, 1)):
        assert v in roots4
    assert all(all(c >= 0 for c in r) for r in roots4)


def test_enumerate_closure_under_delta_shift():
    cd = cartan(4)
    bound = 12
    found = enumerate_positive_roots(cd, bound)
    dl = delta(cd)
    for r in found:
        if quadratic(cd, r) in (1, 2):
            shifted = tuple(a + b for a, b in zip(r, dl))
            if sum(shifted) <= bound:
                assert shifted in found


def test_enumerate_traversal_independence():
    """The upward closure against a depth-first closure under every
    reflection, at n = 3..5 to bound 10 and at the sizes of the benchmark's
    check_gls sweep."""
    sizes = [(3, 10), (4, 10), (5, 10), (3, 14), (4, 14), (5, 14), (6, 20), (7, 21), (8, 28)]
    for n, bound in sizes:
        cd = cartan(n)
        mine = enumerate_positive_roots(cd, bound)
        alt = reflection_closure_alt(cd, bound, reflect, delta(cd))
        assert mine == alt, (n, bound)


def test_real_roots_within_q_criterion():
    for n in (3, 4, 5):
        cd = cartan(n)
        dl = delta(cd)
        for r in enumerate_positive_roots(cd, 10):
            q = quadratic(cd, r)
            if r[0] > 0 and r == tuple(r[0] * v for v in dl):
                assert q == 0
            else:
                assert q in (1, 2)


def test_q_criterion_exact_small_rank():
    # for n = 3, 4 the q-criterion together with positivity is exact
    for n in (3, 4):
        cd = cartan(n)
        dl = delta(cd)
        bound = 8
        box = set()

        def gen(prefix, left):
            if len(prefix) == n:
                if any(prefix):
                    yield tuple(prefix)
                return
            for v in range(left + 1):
                yield from gen(prefix + [v], left - v)

        for x in gen([], bound):
            q = quadratic(cd, x)
            if q in (1, 2):
                box.add(x)
            elif q == 0 and x[0] > 0 and x == tuple(x[0] * v for v in dl):
                box.add(x)
        assert box == enumerate_positive_roots(cd, bound)


def test_admissible_sequences():
    assert admissible_sequences(("R", "R"), "+") == [(3, 2, 1)]
    assert is_admissible_sequence(("R", "R"), (3, 2, 1), "+")
    assert not is_admissible_sequence(("R", "R"), (1, 2, 3), "+")
    assert is_admissible_sequence(("R", "R"), (1, 2, 3), "-")
    for orient in all_orientations(4):
        omega = tuple(orient)
        for seq in admissible_sequences(omega, "+"):
            assert is_admissible_sequence(omega, tuple(reversed(seq)), "-")
            # rotation property: rotated sequence admissible for the reflected orientation
            rotated = seq[1:] + seq[:1]
            assert is_admissible_sequence(reflect_orientation(omega, seq[0]), rotated, "+")


@pytest.mark.parametrize("n", range(2, 7))
def test_admissible_sequences_are_the_sorted_admissible_permutations(n):
    """The walk enumerator lists exactly the orderings that
    `is_admissible_sequence` accepts, in lexicographic order."""
    for orient in all_orientations(n):
        omega = tuple(orient)
        for polarity in "+-":
            accepted = [seq for seq in itertools.permutations(range(1, n + 1))
                        if is_admissible_sequence(omega, seq, polarity)]
            assert admissible_sequences(omega, polarity) == sorted(accepted)


@pytest.mark.parametrize("polarity", ["x", "", None, 1, "+-"])
def test_a_polarity_other_than_plus_or_minus_is_refused(polarity):
    cd = cartan(3)
    for check in (lambda: is_end("RR", 3, 3, polarity),
                  lambda: is_admissible_sequence("RR", (3, 2, 1), polarity),
                  lambda: is_admissible_sequence("RR", (1, 1, 1), polarity),
                  lambda: admissible_sequences("RR", polarity),
                  lambda: beta(cd, (3, 2, 1), 1, polarity),
                  lambda: gamma(cd, (3, 2, 1), 1, polarity)):
        with pytest.raises(DomainError, match="polarity"):
            check()


@pytest.mark.parametrize("seq", [(9, 2, 1), (3, 2), (1, 1, 2), (3, 2, 1, 4)])
def test_a_sequence_that_does_not_order_the_vertices_is_refused(seq):
    """beta and gamma read their sequence as `coxeter` does: a wrong vertex,
    a missing one or a repeated one is refused, not reflected along."""
    cd = cartan(3)
    for check in (lambda: coxeter(cd, seq), lambda: beta(cd, seq, 1, "+"),
                  lambda: beta(cd, seq, 1, "-"), lambda: gamma(cd, seq, 1, "+")):
        with pytest.raises(DomainError, match="must order the vertices"):
            check()


@pytest.mark.parametrize("orientation", ["XX", ("X", "X"), "RX", "lR", ("R", None)])
def test_an_orientation_letter_other_than_r_or_l_is_refused(orientation):
    """An orientation is read letter by letter, so ("X", "X") is refused by
    the Ringel form, not read as ("L", "L"), and by the admissible sequences,
    which would otherwise find none."""
    cd = cartan(3)
    for check in (lambda: ringel_form(cd, orientation, (0, 1, 0), (1, 0, 0)),
                  lambda: nonadmissible_vertices(orientation, 3),
                  lambda: is_admissible_sequence(orientation, (1, 2, 3)),
                  lambda: admissible_sequences(orientation, "-"),
                  lambda: closed_form_positive_roots(cd, orientation, (1, 2, 3), 4)):
        with pytest.raises(DomainError, match="orientation of length n-1"):
            check()


@pytest.mark.parametrize("k", [0, 4, -1, 1.0, True, "1", None])
def test_an_orbit_index_outside_the_sequence_is_refused(k):
    cd = cartan(3)
    for orbit in (beta, gamma):
        for polarity in "+-":
            with pytest.raises(DomainError, match="orbit index"):
                orbit(cd, (3, 2, 1), k, polarity)


def test_coxeter_and_beta_gamma():
    cd = cartan(3)
    seq = (3, 2, 1)
    cox = coxeter(cd, seq)
    assert cox.apply(delta(cd), 1) == delta(cd)
    assert cox.apply(delta(cd), -1) == delta(cd)
    assert beta(cd, seq, 1, "+") == simple_root(cd, 3)
    assert gamma(cd, seq, 3, "+") == simple_root(cd, 1)
    assert beta(cd, seq, 3, "+") == (1, 2, 2)  # rank of P_1
    # c and c^-1 invert each other
    rng = random.Random(2)
    for _ in range(50):
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        assert cox.apply(cox.apply(x, 1), -1) == x


def test_rotation_lemma():
    for n in (3, 4, 5):
        cd = cartan(n)
        for orient in all_orientations(n):
            omega = tuple(orient)
            for seq in admissible_sequences(omega, "+"):
                rotated = seq[1:] + seq[:1]
                omega2 = reflect_orientation(omega, seq[0])
                depth = 6
                cox1 = coxeter(cd, seq)
                cox2 = coxeter(cd, rotated)

                def orbit(cox, s, d):
                    out = set()
                    for k in range(1, n + 1):
                        x = beta(cd, s, k, "+")
                        y = gamma(cd, s, k, "+")
                        for r in range(d):
                            out.add(x)
                            out.add(y)
                            x = cox.apply(x, -1)
                            y = cox.apply(y, 1)
                    return out

                a1 = simple_root(cd, seq[0])
                big1 = orbit(cox1, seq, depth) - {a1}
                big2 = orbit(cox2, rotated, depth + 1) - {a1}
                for x in orbit(cox1, seq, depth - 1) - {a1}:
                    assert reflect(cd, seq[0], x) in big2
                for y in orbit(cox2, rotated, depth - 1) - {a1}:
                    assert reflect(cd, seq[0], y) in big1
                break  # one sequence per orientation keeps this quick


def test_closed_form_matches_bfs():
    cd = cartan(3)
    omega = ("R", "R")
    assert closed_form_positive_roots(cd, omega, (3, 2, 1), 12) == \
        enumerate_positive_roots(cd, 12)
    with pytest.raises(DomainError):
        closed_form_positive_roots(cd, omega, (1, 2, 3), 12)
    for n, bound in ((6, 20), (7, 21), (8, 28)):
        cd = cartan(n)
        bfs = enumerate_positive_roots(cd, bound)
        for orient in all_orientations(n):
            seq = admissible_sequences(orient, "+")[0]
            assert closed_form_positive_roots(cd, tuple(orient), seq, bound) == bfs, orient


def test_coxeter_power_n_minus_1_is_a_delta_shift():
    # the premise of the closed form of roots._orbit_within_bound and of the
    # stopping rule of the oracle oracles.bounded_orbit
    for n in range(3, 9):
        cd = cartan(n)
        dl = delta(cd)
        basis = tuple(simple_root(cd, i) for i in range(1, n + 1))
        for orient in all_orientations(n):
            # c(e_1), ..., c(e_n) for every +-admissible sequence.  Sequences
            # come in lexicographic order; each reuses the partial products
            # of the prefix it shares with the one before (n = 8 has 40320).
            images = set()
            prefix, partial = (), [basis]
            for seq in admissible_sequences(orient, "+"):
                k = next((j for j, (a, b) in enumerate(zip(prefix, seq)) if a != b), 0)
                del partial[k + 1:]
                for i in seq[k:]:
                    partial.append(tuple(reflect(cd, i, x) for x in partial[-1]))
                prefix = seq
                images.add(partial[-1])
            assert len(images) == 1, orient  # one Coxeter transformation per orientation
            cox = coxeter(cd, seq)
            for e in basis:
                for power in (n - 1, 1 - n):
                    shift = [a - b for a, b in zip(cox.apply(e, power), e)]
                    assert shift == [shift[0] * d for d in dl], (orient, e, power)


def test_bounded_orbit_stops_after_n_minus_1_misses_not_one():
    """An orbit that climbs by delta every n - 1 = 2 steps, one residue class
    starting higher: a single miss at (3,3,3) comes before (2,2,1) inside
    the bound, and only the two misses (4,5,4), (3,4,2) end the walk."""
    cd = cartan(3)
    orbit = [(1, 0, 0), (3, 3, 3), (2, 2, 1), (4, 5, 4), (3, 4, 2), (5, 7, 5)]
    assert delta(cd) == (1, 2, 1)
    assert [height(x) for x in orbit] == [1, 9, 5, 13, 9, 17]
    walked = list(bounded_orbit(cd, iter(orbit), 6))
    assert (2, 2, 1) in walked
    assert walked == orbit[:5]


def test_closed_form_families_disjoint():
    for n, omega, seq in ((3, ("R", "R"), (3, 2, 1)), (4, ("R", "R", "L"), None)):
        cd = cartan(n)
        if seq is None:
            seq = admissible_sequences(omega, "+")[0]
        fams = closed_form_families(cd, omega, seq, 12)
        names = list(fams)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not (fams[a] & fams[b]), (a, b, fams[a] & fams[b])
        realish = fams["preprojective"] | fams["preinjective"]
        for x in realish:
            assert quadratic(cd, x) in (1, 2)


def test_alternating_orientation_closed_form():
    # alternating spine: every vertex admissible; the window root is a_1 + a_2
    omega = ("R", "L", "R")
    cd = cartan(4)
    seq = admissible_sequences(omega, "+")[0]
    assert closed_form_positive_roots(cd, omega, seq, 12) == enumerate_positive_roots(cd, 12)


def test_the_closed_form_orbits_match_the_walked_orbits():
    """`_orbit_within_bound` computes x_0 .. x_{n-1} and reads every residue
    class off its first member; it returns the roots of the orbit that
    `bounded_orbit` walks one Coxeter step at a time, for n = 3..8, every
    orientation, both sides and the check_gls bounds of the benchmark."""
    for n, bound in ((3, 14), (4, 14), (5, 14), (6, 20), (7, 21), (8, 28)):
        cd = cartan(n)
        for orient in all_orientations(n):
            seq = admissible_sequences(orient, "+")[0]
            cox = coxeter(cd, seq)
            for k in range(1, n + 1):
                for start, power in ((beta(cd, seq, k, "+"), -1), (gamma(cd, seq, k, "+"), 1)):
                    got = _orbit_within_bound(cd, cox, start, power, bound)
                    walked = orbit_within_bound_by_walk(cd, cox, start, power, bound)
                    assert sorted(got) == sorted(walked), (orient, k, power)
