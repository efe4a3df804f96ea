"""Affine C-tilde Cartan data, reflections, forms, roots, Coxeter transformations.

Root vectors are integer tuples in the simple-root basis.  Positive roots are
enumerated as the closure of the simple roots under height-increasing
reflections within a height bound, together with the multiples of the
minimal imaginary root delta = (1,2,...,2,1).  The closed-form description via
beta/gamma Coxeter orbits plus delta-shifted window sums is provided for
cross-checking; each orbit is read off its first period of n-1 steps, since
c^{n-1} shifts it by a positive multiple of delta.  Sinks (polarity '+') and
sources ('-') of the spine are told apart by one test, `is_end`, which the
admissible sequences read.  A polarity is '+' or '-', an orientation is
n - 1 letters R or L (`algebra.normalize_orientation`), the sequence of
`coxeter`, `beta` and `gamma` orders the vertices 1..n, and a beta/gamma
index runs over 1..n, or DomainError is raised.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .algebra import normalize_orientation
from .errors import DomainError, InternalCheckError, require_size
from .record import Record


class CartanData(Record):
    """The Cartan matrix C of rank n, by rows, and its symmetrizer diagonal d."""

    __slots__ = ("n", "rows", "d")

    def c(self, i, j):
        return self.rows[i - 1][j - 1]


@lru_cache(maxsize=None, typed=True)
def cartan(n):
    """The C-tilde_{n-1} Cartan matrix with minimal symmetrizer diag(2,1,..,1,2),
    built and checked symmetrizable once per n (typed, so that 3.0 misses the
    entry of 3 and is refused)."""
    require_size("n", n, 3)
    rows = []
    for i in range(1, n + 1):
        row = [0] * n
        row[i - 1] = 2
        if i > 1:
            row[i - 2] = -2 if i == 2 else -1
        if i < n:
            row[i] = -2 if i == n - 1 else -1
        rows.append(tuple(row))
    d = (2,) + (1,) * (n - 2) + (2,)
    cd = CartanData(n, tuple(rows), d)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if cd.d[i - 1] * cd.c(i, j) != cd.d[j - 1] * cd.c(j, i):
                raise InternalCheckError("DC is not symmetric")
    return cd


def delta(cd: CartanData):
    return (1,) + (2,) * (cd.n - 2) + (1,)


def simple_root(cd, i):
    return tuple(1 if j == i else 0 for j in range(1, cd.n + 1))


def height(x):
    return sum(x)


def delta_shift(dl, x, y):
    """The D > 0 with y = x + D*delta, for delta = dl; InternalCheckError
    when there is none."""
    shift = y[0] - x[0]
    if shift <= 0 or any(a - b != shift * d for a, b, d in zip(y, x, dl)):
        raise InternalCheckError(f"{y} is not {x} plus a positive multiple of delta")
    return shift


def climb(x, step, bound):
    """x, x + step, x + 2 step, ... while the height is <= bound; step has
    positive height."""
    while height(x) <= bound:
        yield x
        x = tuple([a + b for a, b in zip(x, step)])


def is_nonnegative(x):
    return all(v >= 0 for v in x)


def reflect(cd, i, x):
    """s_i(x): subtract (sum_j c_ij x_j) from coordinate i."""
    pairing = sum(map(mul, cd.rows[i - 1], x))
    out = list(x)
    out[i - 1] -= pairing
    return tuple(out)


def sym_form(cd, x, y):
    """The symmetric bilinear form x^T (DC) y."""
    return sum(xi * di * sum(map(mul, row, y)) for xi, di, row in zip(x, cd.d, cd.rows) if xi)


def quadratic(cd, x):
    s = sym_form(cd, x, x)
    if s % 2:
        raise InternalCheckError("symmetric form is odd on the diagonal")
    return s // 2


def ringel_form(cd, orientation, x, y):
    """The orientation-dependent bilinear form with
    <x,y> + <y,x> = x^T(DC)y and hom - ext1 = <rank,rank> on locally free modules.

    The arrow term weights x at the source and y at the target of each
    spine arrow.
    """
    orientation = normalize_orientation(orientation, cd.n)
    total = sum(cd.d[i] * x[i] * y[i] for i in range(cd.n))
    for k, direction in enumerate(orientation, start=1):
        i, j = (k, k + 1) if direction == "R" else (k + 1, k)
        total += cd.d[j - 1] * cd.c(j, i) * x[i - 1] * y[j - 1]
    return total


# ---------------------------------------------------------------------------
# positive roots
# ---------------------------------------------------------------------------

def enumerate_positive_roots(cd, bound):
    """Positive roots of height <= bound: the real ones, closed upward from
    the simple roots by height-increasing reflections, united with the
    positive multiples of delta.

    Each root x carries its pairings p_i(x) = sum_j c_ij x_j, column i of C
    for the simple root alpha_i.  s_i adds -p_i(x) to x_i, so it raises the
    height exactly when p_i(x) < 0, and then keeps x positive; the pairings
    of s_i x are those of x minus p_i(x) times column i.  The steps reach
    every positive real root beta of height <= bound: if beta is not simple,
    (beta|beta) = sum_i d_i beta_i p_i(beta) > 0 and beta >= 0 give an i
    with beta_i > 0 and p_i(beta) > 0, so s_i beta is a positive real root
    of lower height, and beta is one height-increasing step above it.  By
    induction on the height, a chain of such steps within the bound leads
    from a simple root up to beta.
    """
    require_size("bound", bound, 0)
    dl = delta(cd)
    cols = list(zip(*cd.rows))
    queue = [(simple_root(cd, i + 1), cols[i]) for i in range(cd.n)] if bound >= 1 else []
    found = {x for x, _ in queue}
    for x, pairs in queue:  # grows while it is read
        room = bound - height(x)
        for i, p in enumerate(pairs):
            if 0 < -p <= room:
                y = x[:i] + (x[i] - p,) + x[i + 1:]
                if y not in found:
                    found.add(y)
                    queue.append((y, tuple([a - p * c for a, c in zip(pairs, cols[i])])))
    for x in found:
        if quadratic(cd, x) not in (1, 2):
            raise InternalCheckError(f"real-root candidate {x} has bad length")
    found.update(climb(dl, dl, bound))
    return found


# ---------------------------------------------------------------------------
# orientations and admissible sequences
# ---------------------------------------------------------------------------

def _polarity(polarity):
    """polarity itself when it is '+' or '-'; DomainError otherwise."""
    if polarity not in ("+", "-"):
        raise DomainError(f"a polarity is '+' or '-', not {polarity!r}")
    return polarity


def is_end(orientation, n, v, polarity):
    """Whether v is a sink (polarity '+') or a source ('-') of the loop-free
    spine quiver under the R/L edge directions: its left edge reads R and its
    right edge L for a sink, the mirror for a source."""
    left, right = ("R", "L") if _polarity(polarity) == "+" else ("L", "R")
    return (v == 1 or orientation[v - 2] == left) and (v == n or orientation[v - 1] == right)


def reflect_orientation(orientation, v):
    """Flip the spine edges incident to v."""
    out = list(orientation)
    if v >= 2:
        out[v - 2] = "L" if out[v - 2] == "R" else "R"
    if v <= len(orientation):
        out[v - 1] = "L" if out[v - 1] == "R" else "R"
    return tuple(out)


def nonadmissible_vertices(orientation, n):
    orientation = normalize_orientation(orientation, n)
    return [v for v in range(1, n + 1) if not any(is_end(orientation, n, v, s) for s in "+-")]


def is_admissible_sequence(orientation, seq, polarity="+"):
    polarity, n = _polarity(polarity), len(orientation) + 1
    omega = normalize_orientation(orientation, n)
    if sorted(seq) != list(range(1, n + 1)):
        return False
    for v in seq:
        if not is_end(omega, n, v, polarity):
            return False
        omega = reflect_orientation(omega, v)
    return True


def admissible_sequences(orientation, polarity="+"):
    """All +- (or -)-admissible orderings of the vertices, in lexicographic
    order: the walks grow one vertex at a time, each by its unused ends in
    increasing order, reflecting the orientation at every step."""
    polarity, n = _polarity(polarity), len(orientation) + 1
    walks = [((), normalize_orientation(orientation, n))]
    for _ in range(n):
        walks = [(seq + (v,), reflect_orientation(omega, v)) for seq, omega in walks
                 for v in range(1, n + 1) if v not in seq and is_end(omega, n, v, polarity)]
    return [seq for seq, _ in walks]


# ---------------------------------------------------------------------------
# Coxeter transformations
# ---------------------------------------------------------------------------

class CoxeterTransform(Record):
    """c = s_{i_n} ... s_{i_1} for the vertex order seq = (i_1, ..., i_n)."""

    __slots__ = ("cd", "seq")

    def apply(self, x, power=1):
        """c^power(x), where c = s_{i_n} ... s_{i_1}."""
        order = self.seq if power > 0 else tuple(reversed(self.seq))
        for _ in range(abs(power)):
            for i in order:
                x = reflect(self.cd, i, x)
        return x


def _vertex_order(cd, seq):
    """seq as a tuple when it orders the vertices 1..n; DomainError otherwise."""
    if sorted(seq) != list(range(1, cd.n + 1)):
        raise DomainError(f"a vertex sequence must order the vertices 1..{cd.n}, not {seq!r}")
    return tuple(seq)


def coxeter(cd, seq):
    return CoxeterTransform(cd, _vertex_order(cd, seq))


def beta(cd, seq, k, polarity="+"):
    """beta_{i,k} for an admissible sequence (1-based k): alpha_{i_k} reflected
    by i_{k-1}, ..., i_1 for polarity +, by i_{k+1}, ..., i_m for -."""
    polarity, seq = _polarity(polarity), _vertex_order(cd, seq)
    if k.__class__ is not int or not 1 <= k <= cd.n:
        raise DomainError(f"an orbit index runs over 1..{cd.n}, not {k!r}")
    x = simple_root(cd, seq[k - 1])
    for i in reversed(seq[:k - 1]) if polarity == "+" else seq[k:]:
        x = reflect(cd, i, x)
    return x


def gamma(cd, seq, k, polarity="+"):
    """gamma_{i,k} for an admissible sequence (1-based k): beta_{i,k} of the
    other polarity."""
    return beta(cd, seq, k, "-" if _polarity(polarity) == "+" else "+")


def _orbit_within_bound(cd, cox, start, power_sign, bound):
    """{x_r = c^(power_sign * r)(start) : r >= 0} truncated to the height
    bound, in closed form.

    Only x_0 .. x_{n-1} are computed.  x_{n-1} - x_0 must be D*delta with
    D > 0 (`delta_shift`), and c must fix delta (c^{n-1} is a shift by
    multiples of delta, Dlab-Ringel, Mem. AMS 173, 1976; tests/test_roots.py
    checks the shift for n = 3..8 and every orientation).  Then
    x_{r+n-1} = c^r(x_{n-1}) = x_r + D*delta by linearity, so
    x_{r+q(n-1)} = x_r + qD*delta for every q: each residue class of r mod
    n-1 is read off its first member, climbing by D*delta until it leaves
    the bound (`climb`).
    """
    period, dl = cd.n - 1, delta(cd)
    xs = [start]
    for _ in range(period):
        xs.append(cox.apply(xs[-1], power_sign))
    shift = delta_shift(dl, start, xs[-1])
    if cox.apply(dl, power_sign) != dl:
        raise InternalCheckError("the Coxeter transformation does not fix delta")
    step = tuple([shift * d for d in dl])
    return [y for x in xs[:-1] for y in climb(x, step, bound)
            if is_nonnegative(y) and height(y) > 0]


def closed_form_families(cd, orientation, seq, bound):
    """The four families of the Coxeter-orbit description of the positive
    roots, separately: preprojective beta-orbits, preinjective gamma-orbits,
    delta-shifted window sums of a distinguished root, and the imaginary
    multiples of delta."""
    require_size("bound", bound, 0)
    if not is_admissible_sequence(orientation, seq, "+"):
        raise DomainError("closed form requires a +-admissible sequence")
    cox = coxeter(cd, seq)
    n = cd.n
    preproj = set()
    preinj = set()
    for k in range(1, n + 1):
        preproj.update(_orbit_within_bound(cd, cox, beta(cd, seq, k, "+"), -1, bound))
        preinj.update(_orbit_within_bound(cd, cox, gamma(cd, seq, k, "+"), +1, bound))
    nonadm = nonadmissible_vertices(orientation, n)
    if nonadm:
        alpha = simple_root(cd, nonadm[0])
    else:
        alpha = tuple(a + b for a, b in zip(simple_root(cd, 1), simple_root(cd, 2)))
    powers = [alpha]
    for _ in range(2 * n):
        powers.append(cox.apply(powers[-1], 1))
    dl = delta(cd)
    windows = set()
    for p_start in range(0, n - 1):
        for q in range(0, n - 2):
            x = tuple(sum(powers[j][t] for j in range(p_start, p_start + q + 1)) for t in range(n))
            windows.update(y for y in climb(x, dl, bound) if is_nonnegative(y))
    return {"preprojective": preproj, "preinjective": preinj,
            "windows": windows, "imaginary": set(climb(dl, dl, bound))}


def closed_form_positive_roots(cd, orientation, seq, bound):
    """Union of the four closed-form families."""
    fams = closed_form_families(cd, orientation, seq, bound)
    out = set()
    for part in fams.values():
        out |= part
    return out
