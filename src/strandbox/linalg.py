"""Exact linear algebra over the rationals or a prime field, in plain ints.

A field is given by its characteristic: 0 for Q, p for GF(p).  Matrices are
sparse dicts {(row, col): entry} and rows are sparse dicts {column: entry},
with int entries: reduced mod p over GF(p), any integer over Q.  Rank over Q
is taken fraction-free, by integer row operations with a gcd normalisation,
so no floating point or Fraction appears anywhere.  Polynomials are ascending
int coefficient tuples, and the degree of a gcd has one rule, `gcd_degree`
(a Sylvester rank), which the irreducibility test reads too.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainError

# The largest prime a field spec may name: the primality check is trial
# division, which needs at most isqrt(MAX_PRIME) = 46,340 steps.
MAX_PRIME = 2**31 - 1


@lru_cache(maxsize=None, typed=True)
def field_char(char):
    """char itself when it names a field: 0 for Q, or a prime p <= MAX_PRIME
    for GF(p); DomainError otherwise.  Cached, so a repeated check is one
    lookup."""
    if char.__class__ is not int or char < 0:
        raise DomainError(f"a field characteristic is 0 or a prime, not {char!r}")
    if char > MAX_PRIME:
        raise DomainError(f"field size {char} is above the limit 2^31 - 1 = {MAX_PRIME}")
    if char and (char < 2 or any(char % q == 0 for q in range(2, isqrt(char) + 1))):
        raise DomainError(f"not a prime: {char}")
    return char


def scalar_from_spec(spec):
    """The characteristic of a base-field spec: 0 for 'rat', p for
    'fp:<prime>' with p <= MAX_PRIME."""
    if spec == "rat":
        return 0
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise DomainError(f"bad field spec {spec!r}: fp: takes a prime, as in fp:101") from None
        if p < 2:
            raise DomainError(f"not a prime: {p}")
        return field_char(p)
    raise DomainError(f"unknown field spec: {spec!r}")


def field_name(char):
    return f"GF({char})" if char else "Q"


def field_value(v, char):
    """The int v as an entry over the field of characteristic `char`."""
    return v % char if char else v


def sparse_mul(a, b, char=0):
    """Product of sparse matrices {(row, col): entry}; zero entries dropped."""
    b_rows = {}
    for (k, j), v in b.items():
        b_rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in a.items():
        for j, v in b_rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + u * v
    if char:
        return {ij: x % char for ij, x in out.items() if x % char}
    return {ij: x for ij, x in out.items() if x}


def echelon(rows, char=0):
    """Pivot rows of an echelon form of sparse int rows {column: entry} over
    the field of characteristic `char`, keyed by their leading (least) column.

    Each row is reduced by the stored pivot rows at its lead until it
    vanishes or becomes a new pivot row.  Over GF(p) a pivot row is stored
    scaled to 1 at its lead, and a row with lead f is reduced by
    row - f * pivot.  Over Q there are no fractions: a pivot row is stored
    divided by the gcd of its entries, and a row is reduced by
    (l/g) * row - (f/g) * pivot, with l the pivot's lead and g = gcd(l, f).
    """
    pivots = {}
    for row in rows:
        if char:
            row = {c: v % char for c, v in row.items() if v % char}
        else:
            row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            f = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                if char:
                    inv = pow(f, char - 2, char)
                    pivots[lead] = {c: v * inv % char for c, v in row.items()}
                else:
                    g = gcd(*row.values())
                    pivots[lead] = {c: v // g for c, v in row.items()}
                break
            if char:
                t = f
            else:
                g = gcd(pivot[lead], f)
                s, t = pivot[lead] // g, f // g
                if s != 1:
                    row = {c: s * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - t * v
                if char:
                    x %= char
                if x:
                    row[c] = x
                else:
                    del row[c]
    return pivots


def mat_rank(rows, char=0):
    """Rank of sparse int rows {column: entry} over the field of
    characteristic `char`; it does not depend on the order of the rows."""
    return len(echelon(rows, char))


def poly_mul(a, b):
    """Product of polynomials given as ascending integer coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def poly_pow(a, k):
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def gcd_degree(a, b, char=0):
    """deg gcd(a, b) over the field of characteristic `char`, for polynomials
    (ascending int coefficients) whose leading coefficients are nonzero
    there: deg a + deg b - rank of their Sylvester matrix, whose rows are
    the shifts T^k a (k < deg b) and T^k b (k < deg a)."""
    da, db = len(a) - 1, len(b) - 1
    rows = [{k + i: v for i, v in enumerate(f)} for f, shifts in ((a, db), (b, da))
            for k in range(shifts)]
    return da + db - mat_rank(rows, char)


def _poly_rem(a, b, p):
    """Remainder of a by b over GF(p), trimmed; b has a nonzero leading term."""
    a = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    for top in range(len(a) - 1, db - 1, -1):
        q = a[top] * inv % p
        if q:
            for k, bk in enumerate(b):
                a[top - db + k] = (a[top - db + k] - q * bk) % p
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return a


def is_irreducible_mod(poly, p):
    """Whether a monic polynomial (ascending int coefficients, degree >= 1) is
    irreducible over GF(p), by the distinct-degree test: a degree-d f is
    irreducible iff gcd(T^(p^k) - T, f) = 1 for every k <= d / 2, the gcd
    degree read off `gcd_degree` (a zero T^(p^k) - T mod f leaves f itself)."""
    f = [c % p for c in poly]
    h = [0, 1]  # T^(p^k) mod f, starting at k = 0
    for _ in range((len(f) - 1) // 2):
        h, base, e = [1], h, p  # h^p mod f, by squaring
        while e:
            if e & 1:
                h = _poly_rem(poly_mul(h, base), f, p)
            base = _poly_rem(poly_mul(base, base), f, p)
            e >>= 1
        r = h + [0] * (2 - len(h))
        r[1] -= 1  # h - T
        r = _poly_rem(r, f, p)
        if not r or gcd_degree(f, r, p):
            return False
    return True


def companion_matrix(poly, char=0):
    """Sparse companion matrix of a monic polynomial (ascending coefficients)."""
    d = len(poly) - 1
    m = {(i + 1, i): 1 for i in range(d - 1)}
    for i in range(d):
        v = field_value(-poly[i], char)
        if v:
            m[i, d - 1] = v
    return m
