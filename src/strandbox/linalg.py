"""Exact linear algebra over the rationals or a prime field.

Matrices are plain lists of lists whose entries support +, -, *, / and
compare truthy when nonzero (Fraction does; GFElement below does).  All
eliminations are exact, no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


class GFElement:
    """Element of the prime field GF(p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = int(v) % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise DomainError("mixed prime fields")
            return other
        return GFElement(other, self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return GFElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return GFElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return GFElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class PrimeField:
    """Callable converting ints to GF(p) elements; usable as a scalar factory."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise DomainError(f"not a prime: {p}")
        self.p = p

    def __call__(self, v=0):
        return GFElement(v, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


def scalar_from_spec(spec):
    """Parse a base-field spec: 'rat' or 'fp:<prime>'."""
    if spec == "rat":
        return Fraction
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise DomainError(f"unknown field spec: {spec!r}")


def zero_matrix(rows, cols, scalar=Fraction):
    z = scalar(0)
    return [[z] * cols for _ in range(rows)]


def identity_matrix(n, scalar=Fraction):
    m = zero_matrix(n, n, scalar)
    one = scalar(1)
    for i in range(n):
        m[i][i] = one
    return m


def mat_mul(a, b, scalar=Fraction):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zero_matrix(rows, cols, scalar)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + aik * bk[j]
    return out


def mat_rank(rows):
    """Rank by destructive Gaussian elimination; `rows` is consumed."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if not f:
                continue
            f = f / pval
            rr = rows[r]
            for c in range(col, ncols):
                rr[c] = rr[c] - f * prow[c]
        rank += 1
        if rank == len(rows):
            break
    return rank


def mat_inverse(a, scalar=Fraction):
    """Inverse of a square matrix; raises on singular input."""
    n = len(a)
    aug = [list(a[i]) + identity_matrix(n, scalar)[i] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise DomainError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = aug[col][col]
        aug[col] = [x / pval for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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


def companion_matrix(poly, scalar=Fraction):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    if poly[-1] != 1:
        raise DomainError("companion matrix requires a monic polynomial")
    d = len(poly) - 1
    m = zero_matrix(d, d, scalar)
    one = scalar(1)
    for i in range(d - 1):
        m[i + 1][i] = one
    for i in range(d):
        m[i][d - 1] = scalar(-poly[i])
    return m
