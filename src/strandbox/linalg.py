"""Exact linear algebra over the rationals or a prime field.

Matrices are plain lists of lists whose entries support +, -, *, / and
compare truthy when nonzero (Fraction does; GFElement below does).  Rank is
taken of sparse rows {column: entry} holding Fractions, or plain ints mod p
over GF(p).  All eliminations are exact, no floating point anywhere.
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
        try:
            p = int(spec[3:])
        except ValueError:
            raise DomainError(f"bad field spec {spec!r}: fp: takes a prime, as in fp:101") from None
        return PrimeField(p)
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


def characteristic(scalar):
    """0 for the rationals, p for the prime field GF(p)."""
    return scalar.p if isinstance(scalar, PrimeField) else 0


def mat_rank(rows, char=0):
    """Rank of sparse rows, each a dict {column: entry}, over the field of
    characteristic `char`: Fraction or int entries over Q (char 0), int
    entries over GF(char), reduced here.

    Incremental echelon form: each row is reduced by the stored pivot rows at
    its leading (smallest) column until it vanishes or becomes a new pivot
    row, stored scaled to 1 at its lead.  The rank does not depend on the
    order of the rows.
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
                    inv = 1 / Fraction(f)
                    pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if char:
                    x %= char
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def mat_inverse(a, scalar=Fraction):
    """Inverse of a square matrix; raises on singular input."""
    n = len(a)
    aug = [list(row) + unit for row, unit in zip(a, identity_matrix(n, scalar))]
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
    irreducible iff gcd(T^(p^k) - T, f) = 1 for every k <= d / 2."""
    f = [c % p for c in poly]
    h = [0, 1]  # T^(p^k) mod f, starting at k = 0
    for _ in range((len(f) - 1) // 2):
        power, base, e = [1], h, p
        while e:
            if e & 1:
                power = _poly_rem(poly_mul(power, base), f, p)
            base = _poly_rem(poly_mul(base, base), f, p)
            e >>= 1
        h = power
        r = h + [0] * (2 - len(h))
        r[1] -= 1  # h - T
        g, r = f, _poly_rem(r, f, p)
        while r:
            g, r = r, _poly_rem(g, r, p)
        if len(g) > 1:
            return False
    return True


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
