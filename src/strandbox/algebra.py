"""Quiver presentations with monomial relations.

The central family is the gentle algebra on an A_n spine with loops at the
two end vertices and square-zero relations on the loops, parameterized by n
and a per-edge orientation of the spine.  Generic presentations built by
hand are accepted by the string/word machinery as long as
``validate_string_algebra`` reports no violations.

Presentations are immutable; everything here is pure and safe to share.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, UnsupportedPresentation, require_size
from .record import Record


class Arrow(Record):
    """An arrow `name`: source -> target."""

    __slots__ = ("name", "source", "target")

    def __hash__(self):  # written out: every `Letter(arrow, sign)` lookup hashes the arrow
        return hash((self.name, self.source, self.target))

    @property
    def is_loop(self):
        return self.source == self.target

    def __repr__(self):
        return f"{self.name}({self.source}->{self.target})"


def arrow_key(a: Arrow):
    """Total order on arrows: loops first, then by source, then target, then
    name (which tells parallel arrows apart)."""
    return (0 if a.is_loop else 1, a.source, a.target, a.name)


class Presentation(Record):
    """A quiver with monomial relations.

    ``relations`` are composable paths stored in word order: the relation
    c_1 c_2 means "first c_2 then c_1" and requires s(c_1) = t(c_2).
    ``orientation`` is the per-spine-edge direction tuple ('R' = i->i+1)
    for members of the C-tilde family, None for generic presentations.
    """

    __slots__ = ("n", "arrows", "relations", "orientation")

    def __init__(self, n, arrows, relations, orientation=None):
        Record.__init__(self, n, arrows, relations, orientation)

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def __hash__(self):
        # Every per-presentation table is looked up by this hash.  Equal
        # presentations agree on (n, orientation), and hashing only those
        # avoids rehashing every arrow; generic presentations of one size
        # share a bucket and are told apart by equality.
        return hash((self.n, self.orientation))

    def __repr__(self):
        o = "".join(self.orientation) if self.orientation else "generic"
        return f"Presentation(n={self.n}, {o})"


def spine_arrow_name(j, i):
    """Name of the spine arrow i -> j (target written first, as a_ji)."""
    if max(i, j) <= 9:
        return f"a{j}{i}"
    return f"a{j}_{i}"


def normalize_orientation(orientation, n):
    """The spine orientation as a tuple of n - 1 letters R or L; DomainError
    for anything else, None included."""
    letters = tuple(orientation or ())
    if len(letters) != n - 1 or any(d not in ("R", "L") for d in letters):
        raise DomainError(f"expected a spine orientation of length n-1 = {n - 1} in the letters"
                          f" R and L, not {orientation!r}")
    return letters


def build_type_C_algebra(n, orientation):
    """The C-tilde presentation: A_n spine, loops e1/en, relations e1^2, en^2."""
    require_size("n", n, 3)
    orientation = normalize_orientation(orientation, n)
    e1 = Arrow("e1", 1, 1)
    en = Arrow(f"e{n}", n, n)
    arrows = [e1, en]
    for k, d in enumerate(orientation, start=1):
        if d == "R":
            arrows.append(Arrow(spine_arrow_name(k + 1, k), k, k + 1))
        else:
            arrows.append(Arrow(spine_arrow_name(k, k + 1), k + 1, k))
    arrows.sort(key=arrow_key)
    return Presentation(
        n=n,
        arrows=tuple(arrows),
        relations=((e1, e1), (en, en)),
        orientation=orientation,
    )


# ---------------------------------------------------------------------------
# cached structural accessors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def arrows_at(p: Presentation):
    """(by_source, by_target): vertex -> the arrows leaving it, and vertex ->
    the arrows entering it, each in arrow order."""
    tables = ({u: [] for u in p.vertices}, {u: [] for u in p.vertices})
    for a in sorted(p.arrows, key=arrow_key):
        tables[0][a.source].append(a)
        tables[1][a.target].append(a)
    return tuple({u: tuple(v) for u, v in t.items()} for t in tables)


@lru_cache(maxsize=None)
def arrow_named(p: Presentation):
    return {a.name: a for a in p.arrows}


@lru_cache(maxsize=None)
def spine_arrows(p: Presentation):
    return tuple(a for a in p.arrows if not a.is_loop)


@lru_cache(maxsize=None)
def loop_arrows(p: Presentation):
    return tuple(a for a in p.arrows if a.is_loop)


@lru_cache(maxsize=None)
def is_ctilde(p: Presentation):
    """Membership in the C-tilde family (loops exactly at 1 and n, A_n spine)."""
    if p.orientation is None:
        return False
    loops = {a.source for a in loop_arrows(p)}
    if loops != {1, p.n}:
        return False
    edges = {frozenset((a.source, a.target)) for a in spine_arrows(p)}
    return edges == {frozenset((i, i + 1)) for i in range(1, p.n)}


def require_ctilde(p, what):
    """The one C-tilde gate: UnsupportedPresentation, naming `what`, unless
    p is in the C-tilde family."""
    if not is_ctilde(p):
        raise UnsupportedPresentation(f"{what} is defined in the C-tilde family only, not on {p!r}")


# ---------------------------------------------------------------------------
# string-algebra validation
# ---------------------------------------------------------------------------

def validate_string_algebra(p: Presentation):
    """Check the three string-algebra conditions; returns a list of violations.

    An empty list means the presentation is a string algebra.  Violations
    carry the witnessing vertex, arrow or relation; condition (3) asks that
    each relation be a composable path of at least 2 arrows.
    """
    violations = []
    by_src, by_tgt = arrows_at(p)
    for u in p.vertices:
        if len(by_src[u]) > 2:
            violations.append(f"condition (1): vertex {u} has {len(by_src[u])} outgoing arrows")
        if len(by_tgt[u]) > 2:
            violations.append(f"condition (1): vertex {u} has {len(by_tgt[u])} incoming arrows")
    for a in p.arrows:
        befores = [b for b in by_src[a.target] if (b, a) not in p.relations]
        if len(befores) > 1:
            names = ",".join(b.name for b in befores)
            violations.append(f"condition (2): arrow {a.name} has continuations {names} outside I")
        afters = [g for g in by_tgt[a.source] if (a, g) not in p.relations]
        if len(afters) > 1:
            names = ",".join(g.name for g in afters)
            violations.append(f"condition (2): arrow {a.name} has pre-compositions {names} outside I")
    for rel in p.relations:
        if len(rel) < 2:
            violations.append(f"condition (3): relation {'.'.join(x.name for x in rel)} is shorter than 2 arrows")
        for c, d in zip(rel, rel[1:]):
            if c.source != d.target:
                violations.append(f"condition (3): relation {'.'.join(x.name for x in rel)} is not a composable path")
                break
    return violations

