"""Words over signed arrows: strings, bands, canonical forms, enumeration.

Words follow the composition convention of path algebras: in w = c_1...c_m
consecutive letters satisfy s(c_i) = t(c_{i+1}), so the word starts (left)
at t(w) = t(c_1) and ends at s(w) = s(c_m).  A string is a reduced walk
avoiding the relation ideal; a band is a primitive cyclic string all of
whose powers are strings.

Strings are identified with their inverses (relation rho); bands also with
all rotations (rho').  Canonical representatives minimize a fixed letter
order: loops first, then by source, target and arrow name (a total order,
even on parallel arrows), direct before inverse.  Canonical forms compare
letter keys in place, building no candidate they reject.  Values are immutable.

Letters are interned: ``Letter(a, s)`` is one shared instance per
(arrow, sign), carrying its source, target, inverse and order key, so
letters compare and hash by identity.  Validity is checked against one
table per presentation (`_kernel`), the one place where relations become
what a string may not contain: each relation as letter windows, read
forward and inverted; the set of letter pairs that may stand next to each
other (composable, not backtracking, not a window); and the same pairs as a
successor table, letter -> the letters that may follow it.  A relation of
any other length than 2 is checked by reading its windows along the word.

Words are checked once, where they enter the program: `Letter`,
`trivial_word`, `string_word`, `parse_word` and `parse_band` validate; `word`,
`canonical_string`, `canonical_band` and `delta_length` trust their input.
A band of a C-tilde algebra is a word of atoms of 2n letters each, so its
delta-length is its length over 2n.  `enumerate_bands` generates the classes
as Lyndon words of atoms, in order, keeping the one word of each class that
is below every rotation of its inverse: that word is already the class's
canonical band, so no class is canonicalised, merged with its inverse or
sorted by letters.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import pairwise, product
from operator import attrgetter
from threading import Lock

from .algebra import (
    Presentation,
    arrow_key,
    arrow_named,
    require_ctilde,
    spine_arrows,
)
from .errors import DomainError, InternalCheckError, require_size
from .record import Record

_LETTERS = {}  # (arrow, sign) -> the interned Letter
_LETTERS_LOCK = Lock()  # so that two threads never intern one letter twice
_INVERSE, _SOURCE = attrgetter("inverse"), attrgetter("source")


class Letter:
    """A direct (sign +1) or formal inverse (sign -1) arrow; interned."""

    __slots__ = ("arrow", "sign", "source", "target", "inverse", "key")

    def __new__(cls, arrow, sign):
        try:
            return _LETTERS[arrow, sign]
        except KeyError:
            if sign not in (1, -1):
                raise DomainError(f"letter sign must be 1 or -1, not {sign!r}") from None
        with _LETTERS_LOCK:
            if (arrow, sign) not in _LETTERS:
                direct, inverse = object.__new__(cls), object.__new__(cls)
                direct._fill(arrow, 1, arrow.source, arrow.target, inverse)
                inverse._fill(arrow, -1, arrow.target, arrow.source, direct)
                _LETTERS[arrow, 1], _LETTERS[arrow, -1] = direct, inverse
            return _LETTERS[arrow, sign]

    def _fill(self, arrow, sign, source, target, inverse):
        key = arrow_key(arrow) + (0 if sign > 0 else 1,)
        for name, value in zip(self.__slots__, (arrow, sign, source, target, inverse, key)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("letters are immutable")

    def __delattr__(self, name):
        raise AttributeError("letters are immutable")

    def __reduce__(self):
        return Letter, (self.arrow, self.sign)

    def __repr__(self):
        return self.arrow.name + ("~" if self.sign < 0 else "")


def letter_key(c: Letter):
    return c.key


class StringWord(Record):
    """A string: either trivial at a vertex (with a +-/- side tag) or a
    nonempty word of letters.  The hash skips the presentation; equality
    compares it last, in one tuple, so that an identical presentation is
    not compared arrow by arrow."""

    __slots__ = ("presentation", "letters", "base", "tag")

    def __init__(self, presentation, letters, base=None, tag=1):
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tag", tag)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not StringWord:
            return NotImplemented
        return (self.letters, self.base, self.tag, self.presentation) == \
            (other.letters, other.base, other.tag, other.presentation)

    def __hash__(self):
        return hash((self.letters, self.base, self.tag))

    @property
    def is_trivial(self):
        return not self.letters

    @property
    def source(self):
        return self.letters[-1].source if self.letters else self.base

    @property
    def target(self):
        return self.letters[0].target if self.letters else self.base

    def __len__(self):
        return len(self.letters)

    @property
    def inverse(self):
        if not self.letters:
            return StringWord(self.presentation, (), self.base, -self.tag)
        return StringWord(self.presentation, tuple(map(_INVERSE, reversed(self.letters))))

    def walk(self):
        """Vertices x_1..x_{m+1} visited by the word."""
        if not self.letters:
            return (self.base,)
        return (self.letters[0].target,) + tuple(map(_SOURCE, self.letters))

    def __repr__(self):
        return format_word(self)


class Band(Record):
    """A band: its letters, read cyclically.  The hash skips the presentation."""

    __slots__ = ("presentation", "letters")

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def walk(self):
        """Vertices x_1..x_m (cyclic; x_{m+1} = x_1)."""
        return tuple(c.target for c in self.letters)

    def __repr__(self):
        return format_letters(self.letters)


def trivial_word(p, vertex, tag=1):
    """Validating constructor: the trivial word at the int vertex of p."""
    if vertex.__class__ is not int or vertex not in p.vertices:
        raise DomainError(f"no vertex {vertex!r}")
    return StringWord(p, (), vertex, tag)


def word(p, letters):
    """Internal fast constructor; no validity check."""
    return StringWord(p, tuple(letters))


def string_word(p, letters):
    """Validating constructor: raises DomainError unless the word is a string."""
    w = word(p, letters)
    if not is_string(w):
        raise DomainError(f"not a string: {format_letters(letters)}")
    return w


def word_sort_key(w: StringWord):
    if w.is_trivial:
        return (0, (w.base,))
    return (len(w.letters), tuple(map(letter_key, w.letters)))


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

class _Kernel(Record):
    """The validity tables of one presentation:

    letters       every letter of the presentation
    windows       each relation as letters: direct, and inverted (its
                  inverse letters in reverse order); a string holds none
    pairs         (c, d) such that c.d is a string
    ending_at     vertex -> letters with that target: direct, then inverse
    successors    letter c -> the letters d with (c, d) in pairs, in ending_at order
    long_lengths  window lengths other than 2, for the window check
    """

    __slots__ = ("letters", "windows", "pairs", "ending_at", "successors", "long_lengths")


@lru_cache(maxsize=None)
def _kernel(p: Presentation):
    arrows = sorted(p.arrows, key=arrow_key)
    ordered = [Letter(a, 1) for a in arrows] + [Letter(a, -1) for a in arrows]
    windows = frozenset(w for r in p.relations for w in (
        tuple(Letter(a, 1) for a in r), tuple(Letter(a, -1) for a in reversed(r))))
    pairs = frozenset(
        (c, d) for c in ordered for d in ordered
        if c.source == d.target and d is not c.inverse and (c, d) not in windows
    )
    ending_at = {u: tuple(c for c in ordered if c.target == u) for u in p.vertices}
    successors = {c: tuple(d for d in ending_at[c.source] if (c, d) in pairs) for c in ordered}
    long_lengths = tuple(sorted({len(w) for w in windows} - {2}))
    return _Kernel(frozenset(ordered), windows, pairs, ending_at, successors, long_lengths)


def successors(p):
    """Letter c -> the letters d such that c.d is a string, in `ending_at`
    order.  A relation longer than 2 can still forbid d after a longer word;
    `can_append` decides that."""
    return _kernel(p).successors


def _letters_valid(k: _Kernel, letters):
    if not k.pairs.issuperset(pairwise(letters)):
        return False
    return not any(
        letters[i:i + length] in k.windows
        for length in k.long_lengths
        for i in range(len(letters) - length + 1)
    )


def is_string(w):
    """Validity per the string definition, of a StringWord or of a Band's
    letters read as an open word; DomainError on foreign letters."""
    p, letters = w.presentation, w.letters
    if not letters:
        return w.base in p.vertices and w.tag in (1, -1)
    k = _kernel(p)
    if not k.letters.issuperset(letters):
        c = next(c for c in letters if c not in k.letters)
        raise DomainError(f"letter {c!r} does not belong to {p!r}")
    return _letters_valid(k, letters)


def can_append(p, letters, c):
    """Whether letters + (c,) is still backtrack- and relation-free.

    Assumes `letters` is already valid and `c` a letter of `p`; only the
    new tail is checked.
    """
    k = _kernel(p)
    if letters and (letters[-1], c) not in k.pairs:
        return False
    new = (*letters, c)  # a word shorter than `length` is read whole: a match is a window of it
    return not any(new[-length:] in k.windows for length in k.long_lengths)


_EXTENSION_CAP = 512  # guards against non-finite-dimensional input


def raw_extensions(w: StringWord, sign=None):
    """All letters c (of the given sign, if one is given) with w.c a string;
    no side bookkeeping.  A nontrivial word reads the successors of its last
    letter."""
    p, letters = w.presentation, w.letters
    k = _kernel(p)
    cands = k.successors[letters[-1]] if letters else k.ending_at[w.base]
    return [c for c in cands if sign in (None, c.sign)
            and (not k.long_lengths or can_append(p, letters, c))]


def maximal_append(p, letters, sign):
    """Greedily append letters of the given sign while the word stays a string;
    returns the letters added."""
    w = word(p, letters)
    added = []
    while True:
        cand = raw_extensions(w, sign)
        if not cand:
            return added
        if len(cand) > 1:
            raise InternalCheckError("non-unique maximal extension; not a string algebra?")
        w = word(p, w.letters + (cand[0],))
        added.append(cand[0])
        if len(added) > _EXTENSION_CAP:
            raise InternalCheckError("unbounded extension; algebra not finite dimensional?")


def canonical_letters(letters):
    """The smaller of a nonempty letter tuple and its inverse in the word
    order, decided at the first letter key where they differ; the inverse
    is built only when it wins."""
    for c, d in zip(letters, reversed(letters)):
        key, inverse_key = c.key, d.inverse.key
        if key != inverse_key:
            return letters if key < inverse_key else tuple(map(_INVERSE, reversed(letters)))
    return letters


def canonical_string(w: StringWord):
    """Representative of the rho-class {w, w^-1}: minimal in the word order.
    Trusts that w is a string."""
    letters = w.letters
    if not letters:
        return StringWord(w.presentation, (), w.base)
    canonical = canonical_letters(letters)
    return w if canonical is letters else StringWord(w.presentation, canonical)


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def is_band(w):
    """Nontrivial closed string, all of whose powers are strings, primitive."""
    letters = w.letters
    if not letters or not is_string(w) or letters[-1].source != letters[0].target:
        return False
    k = _kernel(w.presentation)
    m = len(letters)
    max_rel = max(map(len, k.windows), default=2)
    reps = max(2, -(-max_rel // m) + 1)
    if not _letters_valid(k, letters * reps):
        return False
    for d in range(1, m):
        if m % d == 0 and letters == letters[:d] * (m // d):
            return False
    return True


def canonical_band(b):
    """Representative of the rho'-class of the band letters of b (a Band or
    a StringWord): minimum over rotations and inverses.  Trusts that they
    form a band; `parse_band` checks band texts.  Rotations are compared as
    key slices, the first minimum winning (direct rotations first)."""
    m = len(b.letters)
    letters = b.letters * 2 + tuple(map(_INVERSE, reversed(b.letters))) * 2
    keys = tuple(map(letter_key, letters))
    start = min((*range(m), *range(2 * m, 3 * m)), key=lambda i: keys[i:i + m])
    return Band(b.presentation, letters[start:start + m])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_strings(p, max_len):
    """All rho-classes of strings of length <= max_len, canonically sorted.

    The search extends raw words on the right only; every string arises this
    way because its length-(l-1) prefix is again a string.  Deduplication by
    rho happens on the result set, not on the frontier (a word and its
    inverse extend at different ends).
    """
    require_size("max_len", max_len, 0)
    seen = set()
    frontier = [trivial_word(p, u) for u in p.vertices]
    for w in frontier:
        seen.add(canonical_string(w))
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for c in raw_extensions(w):
                ext = StringWord(p, w.letters + (c,))
                nxt.append(ext)
                seen.add(canonical_string(ext))
        frontier = nxt
    return sorted(seen, key=word_sort_key)


def spine_walk_word(p):
    """The string w_0 from vertex 1 to vertex n using every spine edge once."""
    require_ctilde(p, "the spine walk")
    named = {frozenset((a.source, a.target)): a for a in spine_arrows(p)}
    letters = []
    for k in range(p.n - 1, 0, -1):
        a = named[frozenset((k, k + 1))]
        letters.append(Letter(a, 1) if a.source == k else Letter(a, -1))
    return word(p, letters)


def enumerate_bands(p, max_dl):
    """All rho'-classes of bands of delta-length <= max_dl (C-tilde only),
    as a tuple, each by its canonical band, sorted by length and letters.

    A band of delta-length t is a primitive cyclic word of t atoms
    e1^a w0^-1 en^b w0 up to inversion; atom (a, b) has the symbol
    2 [a = -1] + [b = -1].  Every primitive atom word is a band: the only
    relations are e1^2 and en^2, each loop letter stands between spine
    letters, w0^-1 meets w0 only across a loop letter, and a period of the
    letters keeps en on en, so is a multiple of the 2n-letter atom.
    Inverting the word x_0..x_{t-1} gives the symbols
    3 - (2 [a_{j+1} = -1] + [b_j = -1]) for j = t-1..0, indices mod t.

    The words come out canonical.  e1 is the least letter, and every class
    has a rotation starting at a direct e1, in the band or in its inverse,
    so `canonical_band` starts at one; on such rotations letter order is
    symbol order.  So the canonical band of a class is the least rotation
    of its atom word or of its inverse, whichever is smaller (never a tie:
    no class is its own inverse, see `verify._band_classes`).  Duval's
    successor steps through the Lyndon symbol words (least of their
    rotations, primitive) of at most max_dl atoms in lexicographic order,
    and a word is kept when it is below every rotation of its inverse.
    """
    require_ctilde(p, "band enumeration")
    require_size("max_dl", max_dl, 1)
    w0 = spine_walk_word(p)
    e1, en = arrow_named(p)["e1"], arrow_named(p)[f"e{p.n}"]
    atoms = [(Letter(e1, a), *w0.inverse.letters, Letter(en, b), *w0.letters)
             for a, b in product((1, -1), repeat=2)]
    bands, x = [], [-1]
    while x:  # Duval: raise the last symbol; then repeat x to max_dl symbols, drop trailing 3s
        x[-1] += 1
        t = len(x)
        inverse = [3 - ((x[(j + 1) % t] & 2) | (x[j] & 1)) for j in range(t - 1, -1, -1)]
        if all(x < inverse[i:] + inverse[:i] for i in range(t)):
            bands.append(Band(p, sum(map(atoms.__getitem__, x), ())))
        x = (x * max_dl)[:max_dl]
        while x and x[-1] == 3:
            x.pop()
    return tuple(sorted(bands, key=len))


def delta_length(b):
    """Number of atoms in the band b of a C-tilde algebra, which is a word of
    atoms of 2n letters each (`enumerate_bands`): its length over 2n.  Trusts
    that b is a band."""
    p = b.presentation
    require_ctilde(p, "the delta-length")
    return len(b.letters) // (2 * p.n)


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def format_letters(letters):
    return ".".join(c.arrow.name + ("~" if c.sign < 0 else "") for c in letters)


def format_word(w):
    if not w.letters:
        return f"triv({w.base})"
    return format_letters(w.letters)


def parse_word(p, text):
    """Parse the dotted letter syntax or 'triv(u)'; validates the result."""
    text = text.strip()
    if text.startswith("triv(") and text.endswith(")"):
        try:
            vertex = int(text[5:-1])
        except ValueError:
            raise DomainError(f"bad trivial string: {text!r}") from None
        return trivial_word(p, vertex)
    named = arrow_named(p)
    letters = []
    for chunk in text.split("."):
        chunk = chunk.strip()
        sign = 1
        if chunk.endswith("~"):
            sign = -1
            chunk = chunk[:-1]
        if chunk not in named:
            raise DomainError(f"unknown arrow {chunk!r}")
        letters.append(Letter(named[chunk], sign))
    return string_word(p, letters)


def parse_band(p, text):
    """Parse the dotted letters of a band; the one place a band text is checked."""
    w = parse_word(p, text)
    if not is_band(w):
        raise DomainError(f"not a band: {text!r}")
    return canonical_band(w)
