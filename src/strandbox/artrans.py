"""The Butler-Ringel Auslander-Reiten calculus for string algebras.

Rays, hooks and cohooks, the AR-sequences (four hook/cohook cases, the
indecomposable-middle case, band self-extensions), tau and tau^{-1} as
one dual construction, their orbits, the AR-neighbours on either side of a
module (which indices, minimal strings, the rank-(n-1) tube and component
windows read).

Conventions.  ray(c) is the maximal string of letters of sign -c.sign that
may follow the letter c (the paper's a_- is ray(a), (a^-1)_+ is ray(a^-1));
if there is none it is trivial at s(c), tagged minus c's side at s(c).
Adding with sign s on the right turns w into w.c.ray(c) for the one letter
c of sign s that w takes there: +1 adds a hook, -1 a cohook.  Deleting with
sign s strips such a tail; the left side is the right side of w^-1.  Per
side, tau^{-1} adds a hook, else deletes a cohook; tau adds a cohook, else
deletes a hook.  Ray classes come first: if M(w) = M(ray(c)), a letter c of
sign -1 gives the indecomposable middle term M(_-a . a . a_-), a = c^-1,
and one of sign +1 gives tau M(w) = M(ray(c^-1)).  A trivial word takes the
letter whose side at its target is its tag.  Sides 2-colour the letters:
two distinct letters c, d ending at one vertex have opposite sides exactly
when d^-1.c is a string.

A translation works in one kernel per presentation (`kernel`) on raw words:
nonempty letter tuples, or trivial StringWords, whose tags matter.  The
kernel maps the special words (P_i, I_i, the ray classes), either way
round; a word longer than the longest of them is not looked up.  It holds
two ends, in which each side step is one lookup and one tuple splice.  The
right end maps (end letter e, sign s) to the tails c.ray(c) of the letters
c of sign s that may follow e (the successor table of `strings`), and to
those tails that end in e, which a deletion compares with the end of w.
The left end holds the tails inverted, keyed by the inverse of w's first
letter, so no word is inverted.  Each tail carries its rank counts, summed
from `modules.count_table` (the `modules` docstring states their layout), so
a walk reads free ranks and local freeness off counts it adds and takes away
at each step; a module, one StringWord in canonical direction, is built only
where one is returned.

The word-level side steps `add_right`, `delete_right`, `add_left`,
`delete_left` and `extendable` are the documented hook and cohook API: they
are the paper's hooks and cohooks on StringWords, which the tests check for
commutation, round trips and the rays that are not locally free.  The
translations step raw words instead; `is_minimal` reads `extendable`.  They
read the same ends as the kernel.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from operator import add, sub

from .algebra import (
    arrow_key,
    arrows_at,
    loop_arrows,
    require_ctilde,
    spine_arrows,
)
from .errors import DomainError, InternalCheckError, require_size
from .modules import (
    ZERO,
    BandModuleClass,
    StringModule,
    count_table,
    dim_sum,
    dim_vector,
    format_module,
    format_vector,
    free_rank_vector,
    glued_table,
    rad_decomposition,
    simple_module,
    soc_quotient_decomposition,
    string_module,
)
from .record import Record
from .strings import (
    Letter,
    StringWord,
    can_append,
    canonical_letters,
    canonical_string,
    enumerate_strings,
    format_letters,
    format_word,
    maximal_append,
    raw_extensions,
    successors,
    trivial_word,
    word,
    word_sort_key,
)

# ---------------------------------------------------------------------------
# rays
# ---------------------------------------------------------------------------

def _sides(p):
    """Each letter's side (+1/-1) at its target, a 2-colouring of the letters.

    Two distinct letters c, d ending at one vertex get opposite sides exactly
    when d^-1.c is a string; so do two arrows into a vertex, two arrows out
    of one, and an arrow b against an arrow d with b.d outside the ideal.
    Only trivial words consult sides (a nontrivial word takes at most one
    letter of each sign).  The seeds make the hook rays at the loop vertices
    continue along the spine, the convention the tube analysis expects: the
    second of two arrows into a vertex, the first of two arrows out of one,
    then every letter, each taking side +1 unless already coloured.
    """
    by_src, by_tgt = arrows_at(p)
    seeds = chain((Letter(ins[1], 1) for ins in by_tgt.values() if len(ins) == 2),
                  (Letter(outs[0], -1) for outs in by_src.values() if len(outs) == 2),
                  (Letter(a, s) for a in sorted(p.arrows, key=arrow_key) for s in (1, -1)))
    side, nexts = {}, successors(p)
    for seed in seeds:
        if seed in side:
            continue
        side[seed], stack = 1, [seed]
        while stack:
            c = stack.pop()
            for d in nexts[c.inverse]:  # d ends at t(c), c^-1.d a string
                if d not in side:
                    side[d] = -side[c]
                    stack.append(d)
                elif side[d] == side[c]:
                    raise InternalCheckError("inconsistent side assignment")
    return side


def ray(p, c):
    """The maximal string of letters of sign -c.sign that may follow the letter c."""
    return kernel(p).ray[c]


def extendable(w: StringWord, sign):
    """Whether a letter of the given sign extends w on the right; on the
    left it is ``extendable(w.inverse, sign)``."""
    return bool(raw_extensions(w, sign))


# ---------------------------------------------------------------------------
# hooks and cohooks
# ---------------------------------------------------------------------------

class _Tail(Record):
    """The tail c.ray(c) of a letter c, as one end of a word holds it:

    letter   c
    letters  c.ray(c) at the right end, its inverse at the left end
    tag      the tag of a trivial word at this end that takes c, and of one
             the tail leaves
    counts   what the tail adds to a word's counts, the same at both ends
    bare     the trivial word left when the tail is all of a word
    """

    __slots__ = ("letter", "letters", "tag", "counts", "bare")


class _End(Record):
    """The tails at one end of the letter tuple, keyed by (end letter, sign):
    w's last letter on the right, the inverse of its first on the left.

    left     whether this is the left end
    adds     (e, s) -> tails of the letters c of sign s with e.c a string
    deletes  (e, s) -> tails of the letters c of sign s whose c.ray(c) ends in e
    tails    letter c -> its tail
    checked  the presentation when it has relations longer than 2, which an
             added letter must still pass by can_append; else None
    """

    __slots__ = ("left", "adds", "deletes", "tails", "checked")


class _Special(Record):
    """The entry of a special word w: `glued` maps sign to i when M(w) is
    I_i (+1) or P_i (-1), as in `glued_table`; `letters` are the c with
    M(ray(c)) = M(w)."""

    __slots__ = ("glued", "letters")


def _raw(w):
    """The raw word of a StringWord: its letters, or itself when trivial."""
    return w.letters or w


class _Table(Record):
    """The tau kernel of one presentation: its rays, special words, ends and
    counts, and the translation on raw words, which are nonempty letter
    tuples or trivial StringWords (whose tags matter).

    presentation  the presentation
    ray      letter c -> ray(c)
    side     letter c -> c's side at its target
    special  raw word, either way round, of P_i, I_i or a ray class -> its `_Special`
    longest  the length of the longest special word
    table    `modules.count_table(p)`, whose `ranks` reads free ranks off
             counts; the `modules` docstring states the layout of the counts
    right    the right end
    left     the left end, the right one inverted
    """

    __slots__ = ("presentation", "ray", "side", "special", "longest", "table", "right", "left")

    def counts(self, raw):
        """The counts of a raw word, as `modules.count_table` sums them."""
        if raw.__class__ is not tuple:
            return self.table.visit[raw.base]
        return self.table.counts(raw, raw[0].target)

    def counted(self, w):
        """The raw word of the StringWord w and its counts."""
        raw = _raw(w)
        return raw, self.counts(raw)

    def key(self, raw):
        """The canonical raw word of the module of a raw word."""
        return canonical_letters(raw) if raw.__class__ is tuple else canonical_string(raw)

    def module(self, raw):
        """The string module of a raw word; one StringWord is built."""
        key = self.key(raw)
        return StringModule(StringWord(self.presentation, key) if key.__class__ is tuple else key)

    def entry(self, raw):
        """The raw word's `_Special`, or None; longer words are not looked up."""
        return self.special.get(raw) if len(raw) <= self.longest else None

    def grows(self, raw, sign):
        """The first and last letters of a raw word whose `shift` by the sign
        adds a tail at both ends, read off those two letters alone; None
        unless the word is longer than every special word, no relation is
        longer than 2 and both ends hold an add tail for its end letter.

        Such a step leaves a longer word ending in the two tails' letters.
        So once a pair recurs along an unbroken run of such words, every
        later step repeats the run, each period adding the same counts.
        """
        long = len(raw) > self.longest and self.right.checked is None
        if long and (raw[-1], sign) in self.right.adds and (raw[0].inverse, sign) in self.left.adds:
            return raw[0], raw[-1]
        return None

    def shift(self, raw, counts, sign):
        """tau^{-1} (sign +1) or tau (sign -1) on a raw word and its counts:
        the translate's raw word and counts, or None for the zero module.
        Zero on I_i, resp. P_i, the ray case, else one step per side, each
        adding or taking away its tail's counts.  Counts None stay None."""
        entry = self.entry(raw)
        if entry and sign in entry.glued:
            return None
        matches = _ray_letters(entry, -sign)
        if matches:
            raw = _only({self.key(_raw(self.ray[c.inverse])) for c in matches}, _NAMES[sign], raw)
            return raw, counts and self.counts(raw)
        for end in (self.right, self.left):
            op, tail, raw = _step(end, raw, sign)
            counts = _moved(counts, tail, op == sign)
        return raw, counts

    def tube(self):
        """The rows of the rank-(n-1) tube, bottom first, without end, each a
        list of (module, counts).  The ray step takes each module up to the
        one middle term of its AR-sequence that is not in the row below."""
        below, row = set(), [(m, *self.counted(m.word)) for m in tube_bottom(self.presentation)]
        while True:
            yield [(m, counts) for m, _, counts in row]
            up = []
            for _, raw, counts in row:
                seq = _sequence(self, raw, counts)
                ups = [t for t in (seq[1] if seq else ()) if self.key(t[0]) not in below]
                if len(ups) != 1:
                    raise InternalCheckError("tube ray step is not unique")
                up.append(ups[0])
            below = {self.key(raw) for _, raw, _ in row}
            row = [(self.module(raw), raw, counts) for raw, counts in up]


def _moved(counts, tail, added):
    """counts with the tail's added or taken away; None stays None."""
    return None if counts is None else tuple(map(add if added else sub, counts, tail.counts))


@lru_cache(maxsize=None)
def kernel(p):
    """The tau kernel of p, built once: see `_Table`."""
    side = _sides(p)
    ray, special = {}, {w: _Special(dict(g), []) for w, g in glued_table(p).items()}
    for c in side:
        added = maximal_append(p, [c], -c.sign)
        ray[c] = word(p, added) if added else trivial_word(p, c.source, -side[c.inverse])
        special.setdefault(string_module(ray[c]).word, _Special({}, [])).letters.append(c)
    special = {_raw(v): e for w, e in special.items() for v in (w, w.inverse)}
    table = count_table(p)
    right = {}
    for c, r in ray.items():
        letters = (c,) + r.letters
        right[c] = _Tail(c, letters, side[c], table.counts(letters),
                         StringWord(p, (), c.target, side[c]))
    left = {c: _Tail(c, tuple(d.inverse for d in reversed(t.letters)), -t.tag, t.counts,
                     StringWord(p, (), c.target, -t.tag))
            for c, t in right.items()}
    checked = p if any(len(r) != 2 for r in p.relations) else None
    nexts = successors(p)

    def end(is_left, tails):
        adds, deletes = {}, {}
        for e, cs in nexts.items():
            for c in cs:
                adds.setdefault((e, c.sign), []).append(tails[c])
        for c, t in right.items():
            deletes.setdefault((t.letters[-1], c.sign), []).append(tails[c])
        return _End(is_left, adds, deletes, tails, checked)

    return _Table(p, ray, side, special, max(map(len, special)), table, end(False, right),
                  end(True, left))


def _entry(w):
    """The StringWord w's `_Special`, None unless w is special."""
    return kernel(w.presentation).entry(_raw(w))


def _text(raw):
    return format_letters(raw) if raw.__class__ is tuple else format_word(raw)


def _add(end, raw, sign):
    """The tail c.ray(c) of the one letter c of the given sign that the raw
    word takes at this end (+1 adds a hook, -1 a cohook), and the raw word
    with it added; None when it takes none."""
    if raw.__class__ is tuple:
        tails = end.adds.get((raw[0].inverse if end.left else raw[-1], sign), ())
        if end.checked is not None:
            reading = tuple(c.inverse for c in reversed(raw)) if end.left else raw
            tails = [t for t in tails if can_append(end.checked, reading, t.letter)]
    else:
        tails = [t for t in map(end.tails.get, raw_extensions(raw, sign)) if t.tag == raw.tag]
    if len(tails) > 1:
        raise InternalCheckError("ambiguous side extension")
    if not tails:
        return None
    t = tails[0]
    if raw.__class__ is not tuple:
        return t, t.letters
    return t, (t.letters + raw if end.left else raw + t.letters)


def _delete(end, raw, sign):
    """The full tail c.ray(c), c of the given sign, that the raw word ends in
    at this end (+1 a hook, -1 a cohook), and the raw word without it; None
    when it does not end so."""
    if raw.__class__ is not tuple:
        return None
    for t in end.deletes.get((raw[0].inverse if end.left else raw[-1], sign), ()):
        k = len(t.letters)
        if (raw[:k] if end.left else raw[-k:]) == t.letters:
            return t, (raw[k:] if end.left else raw[:-k]) or t.bare
    return None


def _side(step, end, w, sign):
    """A side step on the StringWord w, as a StringWord or None."""
    done = step(end, _raw(w), sign)
    if done is None:
        return None
    return StringWord(w.presentation, done[1]) if done[1].__class__ is tuple else done[1]


def add_right(w, sign):
    """w.c.ray(c) for the right letter c of the given sign (+1 adds a hook,
    -1 a cohook); None when w takes no such letter."""
    return _side(_add, kernel(w.presentation).right, w, sign)


def delete_right(w, sign):
    """Strip a full tail c.ray(c) with c of the given sign (+1 deletes a
    hook, -1 a cohook); None when w does not end so."""
    return _side(_delete, kernel(w.presentation).right, w, sign)


def add_left(w, sign):
    """add_right on the inverse word, inverted back."""
    return _side(_add, kernel(w.presentation).left, w, sign)


def delete_left(w, sign):
    """delete_right on the inverse word, inverted back."""
    return _side(_delete, kernel(w.presentation).left, w, sign)


# ---------------------------------------------------------------------------
# AR-sequences and the translation
# ---------------------------------------------------------------------------

class ARSequence(Record):
    """The AR-sequence 0 -> left -> sum of middle -> right -> 0, with the
    case that gave it."""

    __slots__ = ("left", "middle", "right", "case_tag")

    def __repr__(self):
        mids = " + ".join(format_module(m) for m in self.middle)
        return f"0 -> {format_module(self.left)} -> {mids} -> {format_module(self.right)} -> 0"


_KIND = {1: "Hook", -1: "Cohook"}
_NAMES = {1: "tau_inv", -1: "tau"}


def _step(end, raw, sign):
    """One side of a translation, at the given end of a raw word: add with
    the given sign where possible, else delete with the other.  Returns the
    sign operated on, the tail and the new raw word.  (Never both apply: a
    tail c.ray(c) takes no letter of sign -c.sign.)"""
    done = _add(end, raw, sign)
    if done is not None:
        return sign, *done
    done = _delete(end, raw, -sign)
    if done is None:
        raise InternalCheckError(f"no side operation for {_text(raw)}")
    return -sign, *done


def _ray_letters(entry, sign):
    """The letters c of the given sign with M(ray(c)) = M(w), read off w's entry."""
    return [c for c in entry.letters if c.sign == sign] if entry else ()


def _only(results, what, raw):
    if len(results) != 1:
        raise InternalCheckError(f"ambiguous {what} at {_text(raw)}")
    return next(iter(results))


def _sequence(table, raw, counts):
    """The AR-sequence starting at the module of a raw word: (case, middle
    terms, end term), each term a (raw word, counts) pair as in
    `_Table.shift`, whose tau^{-1} is the end term; None at an injective.
    Only the middle terms are computed here."""
    end = table.shift(raw, counts, 1)
    if end is None:
        return None
    matches = _ray_letters(table.entry(raw), -1)
    if matches:
        # the middle term _-a . a . a_- (a = c^-1) is _-a with a hook added
        mid = _only({table.key(_add(table.left, _raw(table.ray[c]), 1)[1]) for c in matches},
                    "indecomposable-middle sequence", raw)
        return "IndecMiddle", ((mid, counts and table.counts(mid)),), end
    terms = [_step(side, raw, 1) for side in (table.left, table.right)]
    case = "".join(_KIND[op] for op, _, _ in terms)
    return case, tuple((w, _moved(counts, tail, op > 0)) for op, tail, w in terms), end


def ar_sequence_starting_at(m):
    """The AR-sequence 0 -> m -> E -> tau^{-1} m -> 0, or None for injectives."""
    if m is ZERO:
        raise DomainError("no AR-sequence at the zero module")
    if isinstance(m, BandModuleClass):
        middle = tuple(BandModuleClass(m.band, m.param, k) for k in (m.level + 1, m.level - 1) if k)
        return ARSequence(m, middle, m, "BandSelf")
    table = kernel(m.word.presentation)
    seq = _sequence(table, _raw(m.word), None)
    if seq is None:
        return None
    case, middle, (end, _) = seq
    return ARSequence(m, tuple(table.module(w) for w, _ in middle), table.module(end), case)


def _translate(m, sign):
    """tau^{-1} (sign +1) or tau (sign -1) of a module: the kernel's
    `_Table.shift` on a string module, the identity on band classes."""
    if m is ZERO:
        raise DomainError(f"{_NAMES[sign]} of the zero module")
    if isinstance(m, BandModuleClass):
        return m
    table = kernel(m.word.presentation)
    done = table.shift(_raw(m.word), None, sign)
    return ZERO if done is None else table.module(done[0])


def tau_inv(m):
    """tau^{-1}: zero on injectives, identity on band classes; the dual of tau."""
    return _translate(m, 1)


def tau(m):
    """tau: zero on projectives, identity on band classes."""
    return _translate(m, -1)


def orbit(m, step):
    """m, step(m), step(step(m)), ... up to the first zero module, which is
    not yielded.  A band class is fixed by tau and tau^-1, so its orbit never
    ends: cut it with `islice`."""
    while m is not ZERO:
        yield m
        m = step(m)


def neighbours(m, sign):
    """The modules with an irreducible map from m (sign +1) or into m (sign
    -1), each as often as it occurs, with tau^{-1} m, resp. tau m.

    They are the middle terms of the one AR-sequence starting at m, resp. at
    tau m.  I_i starts none, and the summands of I_i / soc I_i stand in, with
    ZERO for its translate; dually for P_i, the summands of rad P_i.  A band
    module's one sequence both starts and ends at it.
    """
    start = m if sign > 0 else tau(m)
    seq = None if start is ZERO else ar_sequence_starting_at(start)
    if seq is None:
        parts = soc_quotient_decomposition if sign > 0 else rad_decomposition
        return tuple(parts(m.word.presentation, _entry(m.word).glued[sign])), ZERO
    return seq.middle, seq.right if sign > 0 else start


_INDEX_SET = {(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)}


def index(w):
    """(left, right): the numbers of irreducible maps into and out of M(w)."""
    m = string_module(w)
    idx = tuple(len(neighbours(m, s)[0]) for s in (-1, 1))
    if idx not in _INDEX_SET:
        raise InternalCheckError(f"index {idx} outside the admissible set")
    return idx


def is_minimal(w):
    """Minimality of M(w): every incoming irreducible map surjective, every
    outgoing one injective; evaluated by the case characterization."""
    w = string_module(w).word
    entry = _entry(w)
    if entry and entry.glued:
        return w.is_trivial
    hook_ray, cohook_ray = (bool(_ray_letters(entry, s)) for s in (1, -1))
    if hook_ray and cohook_ray:
        return True
    signs = (1,) if hook_ray else (-1,) if cohook_ray else (1, -1)
    return all(extendable(x, s) for x in (w, w.inverse) for s in signs)


def minimal_strings(p, max_len=12):
    """The minimal string modules, keyed by index type.

    Types other than (2,2) are complete; type (2,2) is enumerated up to the
    length bound (the family is infinite).
    """
    require_ctilde(p, "the minimal-string classification")
    require_size("max_len", max_len, 0)
    by_type = {t: [] for t in ((0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2))}
    by_src, by_tgt = arrows_at(p)
    for u in p.vertices:
        if not by_src[u]:
            by_type[(0, 2)].append(simple_module(p, u))
        if not by_tgt[u]:
            by_type[(2, 0)].append(simple_module(p, u))
    for a in spine_arrows(p):
        by_type[(1, 1)].append(string_module(ray(p, Letter(a, 1))))
    for a in loop_arrows(p):
        by_type[(1, 2)].append(string_module(ray(p, Letter(a, 1))))
        by_type[(2, 1)].append(string_module(ray(p, Letter(a, -1))))
    ends = {1, p.n}
    for w in enumerate_strings(p, max_len):
        if w.is_trivial:
            continue
        if {w.source, w.target} <= ends and not w.letters[0].arrow.is_loop \
                and not w.letters[-1].arrow.is_loop:
            by_type[(2, 2)].append(string_module(w))
    for t, mods in by_type.items():
        seen = []
        for m in sorted(set(mods), key=lambda m: word_sort_key(m.word)):
            if not is_minimal(m.word):
                raise InternalCheckError(f"classified module {m!r} fails minimality (type {t})")
            seen.append(m)
        by_type[t] = seen
    if len(by_type[(1, 1)]) != p.n - 1:
        raise InternalCheckError("type (1,1) family does not have n-1 members")
    return by_type


# ---------------------------------------------------------------------------
# the rank-(n-1) tube
# ---------------------------------------------------------------------------

def tube_bottom(p):
    """The bottom tau-orbit, starting from ray(a) for the spine arrow a at vertex 1
    and following tau^{-1}; InternalCheckError unless n-1 steps of tau^{-1}
    bring it back to its start."""
    require_ctilde(p, "the tube construction")
    at_one = [a for a in spine_arrows(p) if 1 in (a.source, a.target)]
    start = string_module(ray(p, Letter(at_one[0], 1)))
    walk = list(islice(orbit(start, tau_inv), p.n))
    if len(walk) != p.n or walk[-1] != start:
        raise InternalCheckError("bottom tau-orbit does not close with period n-1")
    return walk[:-1]


class ComponentGraph:
    """A window of an AR component: its kind and rank, arrows and
    translation arrows as module pairs; `rows` holds a tube window's modules
    level by level, `dist` a component window's distance from the seed per
    module.  `nodes` maps each module's text to it, built on read."""

    __slots__ = ("kind", "rank", "edges", "tau_edges", "rows", "dist")

    def __init__(self, kind, rank, edges, tau_edges, rows=None, dist=None):
        self.kind = kind
        self.rank = rank
        self.edges = edges
        self.tau_edges = tau_edges
        self.rows = rows
        self.dist = dist

    @property
    def nodes(self):
        return {format_module(m): m for m in self.dist or chain.from_iterable(self.rows)}


def tube_rank(p, levels=None):
    """A window of the rank-(n-1) tube: `levels` rows built upward by rays."""
    levels = p.n if levels is None else levels
    require_size("levels", levels, 1)
    rows = [[m for m, _ in row] for row in islice(kernel(p).tube(), levels)]
    g = ComponentGraph("TubeRank", p.n - 1, set(), set(), rows=rows)
    for x in chain.from_iterable(rows[:-1]):
        _add_mesh(g, x, 1)
    return g


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def _add_mesh(g, m, sign):
    """Add to g the arrows of the mesh on one side of m: from m to its
    neighbours and from them to tau^{-1} m, with the translation arrow
    (sign +1), or the same read backwards from tau m (sign -1).  Returns the
    mesh's modules other than m."""
    mids, t = neighbours(m, sign)
    g.edges.update((m, x)[::sign] for x in mids)
    if t is not ZERO:
        g.edges.update((x, t)[::sign] for x in mids)
        g.tau_edges.add((m, t)[::sign])
        mids += (t,)
    return mids


def build_component(seed, radius):
    """Breadth-first window of the AR component of `seed`: the modules at
    distance <= radius from it (radius 0 is the seed alone)."""
    require_size("radius", radius, 0)
    if seed is ZERO:
        raise DomainError("cannot seed a component at zero")
    kind, rank = classify_component(seed)
    g = ComponentGraph(kind, rank, set(), set(), dist={seed: 0})
    frontier, d = [seed], 0
    while frontier and d < radius:
        d += 1
        mesh = dict.fromkeys(x for m in frontier for s in (1, -1) for x in _add_mesh(g, m, s))
        frontier = [x for x in mesh if x not in g.dist]
        g.dist.update((x, d) for x in frontier)
    return g


def _descend_to_minimal(m):
    """Follow strictly dimension-decreasing irreducible maps to a minimal module."""
    while True:
        smaller = [nb for s in (1, -1) for nb in neighbours(m, s)[0]
                   if isinstance(nb, StringModule) and dim_sum(nb) < dim_sum(m)]
        if not smaller:
            return m
        m = min(smaller, key=lambda x: (dim_sum(x), word_sort_key(x.word)))


def classify_component(seed):
    """Component kind of the seed in the C-tilde classification: descends to
    a minimal string module and reads off its index type (exact, no search
    radius needed)."""
    if seed is ZERO:
        raise DomainError("cannot classify the zero module")
    band = isinstance(seed, BandModuleClass)
    require_ctilde((seed.band if band else seed.word).presentation, "the component classification")
    if band:
        return "HomogeneousTube", 1
    base = _descend_to_minimal(seed)
    if not is_minimal(base.word):
        raise InternalCheckError("descent did not reach a minimal module")
    idx = index(base.word)
    n = base.word.presentation.n
    if idx == (1, 1):
        return "TubeRank", n - 1
    if idx == (2, 2):
        return "ZAInfInf", None
    return "PI", None


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _text_view(g):
    """g's modules as (text, dimension vector, free rank vector or None) in
    the order of the texts, and its arrows and translation arrows as sorted
    text pairs."""
    texts = {m: k for k, m in sorted(g.nodes.items())}
    nodes = [(k, dim_vector(m), free_rank_vector(m)) for m, k in texts.items()]
    return nodes, *(sorted([texts[a], texts[b]] for a, b in e) for e in (g.edges, g.tau_edges))


def component_to_dot(g: ComponentGraph):
    nodes, edges, tau_edges = _text_view(g)
    lines = ["digraph component {", '  node [shape=box, fontsize=10];']
    for k, d, r in nodes:
        rank = "-" if r is None else format_vector(r)
        lines.append(f'  "{k}" [label="{k} | {format_vector(d)} | {rank}"];')
    lines += (f'  "{a}" -> "{b}";' for a, b in edges)
    lines += (f'  "{a}" -> "{b}" [style=dashed, constraint=false];' for a, b in tau_edges)
    lines.append("}")
    return "\n".join(lines)


def component_to_json(g: ComponentGraph):
    import json

    nodes, edges, tau_edges = _text_view(g)
    doc = {
        "kind": g.kind,
        "rank": g.rank,
        "nodes": [{"id": k, "dim": list(d), "rank": None if r is None else list(r)}
                  for k, d, r in nodes],
        "edges": edges,
        "tau_edges": tau_edges,
    }
    return json.dumps(doc, indent=2)
