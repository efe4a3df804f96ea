"""The Butler-Ringel Auslander-Reiten calculus for string algebras.

Maximal side extensions, hooks and cohooks, the four AR-sequence cases with
the indecomposable-middle exception, the translation tau and its inverse,
indices, minimal strings, the rank-(n-1) tube and component windows.

Conventions.  A hook is added on the right by w -> w.a.(a_-) for the unique
direct extension arrow a, dually on the left; a cohook on the right by
w -> w.b^-1.((b^-1)_+).  tau^{-1} adds hooks where a side is extendable and
deletes cohooks where it is not; tau deletes hooks where possible and adds
cohooks otherwise, with the indecomposable-middle sequences
0 -> M(_-a) -> M(_-a . a . a_-) -> M(a_-) -> 0 handled first.  Only trivial
strings need a side disambiguation; they take it from the arrow side
functions on the presentation (the +1 slot is the "right" side of the
canonical tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice

from .algebra import arrows_by_source, arrows_by_target, in_side, is_ctilde, out_side, spine_arrows
from .errors import DomainError, InternalCheckError, UnsupportedPresentation
from .modules import (
    ZERO,
    BandModuleClass,
    StringModule,
    band_module,
    dim_sum,
    dim_vector,
    format_module,
    injective_table,
    is_injective,
    is_locally_free,
    is_projective,
    projective_table,
    rad_decomposition,
    rank_vector,
    simple_module,
    soc_quotient_decomposition,
    string_module,
)
from .strings import (
    Letter,
    StringWord,
    can_append,
    canonical_string,
    enumerate_strings,
    format_word,
    maximal_append,
    word,
    word_sort_key,
)

# ---------------------------------------------------------------------------
# maximal side extensions
# ---------------------------------------------------------------------------

def alpha_minus(p, a):
    """Maximal inverse string z with a.z a string; trivial at s(a) if none.

    A trivial result carries the side tag -sigma(a): its left slot hosts a.
    """
    added = maximal_append(p, [Letter(a, 1)], -1)
    if added:
        return word(p, added)
    return StringWord(p, (), a.source, -out_side(p)[a])


def inv_plus(p, a):
    """(a^-1)_+ : maximal direct string z with a^-1.z a string.

    A trivial result carries the side tag -epsilon(a): its left slot hosts
    the inverse letter of a.
    """
    added = maximal_append(p, [Letter(a, -1)], 1)
    if added:
        return word(p, added)
    return StringWord(p, (), a.target, -in_side(p)[a])


def minus_alpha(p, a):
    """_-(a): maximal inverse string z with z.a a string."""
    return inv_plus(p, a).inverse


def plus_inv(p, a):
    """_+(a^-1): maximal direct string z with z.a^-1 a string."""
    return alpha_minus(p, a).inverse


_SIDE_EXTENSIONS = {
    "alpha_minus": alpha_minus,
    "minus_alpha": minus_alpha,
    "plus_inv": plus_inv,
    "inv_plus": inv_plus,
}


def side_extension(p, a, which):
    try:
        fn = _SIDE_EXTENSIONS[which]
    except KeyError:
        raise DomainError(f"unknown side extension {which!r}") from None
    return fn(p, a)


# ---------------------------------------------------------------------------
# extendability (raw, no side bookkeeping)
# ---------------------------------------------------------------------------

def extendable(w: StringWord, mode):
    """Whether some arrow extends w in the given mode (RDE/RIE/LDE/LIE)."""
    if mode in ("LDE", "LIE"):
        # (a.w)^-1 = w^-1.a^-1 and (b^-1.w)^-1 = w^-1.b
        return extendable(w.inverse, {"LDE": "RIE", "LIE": "RDE"}[mode])
    p = w.presentation
    at = w.source
    if mode == "RDE":
        pool, sign = arrows_by_target(p)[at], 1
    elif mode == "RIE":
        pool, sign = arrows_by_source(p)[at], -1
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return any(can_append(p, w.letters, Letter(a, sign)) for a in pool)


# ---------------------------------------------------------------------------
# hooks and cohooks
# ---------------------------------------------------------------------------

def _right_arrow(w: StringWord, sign):
    """The unique side-respecting right extension arrow of the given sign."""
    p = w.presentation
    if w.letters:
        at = w.source
        pool = arrows_by_target(p)[at] if sign > 0 else arrows_by_source(p)[at]
        cand = [a for a in pool if can_append(p, w.letters, Letter(a, sign))]
    else:
        side = in_side(p) if sign > 0 else out_side(p)
        pool = arrows_by_target(p)[w.base] if sign > 0 else arrows_by_source(p)[w.base]
        cand = [a for a in pool if side[a] == w.tag]
    if len(cand) > 1:
        raise InternalCheckError("ambiguous side extension")
    return cand[0] if cand else None


def add_hook_right(w):
    """w_h = w.a.(a_-); None when the right side is not directly extendable."""
    a = _right_arrow(w, 1)
    if a is None:
        return None
    p = w.presentation
    return word(p, w.letters + (Letter(a, 1),) + alpha_minus(p, a).letters)


def add_cohook_right(w):
    """w_c = w.b^-1.((b^-1)_+); None when not inversely extendable."""
    b = _right_arrow(w, -1)
    if b is None:
        return None
    p = w.presentation
    return word(p, w.letters + (Letter(b, -1),) + inv_plus(p, b).letters)


def delete_hook_right(w):
    """Strip a full right hook u.a.(a_-) -> u; None if w has no such shape."""
    p = w.presentation
    if not w.letters:
        return None
    k = max((i for i, c in enumerate(w.letters) if c.sign > 0), default=None)
    if k is None:
        return None
    a = w.letters[k].arrow
    if w.letters[k + 1:] != alpha_minus(p, a).letters:
        return None
    rest = w.letters[:k]
    if rest:
        return word(p, rest)
    return StringWord(p, (), a.target, in_side(p)[a])


def delete_cohook_right(w):
    """Strip a full right cohook u.b^-1.((b^-1)_+) -> u; None if absent."""
    p = w.presentation
    if not w.letters:
        return None
    k = max((i for i, c in enumerate(w.letters) if c.sign < 0), default=None)
    if k is None:
        return None
    b = w.letters[k].arrow
    if w.letters[k + 1:] != inv_plus(p, b).letters:
        return None
    rest = w.letters[:k]
    if rest:
        return word(p, rest)
    return StringWord(p, (), b.source, out_side(p)[b])


def _via_inverse(fn, w):
    r = fn(w.inverse)
    return None if r is None else r.inverse


def add_hook_left(w):
    return _via_inverse(add_hook_right, w)


def add_cohook_left(w):
    return _via_inverse(add_cohook_right, w)


def delete_hook_left(w):
    return _via_inverse(delete_hook_right, w)


def delete_cohook_left(w):
    return _via_inverse(delete_cohook_right, w)


_HOOK_OPS = {
    ("right", "add_hook"): add_hook_right,
    ("right", "add_cohook"): add_cohook_right,
    ("right", "delete_hook"): delete_hook_right,
    ("right", "delete_cohook"): delete_cohook_right,
    ("left", "add_hook"): add_hook_left,
    ("left", "add_cohook"): add_cohook_left,
    ("left", "delete_hook"): delete_hook_left,
    ("left", "delete_cohook"): delete_cohook_left,
}


def hook_cohook(w, side, kind):
    """Apply one hook/cohook operation; None when it does not exist."""
    try:
        fn = _HOOK_OPS[(side, kind)]
    except KeyError:
        raise DomainError(f"unknown hook operation {side!r}/{kind!r}") from None
    return fn(w)


# ---------------------------------------------------------------------------
# AR-sequences and the translation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ARSequence:
    left: object
    middle: tuple
    right: object
    case_tag: str

    def __repr__(self):
        mids = " + ".join(format_module(m) for m in self.middle)
        return f"0 -> {format_module(self.left)} -> {mids} -> {format_module(self.right)} -> 0"


@lru_cache(maxsize=None)
def _alpha_minus_classes(p):
    """canonical class of a_- per arrow, and of _-(a)."""
    am = {a: canonical_string(alpha_minus(p, a)) for a in p.arrows}
    ma = {a: canonical_string(minus_alpha(p, a)) for a in p.arrows}
    return am, ma


def _arrows_matching_alpha_minus(w):
    canon = canonical_string(w)
    am, _ = _alpha_minus_classes(w.presentation)
    return [a for a, cls in am.items() if cls == canon]


def _arrows_matching_minus_alpha(w):
    canon = canonical_string(w)
    _, ma = _alpha_minus_classes(w.presentation)
    return [a for a, cls in ma.items() if cls == canon]


def _indec_middle_word(p, a):
    """_-(a) . a . a_- for the indecomposable-middle sequence."""
    letters = minus_alpha(p, a).letters + (Letter(a, 1),) + alpha_minus(p, a).letters
    return word(p, letters)


def _tau_inv_parts(w):
    """(case_tag, middle words, right word) of the sequence starting at M(w).

    Assumes w noninjective and not of the form _-(a); per side, a hook is
    added when possible and a cohook deleted otherwise (totality asserted).
    """
    right_only = add_hook_right(w)
    rtag = "Hook"
    if right_only is None:
        right_only = delete_cohook_right(w)
        rtag = "Cohook"
    if right_only is None:
        raise InternalCheckError(f"no right-side operation for {format_word(w)}")
    left_only = add_hook_left(w)
    ltag = "Hook"
    if left_only is None:
        left_only = delete_cohook_left(w)
        ltag = "Cohook"
    if left_only is None:
        raise InternalCheckError(f"no left-side operation for {format_word(w)}")
    both = add_hook_left(right_only) if ltag == "Hook" else delete_cohook_left(right_only)
    if both is None:
        raise InternalCheckError(f"side operations do not combine for {format_word(w)}")
    return ltag + rtag, (left_only, right_only), both


def ar_sequence_starting_at(m):
    """The AR-sequence 0 -> m -> E -> tau^{-1} m -> 0, or None for injectives."""
    if m is ZERO:
        raise DomainError("no AR-sequence at the zero module")
    if isinstance(m, BandModuleClass):
        middle = [band_module(m.band, m.param, m.level + 1)]
        if m.level > 1:
            middle.append(band_module(m.band, m.param, m.level - 1))
        return ARSequence(m, tuple(middle), m, "BandSelf")
    w = m.word
    p = w.presentation
    if is_injective(m):
        return None
    matches = _arrows_matching_minus_alpha(w)
    if matches:
        results = {
            (canonical_string(_indec_middle_word(p, a)), _alpha_minus_classes(p)[0][a])
            for a in matches
        }
        if len(results) != 1:
            raise InternalCheckError(f"ambiguous indecomposable-middle sequence at {format_word(w)}")
        mid, right = next(iter(results))
        return ARSequence(m, (string_module(mid),), string_module(right), "IndecMiddle")
    tag, middles, both = _tau_inv_parts(w)
    return ARSequence(m, tuple(string_module(x) for x in middles), string_module(both), tag)


def tau_inv(m):
    """tau^{-1}: zero on injectives, identity on band classes."""
    if m is ZERO:
        raise DomainError("tau_inv of the zero module")
    if isinstance(m, BandModuleClass):
        return m
    seq = ar_sequence_starting_at(m)
    return ZERO if seq is None else seq.right


def tau(m):
    """tau: zero on projectives, identity on band classes; dual case analysis."""
    if m is ZERO:
        raise DomainError("tau of the zero module")
    if isinstance(m, BandModuleClass):
        return m
    if is_projective(m):
        return ZERO
    w = m.word
    p = w.presentation
    matches = _arrows_matching_alpha_minus(w)
    if matches:
        results = {_alpha_minus_classes(p)[1][a] for a in matches}
        if len(results) != 1:
            raise InternalCheckError(f"ambiguous tau at {format_word(w)}")
        return string_module(next(iter(results)))
    v = delete_hook_right(w)
    if v is None:
        v = add_cohook_right(w)
    if v is None:
        raise InternalCheckError(f"no right-side tau operation for {format_word(w)}")
    v2 = delete_hook_left(v)
    if v2 is None:
        v2 = add_cohook_left(v)
    if v2 is None:
        raise InternalCheckError(f"no left-side tau operation for {format_word(w)}")
    return string_module(v2)


_INDEX_SET = {(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)}


def index(w):
    """(left, right) irreducible-map counts of M(w) in the AR-quiver."""
    m = string_module(w) if isinstance(w, StringWord) else w
    arrows, _ = mesh_arrows(m)
    idx = (sum(b == m for _, b in arrows), sum(a == m for a, _ in arrows))
    if idx not in _INDEX_SET:
        raise InternalCheckError(f"index {idx} outside the admissible set")
    return idx


def is_minimal(w):
    """Minimality of M(w): every incoming irreducible map surjective, every
    outgoing one injective; evaluated by the case characterization."""
    m = string_module(w) if isinstance(w, StringWord) else w
    w = m.word
    if is_projective(m) or is_injective(m):
        return w.is_trivial
    has_am = bool(_arrows_matching_alpha_minus(w))
    has_ma = bool(_arrows_matching_minus_alpha(w))
    if has_am and has_ma:
        return True
    if has_am:
        return extendable(w, "RDE") and extendable(w, "LIE")
    if has_ma:
        return extendable(w, "RIE") and extendable(w, "LDE")
    return all(extendable(w, mode) for mode in ("RDE", "RIE", "LDE", "LIE"))


def minimal_strings(p, max_len=12):
    """The minimal string modules, keyed by index type.

    Types other than (2,2) are complete; type (2,2) is enumerated up to the
    length bound (the family is infinite).
    """
    if not is_ctilde(p):
        raise UnsupportedPresentation("the minimal-string classification assumes the C-tilde family")
    by_type = {t: [] for t in ((0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2))}
    by_src = arrows_by_source(p)
    by_tgt = arrows_by_target(p)
    for u in p.vertices:
        if not by_src[u]:
            by_type[(0, 2)].append(simple_module(p, u))
        if not by_tgt[u]:
            by_type[(2, 0)].append(simple_module(p, u))
    for a in spine_arrows(p):
        by_type[(1, 1)].append(string_module(alpha_minus(p, a)))
    loops = [a for a in p.arrows if a.is_loop]
    for a in loops:
        by_type[(1, 2)].append(string_module(alpha_minus(p, a)))
        by_type[(2, 1)].append(string_module(minus_alpha(p, a)))
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
            if not is_minimal(m):
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
    """The bottom tau-orbit, starting from (a_-) for the spine arrow at vertex 1
    and following tau^{-1}."""
    if not is_ctilde(p):
        raise UnsupportedPresentation("tube construction assumes the C-tilde family")
    at_one = [a for a in spine_arrows(p) if 1 in (a.source, a.target)]
    start = string_module(alpha_minus(p, at_one[0]))
    orbit = [start]
    cur = start
    for _ in range(p.n - 2):
        cur = tau_inv(cur)
        orbit.append(cur)
    if tau_inv(cur) != start:
        raise InternalCheckError("bottom tau-orbit does not close with period n-1")
    return orbit


@dataclass
class ComponentGraph:
    kind: str
    rank: int | None
    nodes: dict
    edges: set
    tau_edges: set
    rows: list | None = None  # tube windows: the modules level by level
    dist: dict | None = None  # component windows: node key -> distance from the seed


def tube_rows(p):
    """The rows of the rank-(n-1) tube, bottom first, without end.

    The ray step takes each module up to the one middle term of its
    AR-sequence that is not in the row below.
    """
    below, row = set(), tube_bottom(p)
    while True:
        yield row
        up = []
        for x in row:
            ups = [mid for mid in ar_sequence_starting_at(x).middle if mid not in below]
            if len(ups) != 1:
                raise InternalCheckError("tube ray step is not unique")
            up.append(ups[0])
        below, row = set(row), up


def tube_rank(p, levels=None):
    """A window of the rank-(n-1) tube: `levels` rows built upward by rays."""
    if levels is None:
        levels = p.n
    if levels < 1:
        raise DomainError("a tube window needs at least one level")
    rows = list(islice(tube_rows(p), levels))
    g = ComponentGraph("TubeRank", p.n - 1, {format_module(m): m for m in rows[0]}, set(), set(),
                       rows=rows)
    for x in chain.from_iterable(rows[:-1]):
        _add_arrows(g, *_mesh(ar_sequence_starting_at(x)))
    return g


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def _mesh(seq):
    """The arrows of an AR-sequence and its translation arrow, as module pairs."""
    arrows = [(seq.left, mid) for mid in seq.middle] + [(mid, seq.right) for mid in seq.middle]
    return arrows, [(seq.left, seq.right)]


def mesh_arrows(m):
    """The AR quiver around m as module pairs: (arrows, translation arrows).

    These are the meshes of the AR-sequences starting and ending at m.  An
    injective m starts none; the socle-quotient summands of m stand in for
    its middle terms.  Dually a projective m ends none, and its radical
    summands stand in.  A band module's one sequence both starts and ends
    at m.
    """
    arrows, translations = [], []
    seqs = []
    seq = ar_sequence_starting_at(m)
    if seq is None:
        p = m.word.presentation
        arrows += [(m, s) for s in soc_quotient_decomposition(p, injective_table(p)[m.word])]
    else:
        seqs.append(seq)
    if is_projective(m):
        p = m.word.presentation
        arrows += [(r, m) for r in rad_decomposition(p, projective_table(p)[m.word])]
    else:
        seqs.append(ar_sequence_starting_at(tau(m)))
    for seq in seqs:
        a, t = _mesh(seq)
        arrows += a
        translations += t
    return arrows, translations


def _add_arrows(g, arrows, translations):
    """Add module-pair arrows to g by node key; returns the modules new to g."""
    key = format_module
    g.edges.update((key(a), key(b)) for a, b in arrows)
    g.tau_edges.update((key(a), key(b)) for a, b in translations)
    new = []
    for m in chain.from_iterable(arrows + translations):
        if key(m) not in g.nodes:
            g.nodes[key(m)] = m
            new.append(m)
    return new


def build_component(seed, radius):
    """Breadth-first window of the AR component of `seed` up to the radius."""
    if seed is ZERO:
        raise DomainError("cannot seed a component at zero")
    if radius < 0:
        raise DomainError("radius must be >= 0")
    kind, rank = classify_component(seed)
    g = ComponentGraph(kind, rank, {format_module(seed): seed}, set(), set(),
                       dist={format_module(seed): 0})
    frontier = [seed]
    d = 0
    while frontier:
        d += 1
        new = [nb for m in frontier for nb in _add_arrows(g, *mesh_arrows(m))]
        g.dist.update((format_module(nb), d) for nb in new)
        frontier = new if d < radius else []
    return g


def irreducible_neighbors(m):
    """AR-quiver neighbors of m along irreducible maps (tau-translates excluded)."""
    arrows, _ = mesh_arrows(m)
    return [b if a == m else a for a, b in arrows if m in (a, b)]


def _descend_to_minimal(m):
    """Follow strictly dimension-decreasing irreducible maps to a minimal module."""
    while True:
        smaller = [nb for nb in irreducible_neighbors(m)
                   if isinstance(nb, StringModule) and dim_sum(nb) < dim_sum(m)]
        if not smaller:
            return m
        m = min(smaller, key=lambda x: (dim_sum(x), word_sort_key(x.word)))


def classify_component(seed):
    """Component kind of the seed: descends to a minimal string module and
    reads off its index type (exact, no search radius needed)."""
    if seed is ZERO:
        raise DomainError("cannot classify the zero module")
    if isinstance(seed, BandModuleClass):
        return "HomogeneousTube", 1
    base = _descend_to_minimal(seed)
    if not is_minimal(base):
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

def _node_label(m):
    dims = ",".join(map(str, dim_vector(m)))
    if is_locally_free(m):
        rank = "(" + ",".join(map(str, rank_vector(m))) + ")"
    else:
        rank = "-"
    return f"{format_module(m)} | ({dims}) | {rank}"


def component_to_dot(g: ComponentGraph):
    lines = ["digraph component {", '  node [shape=box, fontsize=10];']
    for k in sorted(g.nodes):
        lines.append(f'  "{k}" [label="{_node_label(g.nodes[k])}"];')
    for a, b in sorted(g.edges):
        lines.append(f'  "{a}" -> "{b}";')
    for a, b in sorted(g.tau_edges):
        lines.append(f'  "{a}" -> "{b}" [style=dashed, constraint=false];')
    lines.append("}")
    return "\n".join(lines)


def component_to_json(g: ComponentGraph):
    import json

    doc = {
        "kind": g.kind,
        "rank": g.rank,
        "nodes": [
            {
                "id": k,
                "dim": list(dim_vector(g.nodes[k])),
                "rank": list(rank_vector(g.nodes[k])) if is_locally_free(g.nodes[k]) else None,
            }
            for k in sorted(g.nodes)
        ],
        "edges": sorted(list(e) for e in g.edges),
        "tau_edges": sorted(list(e) for e in g.tau_edges),
    }
    return json.dumps(doc, indent=2)
