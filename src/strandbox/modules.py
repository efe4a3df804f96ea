"""String and band modules: dimension/rank vectors, representations, Hom/Ext.

A module reference is a canonical string word, a band-module class (band +
simple parameter polynomial + tube level), or the zero module.  Explicit
representations are built over a field given by its characteristic (0 for
the rationals, the default, or a prime p), with every arrow a sparse matrix
of plain int entries.

Hom between any two string or band modules is counted by graph maps
(Crawley-Boevey, J. Algebra 126, 1989; Krause, J. Algebra 137, 1991), and
no representation is built.  A band module reads as the periodic word of its
band, with substrings up to a cap (the string's length against a string,
the sum of the two band lengths between bands), and two band modules of one
band add the k[T] term deg gcd(f^l, g^k) of their parameter powers; the
formula is at `hom_dim_modules`.  The sparse intertwiner system of `hom_dim`
between the two representations stays the oracle of the count.

Ext^1 is computed for locally free modules only, through the homological
identity  hom(X,Y) - ext1(X,Y) = <rank X, rank Y>  with the
orientation-dependent bilinear form from `roots`.

Free ranks and local freeness are read off one count table per
presentation (`count_table`); the tau kernel of `artrans` holds it, no copy.
M is locally free when each e_iM is free over H_i (Geiss-Leclerc-Schroer):
at a loop vertex the loop acts as a square-zero map of rank dim_i/2, so
every visit of the walk is paired by a loop letter.  A word's counts are a
vector of n + (number of loop vertices) entries: per vertex its visits
there, or at a loop vertex its loop letters, then per loop vertex its
visits less twice its loop letters.  A letter's counts (its weight) are a
visit at its source, and itself if it is a loop; a word's are its letters'
weights, and a string's also a visit at its first target, since the walk
visits each letter's source and a string also its first target.  The word
is locally free when the last entries are all zero, and then the first n
are its free ranks.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import count, product

from . import roots
from .algebra import loop_arrows
from .errors import DomainError, InternalCheckError, NotLocallyFree, require_size
from .linalg import (
    companion_matrix,
    field_char,
    field_name,
    field_value,
    gcd_degree,
    is_irreducible_mod,
    mat_rank,
    poly_pow,
    sparse_mul,
)
from .record import Record
from .strings import (
    Band,
    Letter,
    StringWord,
    canonical_band,
    canonical_string,
    format_word,
    maximal_append,
    parse_band,
    parse_word,
    raw_extensions,
    trivial_word,
    word,
    word_sort_key,
)


class ZeroModule:
    """The zero module; arises only as tau of projectives / tau^{-1} of injectives."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "zero"


ZERO = ZeroModule()


class StringModule(Record):
    """The string module M(word) of a canonical string word."""

    __slots__ = ("word",)

    def __init__(self, word):
        object.__setattr__(self, "word", word)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not StringModule:
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"M({format_word(self.word)})"


class BandModuleClass(Record):
    """The band module of `band` at tube level `level`, its parameter `param`
    a monic polynomial in ascending coefficients with param(0) != 0."""

    __slots__ = ("band", "param", "level")

    @property
    def param_degree(self):
        return len(self.param) - 1

    def __repr__(self):
        return f"M({self.band!r}; deg={self.param_degree}, level={self.level})"


def string_module(w: StringWord):
    return StringModule(canonical_string(w))


def simple_module(p, vertex):
    return StringModule(trivial_word(p, vertex))


def canonical_simple_param(s, char=0):
    """A degree-s monic irreducible polynomial with nonzero constant term over
    the field of characteristic `char`, ascending coefficients.

    T-1 for s = 1 over every field.  Over the rationals T^s-2 (irreducible
    by Eisenstein at 2).  Over GF(p) the first irreducible in the order of
    the largest coefficient, then c_0, c_1, ..., each in 0..p-1: small
    coefficients come first, so the search stays short for any p.
    """
    require_size("parameter degree", s, 1)
    char = field_char(char)
    if s == 1:
        return (-1, 1)
    if not char:
        return (-2,) + (0,) * (s - 1) + (1,)
    for top in count(1):  # every degree has an irreducible over GF(p), so this stops by p - 1
        for tail in product(range(top + 1), repeat=s):
            if tail[0] and max(tail) == top and is_irreducible_mod(tail + (1,), char):
                return tail + (1,)


def band_module(b, param=None, level=1):
    """The band module class of the band letters of b (a Band or a
    StringWord, trusted to form a band), canonicalised so that equal modules
    compare equal.  The parameter is a tuple or list of ascending
    coefficients, each an int: a float, a bool or any other value is
    refused, and so is a parameter that is no such sequence."""
    require_size("band level", level, 1)
    param = canonical_simple_param(1) if param is None else param
    if not isinstance(param, (tuple, list)) or any(c.__class__ is not int for c in param) \
            or len(param) < 2 or param[-1] != 1 or param[0] == 0:
        raise DomainError("band parameter must be a monic int polynomial of degree >= 1 with"
                          f" nonzero constant term, not {param!r}")
    return BandModuleClass(canonical_band(b), tuple(param), level)


# ---------------------------------------------------------------------------
# dimension and rank vectors
# ---------------------------------------------------------------------------

def _word_data(m):
    """(word, block size) of a nonzero module: its string word and 1, or its
    band and level * degree for a band class.  Both kinds of word have
    `presentation`, `letters` and `walk()`; a module has one basis block of
    the block size per walk position."""
    if isinstance(m, StringModule):
        return m.word, 1
    if isinstance(m, BandModuleClass):
        return m.band, m.level * m.param_degree
    raise DomainError(f"{m!r} is not a string or band module")


def dim_vector(m):
    """Per-vertex dimensions: walk visit counts (scaled for band classes)."""
    w, d = _word_data(m)
    walk = w.walk()
    return tuple(d * walk.count(i) for i in w.presentation.vertices)


def dim_sum(m):
    return sum(dim_vector(m))


class _CountTable(Record):
    """The counts of one presentation, in the layout of the module
    docstring:

    n       the number of vertices
    visit   vertex -> the counts of one visit there
    weight  letter c -> its counts: a visit at its source, and itself if it
            is a loop
    """

    __slots__ = ("n", "visit", "weight")

    def ranks(self, counts):
        """The free rank vector that counts give, None when not locally free:
        the one rank rule."""
        n = self.n
        return None if any(counts[n:]) else counts[:n]

    def counts(self, letters, first=None):
        """The counts of a word: each distinct letter's weight times its uses,
        in one pass over the letters, and a visit at `first` (a string's
        first target) unless it is None."""
        vectors = [] if first is None else [self.visit[first]]
        vectors += [self.weight[c] if k == 1 else [k * x for x in self.weight[c]]
                    for c, k in Counter(letters).items()]
        return tuple(map(sum, zip(*vectors)))


@lru_cache(maxsize=None)
def count_table(p):
    """The count table of p, built once: see `_CountTable`."""
    slot = {v: i for i, v in enumerate(sorted({a.source for a in loop_arrows(p)}), start=p.n)}

    def vector(*pairs):
        v = [0] * (p.n + len(slot))
        for i, k in pairs:
            v[i] += k
        return tuple(v)

    visit = {v: vector((slot.get(v, v - 1), 1)) for v in p.vertices}
    weight = {c: vector((slot.get(c.source, c.source - 1), 1),
                        *(((c.source - 1, 1), (slot[c.source], -2)) if a.is_loop else ()))
              for a in p.arrows for c in (Letter(a, 1), Letter(a, -1))}
    return _CountTable(p.n, visit, weight)


def free_rank_vector(m):
    """The free ranks r_i of m, or None when m is not locally free: the
    `_CountTable.ranks` of its `_CountTable.counts`, scaled by the block
    size."""
    w, d = _word_data(m)
    t = count_table(w.presentation)
    ranks = t.ranks(t.counts(w.letters, w.target if w.__class__ is StringWord else None))
    return None if ranks is None else tuple([d * k for k in ranks])


def is_locally_free(m):
    """Whether m is locally free; see `free_rank_vector`."""
    return free_rank_vector(m) is not None


def rank_vector(m):
    """Free ranks r_i; raises NotLocallyFree exactly when `is_locally_free`
    is False."""
    ranks = free_rank_vector(m)
    if ranks is None:
        raise NotLocallyFree(f"{m!r} is not locally free")
    return ranks


# ---------------------------------------------------------------------------
# explicit representations
# ---------------------------------------------------------------------------

class Representation:
    """Arrow a acts by mats[a.name] = {(row, col): nonzero int entry}, reduced
    mod char over GF(char) (char > 0), an integer over Q (char 0)."""

    __slots__ = ("presentation", "dims", "mats", "char")

    def __init__(self, presentation, dims, mats, char=0):
        self.presentation = presentation
        self.dims = dims
        self.mats = mats
        self.char = char


def _check_param(m, char):
    """Raise DomainError unless the band class m's parameter gives a band
    module over the field of characteristic `char`: its constant term must
    be nonzero there, and over GF(p) it must be irreducible."""
    if not field_value(m.param[0], char):
        raise DomainError(f"band parameter {m.param} (constant term first) has constant term 0"
                          f" over {field_name(char)}; it gives no band module there")
    if char and not is_irreducible_mod(m.param, char):
        raise DomainError(f"band parameter {m.param} (constant term first) is reducible over"
                          f" {field_name(char)}; it gives no indecomposable band module there")


def build_representation(m, char=0):
    """Explicit matrices for a module reference over the field of
    characteristic `char`.

    Basis convention: walk order.  A string letter acts by a 1 between the
    basis vectors of its two walk positions.  Band classes at level l over a
    degree-s parameter have a d-dimensional block per walk position (d = ls)
    and act by identity blocks, except that the companion matrix of param^l
    sits on the first direct letter of the band (for a canonical band, its
    first letter), so no inverse is formed.  Over GF(p) the parameter must
    be irreducible with nonzero constant term, or DomainError is raised.
    """
    w, d = _word_data(m)
    p, letters, walk = w.presentation, w.letters, w.walk()
    phi = first = None
    if isinstance(m, BandModuleClass):
        _check_param(m, char)
        phi = companion_matrix(poly_pow(m.param, m.level), char)
        first = next(k for k, c in enumerate(letters) if c.sign > 0)
    # a band's walk closes up: its last letter returns to position 0
    offset, count = {}, dict.fromkeys(p.vertices, 0)
    for pos, v in enumerate(walk):
        offset[pos] = d * count[v]
        count[v] += 1
    dims = tuple(d * count[u] for u in p.vertices)
    ident = {(i, i): 1 for i in range(d)}
    mats = {a.name: {} for a in p.arrows}
    for k, c in enumerate(letters):
        after = (k + 1) % len(walk)
        src_pos, tgt_pos = (after, k) if c.sign > 0 else (k, after)
        mat = mats[c.arrow.name]
        ro, co = offset[tgt_pos], offset[src_pos]
        for (i, j), v in (phi if k == first else ident).items():
            mat[ro + i, co + j] = v
    return Representation(p, dims, mats, char)


def relations_vanish(rep: Representation):
    """Check that every relation path acts by zero."""
    for rel in rep.presentation.relations:
        prod = rep.mats[rel[0].name]
        for a in rel[1:]:
            prod = sparse_mul(prod, rep.mats[a.name], rep.char)
        if prod:
            return False
    return True


# ---------------------------------------------------------------------------
# Hom and Ext
# ---------------------------------------------------------------------------

def hom_dim(x: Representation, y: Representation):
    """dim of the intertwiner space {f : f phi^x = phi^y f over all arrows}.

    The unknowns are the entries F_u[r][k] of the maps f_u : X_u -> Y_u.  Each
    arrow a : i -> j gives the equations (F_j X_a - Y_a F_i)[r][c] = 0, built
    as sparse int rows from the nonzeros of column c of X_a and row r of Y_a.
    """
    if x.presentation != y.presentation:
        raise DomainError("hom between modules over different presentations")
    if x.char != y.char:
        raise DomainError("hom between modules over different fields")
    p = x.presentation
    offsets = {}
    total = 0
    for u in p.vertices:
        offsets[u] = total
        total += y.dims[u - 1] * x.dims[u - 1]
    rows = []
    for a in p.arrows:
        i, j = a.source, a.target
        dxi, dxj = x.dims[i - 1], x.dims[j - 1]
        # F_j[r][k] is unknown oj + r * dxj + k; F_i[k][c] is oi + k * dxi + c
        oj, oi = offsets[j], offsets[i]
        xcols = [[] for _ in range(dxi)]
        for (k, c), v in x.mats[a.name].items():
            xcols[c].append((oj + k, v))
        yrows = [[] for _ in range(y.dims[j - 1])]
        for (r, k), v in y.mats[a.name].items():
            yrows[r].append((oi + k * dxi, -v))
        for r, ys in enumerate(yrows):
            shift = r * dxj
            for c, xcol in enumerate(xcols):
                row = {col + shift: v for col, v in xcol}
                for col, v in ys:
                    col += c
                    row[col] = row.get(col, 0) + v
                if row:
                    rows.append(row)
    return total - mat_rank(rows, x.char)


@lru_cache(maxsize=64)
def _substring_tallies(w, cap):
    """(factor tally, image tally) of the string w, or of the periodic word
    w^oo of the band w with one start per phase and lengths <= cap.

    Walk positions i..j span a factor substring when the letter left of
    them, if any, is direct and the letter right of them, if any, is inverse
    (a direct letter c_k maps position k+1 to k, as in
    `build_representation`), and an image substring under the opposite
    conditions.  In w^oo both neighbours always exist: the letter left of
    phase 0 is the band's last letter.  A trivial substring is keyed by its
    vertex, a nontrivial one by its letters; the image tally also holds each
    substring's inverse, so D and D^-1 meet in one lookup.  A string has no
    substring longer than itself, so its cap is its length."""
    walk, m = w.walk(), len(w)
    if isinstance(w, Band):
        line = w.letters * (cap // m + 2)  # every phase plus cap letters and a right neighbour
        signs = (line[-1].sign, *(c.sign for c in line))
        starts = range(m)
    else:
        line = w.letters
        signs = (0, *(c.sign for c in line), 0)
        starts = range(m + 1)
    n = len(line)
    inverse = tuple(c.inverse for c in reversed(line))
    factor, image = {}, {}
    for i in starts:
        left = signs[i]
        for j in range(i, min(i + cap, n) + 1):
            right = signs[j + 1]
            if left >= 0 and right <= 0:
                key = line[i:j] if j > i else walk[i]
                factor[key] = factor.get(key, 0) + 1
            if left <= 0 and right >= 0:
                keys = (line[i:j], inverse[n - j:n - i]) if j > i else (walk[i],)
                for key in keys:
                    image[key] = image.get(key, 0) + 1
    return factor, image


def _hom_word(m, char):
    """(word, block size) of m, with a band parameter checked over the field."""
    if isinstance(m, BandModuleClass):
        _check_param(m, char)
    return _word_data(m)


def hom_dim_modules(x, y, char=0):
    """dim Hom(x, y) over the field of characteristic `char`, counted by
    graph maps; no representation is built.

    Between string modules M(v), M(w) (Crawley-Boevey, "Maps between
    representations of zero-relation algebras", J. Algebra 126, 1989) it is
    the number of pairs of a factor substring of v and an image substring of
    w equal up to inversion.  A band module M(b, V) stands for the periodic
    word b^oo, its substrings taken once per start phase (Krause, "Maps
    between tree and band modules", J. Algebra 137, 1991):

      dim Hom(X, Y) = B_X B_Y #{finite pairs}
                      + [X, Y bands of one class] deg gcd(f_X^l_X, f_Y^l_Y)

    with block size B = 1 for a string and level * degree for a band class
    of parameter f and level l; the last term is dim Hom over k[T] of
    k[T]/(f_X^l_X) and k[T]/(f_Y^l_Y).  Substrings are counted up to a
    cap: the string's length against a string, and m_X + m_Y between bands
    of lengths m_X, m_Y.  A longer common substring of b_X^oo and b_Y^oo
    would force the two bands into one class (Fine-Wilf), and within one
    class no pair reaches length m, since a band is primitive and no
    rotation of its own inverse.  A band parameter must give a band module
    over the field, as in `build_representation`, or DomainError is raised.
    """
    char = field_char(char)
    (wx, bx), (wy, by) = _hom_word(x, char), _hom_word(y, char)
    if wx.presentation != wy.presentation:
        raise DomainError("hom between modules over different presentations")
    strings = [len(w) for w in (wx, wy) if isinstance(w, StringWord)]
    cap = min(strings, default=len(wx) + len(wy))
    factor = _substring_tallies(wx, cap if isinstance(wx, Band) else len(wx))[0]
    image = _substring_tallies(wy, cap if isinstance(wy, Band) else len(wy))[1]
    dim = bx * by * sum(count * image.get(key, 0) for key, count in factor.items())
    if isinstance(wx, Band) and wx == wy:
        dim += gcd_degree(poly_pow(x.param, x.level), poly_pow(y.param, y.level), char)
    return dim


def ext1_dim_locally_free(x, y, char=0):
    """Ext^1 between locally free modules via the bilinear-form identity."""
    rx, ry = rank_vector(x), rank_vector(y)
    p = _word_data(x)[0].presentation
    cd = roots.cartan(p.n)
    pairing = roots.ringel_form(cd, p.orientation, rx, ry)
    value = hom_dim_modules(x, y, char) - pairing
    if value < 0:
        raise InternalCheckError(
            f"hom - <rank,rank> = {value} < 0 for {x!r}, {y!r}")
    return value


def is_rigid(m, char=0):
    return ext1_dim_locally_free(m, m, field_char(char)) == 0


# ---------------------------------------------------------------------------
# projectives, injectives, radicals, socle quotients
# ---------------------------------------------------------------------------

def _max_paths(p, i, sign):
    """The maximal paths at i whose letters all have the given sign, one per
    letter ending at i: the direct paths into i (+1) or the inverse paths out
    of i (-1), each read from i."""
    return [word(p, [c] + maximal_append(p, [c], sign))
            for c in raw_extensions(trivial_word(p, i), sign)]


@lru_cache(maxsize=None, typed=True)
def _glued(p, i, sign):
    """P_i (sign -1) or I_i (sign +1): the maximal paths at i glued there;
    built once per (p, i, sign), typed, so that a vertex 2.0 misses the entry
    of 2 and `trivial_word` refuses it."""
    paths = _max_paths(p, i, sign)
    if not paths:
        return simple_module(p, i)
    letters = paths[0].inverse.letters + (paths[1].letters if len(paths) > 1 else ())
    return string_module(word(p, letters))


def _summands(p, i, sign):
    """Each maximal path at i without its letter at i, or the simple module at
    its other end: rad P_i (sign -1) or I_i / soc I_i (sign +1)."""
    parts = [string_module(word(p, u.letters[1:])) if len(u) > 1 else simple_module(p, u.source)
             for u in _max_paths(p, i, sign)]
    return sorted(parts, key=lambda m: word_sort_key(m.word))


def projective_string(p, i):
    """P_i as a string module: the two maximal paths out of i glued at i."""
    return _glued(p, i, -1)


def injective_string(p, i):
    """I_i as a string module: the two maximal paths into i glued at i."""
    return _glued(p, i, 1)


def rad_decomposition(p, i):
    """Indecomposable summands of rad P_i (0, 1 or 2 string modules)."""
    return _summands(p, i, -1)


def soc_quotient_decomposition(p, i):
    """Indecomposable summands of I_i / soc I_i."""
    return _summands(p, i, 1)


@lru_cache(maxsize=None)
def glued_table(p):
    """Canonical word of P_i or I_i -> {sign: i}, sign -1 for P_i and +1 for
    I_i; a projective-injective word has both."""
    table = {}
    for i in p.vertices:
        for sign in (-1, 1):
            table.setdefault(_glued(p, i, sign).word, {})[sign] = i
    return table


def is_projective(m):
    return isinstance(m, StringModule) and -1 in glued_table(m.word.presentation).get(m.word, ())


def is_injective(m):
    return isinstance(m, StringModule) and 1 in glued_table(m.word.presentation).get(m.word, ())


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def format_module(m):
    """Text of a module: a string's word, or `band(<word>;<param>;<level>)`
    with <param> the degree s when the parameter is `canonical_simple_param(s)`
    of the rationals and its ascending coefficients, comma-separated,
    otherwise; `band(<word>)` for degree 1 and level 1."""
    if m is ZERO:
        return "zero"
    if isinstance(m, StringModule):
        return format_word(m.word)
    base = format_word(m.band)
    deg = m.param_degree
    param = str(deg) if m.param == canonical_simple_param(deg) else ",".join(map(str, m.param))
    if param == "1" and m.level == 1:
        return f"band({base})"
    return f"band({base};{param};{m.level})"


def format_vector(x):
    """Text of a dimension, rank or root vector: `(x1,...,xn)`."""
    return "(" + ",".join(map(str, x)) + ")"


def parse_module(p, text):
    text = text.strip()
    if text == "zero":
        return ZERO
    if text.startswith("band(") and text.endswith(")"):
        inner = text[5:-1]
        parts = inner.split(";")
        if len(parts) > 3:
            raise DomainError(f"bad band module: {text!r}")
        band = parse_band(p, parts[0])
        try:
            # ascending coefficients if the parameter has a comma, else a degree
            param = [int(c) for c in parts[1].split(",")] if len(parts) > 1 else [1]
            level = int(parts[2]) if len(parts) > 2 else 1
        except ValueError:
            raise DomainError(f"band parameter and level must be integers: {text!r}") from None
        param = param if len(param) > 1 else canonical_simple_param(param[0])
        return band_module(band, param, level)
    return string_module(parse_word(p, text))

