"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's word machinery: they work on plain
(name, sign) tuples read off the presentation structure, so they can
disagree with the implementation if either is wrong.  The tau-orbit oracle
is the exception: it walks the library's translation, but from each module
separately, as the verifier did before it walked each orbit once.  The
dense Hom oracle solves the same intertwiner system as `modules.hom_dim`,
written out as dense rows and eliminated column by column, over Fractions
for Q, so that it shares no arithmetic with the library's fraction-free
integer elimination, and over ints mod p for GF(p).

The last oracles are the library's earlier implementations of paths it now
takes faster: canonical forms as a `min` over every candidate word, the
C-tilde bands by a sweep over every sign word of the standard form, tau^-1
read off the whole AR-sequence, local freeness counted by a generator per
loop vertex, the hook and cohook steps taken on the right end only, the
left end being the right end of the inverse word, and the orbit walks that
stopped n-1 items past the last one in the bound (`bounded_orbit`), the
verifier's walking on to WINDOW - 1 modules past its last witness.
"""

from fractions import Fraction
from itertools import islice, product
from operator import itemgetter

from strandbox import (
    ZERO,
    BandModuleClass,
    is_injective,
    is_locally_free,
    is_projective,
    string_module,
    tau,
    tau_inv,
)
from strandbox.algebra import arrow_named
from strandbox.artrans import ar_sequence_starting_at, kernel, ray
from strandbox.errors import InternalCheckError
from strandbox.modules import format_module
from strandbox.roots import delta, height, is_nonnegative
from strandbox.strings import (
    Band,
    Letter,
    StringWord,
    can_append,
    canonical_band,
    is_band,
    letter_key,
    spine_walk_word,
    word,
    word_sort_key,
)


def _arrow_maps(p):
    by_source = {}
    by_target = {}
    for a in p.arrows:
        by_source.setdefault(a.source, []).append(a)
        by_target.setdefault(a.target, []).append(a)
    return by_source, by_target


def letter_ends(p):
    """(name, sign) -> (source, target) of that letter."""
    ends = {}
    for a in p.arrows:
        ends[a.name, 1] = (a.source, a.target)
        ends[a.name, -1] = (a.target, a.source)
    return ends


def string_ok(p, seq):
    """Whether the (name, sign) sequence is a string: composable, no
    backtracking, and no window that is a relation or an inverse relation."""
    ends = letter_ends(p)
    relations = [tuple(a.name for a in rel) for rel in p.relations]
    inverse_relations = [tuple(reversed(r)) for r in relations]
    for (n1, s1), (n2, s2) in zip(seq, seq[1:]):
        if ends[n1, s1][0] != ends[n2, s2][1]:
            return False
        if n1 == n2 and s1 == -s2:
            return False
    for length in {len(r) for r in relations}:
        for i in range(len(seq) - length + 1):
            window = seq[i:i + length]
            names = tuple(n for n, _ in window)
            if all(s > 0 for _, s in window) and names in relations:
                return False
            if all(s < 0 for _, s in window) and names in inverse_relations:
                return False
    return True


def maximal_ray(p, name, sign):
    """The letters of sign -sign that follow the letter (name, sign) in the
    longest string made only of such letters after it, found by trying every
    arrow at each step; asserts that there is one choice at most."""
    names = sorted(a.name for a in p.arrows)
    seq = ((name, sign),)
    while True:
        options = [(b, -sign) for b in names if string_ok(p, seq + ((b, -sign),))]
        assert len(options) <= 1 and len(seq) <= 4 * len(names), (name, sign, seq)
        if not options:
            return seq[1:]
        seq += tuple(options)


def raw_string_classes(p, max_len):
    """All strings of length <= max_len as rho-classes of (name, sign) tuples."""
    by_source, by_target = _arrow_maps(p)
    ends = letter_ends(p)

    classes = {("triv", u) for u in p.vertices}
    frontier = [((), u) for u in p.vertices]
    for _ in range(max_len):
        nxt = []
        for seq, at in frontier:
            options = [(a.name, 1) for a in by_target.get(at, [])]
            options += [(a.name, -1) for a in by_source.get(at, [])]
            for letter in options:
                cand = seq + (letter,)
                if not string_ok(p, cand):
                    continue
                inv = tuple((n, -s) for n, s in reversed(cand))
                key = min(cand, inv)
                nxt.append((cand, ends[letter][0]))
                classes.add(key)
        frontier = nxt
    return classes


def raw_string_class_count(p, max_len):
    return len(raw_string_classes(p, max_len))


def path_basis_dims(p, i):
    """Dimension vector of P_i: count paths from i avoiding relation factors."""
    by_source, _ = _arrow_maps(p)
    relations = [tuple(a.name for a in rel) for rel in p.relations]

    def extendable(steps, a):
        cand = steps + (a.name,)
        for length in {len(r) for r in relations}:
            if len(cand) >= length and tuple(reversed(cand[-length:])) in relations:
                return False
        return True

    counts = [0] * p.n
    frontier = [((), i)]
    counts[i - 1] += 1
    while frontier:
        nxt = []
        for steps, at in frontier:
            for a in by_source.get(at, []):
                if extendable(steps, a):
                    counts[a.target - 1] += 1
                    nxt.append((steps + (a.name,), a.target))
        frontier = nxt
    return tuple(counts)


def reflection_closure_alt(cd, bound, reflect, delta_vec):
    """Positive-root set by a depth-first traversal in reversed generator
    order (an independent application order for the closure)."""
    simple = [tuple(1 if j == i else 0 for j in range(cd.n)) for i in range(cd.n)]
    found = set()
    stack = [x for x in simple if sum(x) <= bound]
    found.update(stack)
    while stack:
        x = stack.pop()
        for i in range(cd.n, 0, -1):
            y = reflect(cd, i, x)
            if y not in found and all(v >= 0 for v in y) and 0 < sum(y) <= bound:
                found.add(y)
                stack.append(y)
    m = 1
    while m * sum(delta_vec) <= bound:
        found.add(tuple(m * v for v in delta_vec))
        m += 1
    return found


def fails_tau_local_freeness(m, window=10):
    """Whether some module among the `window` nearest of m's tau-orbit on
    either side (m included) is not locally free."""
    for step in (tau, tau_inv):
        cur = m
        for _ in range(window):
            if cur is ZERO:
                break
            if not is_locally_free(cur):
                return True
            cur = step(cur)
    return False


def bounded_orbit(cd, orbit, bound, vector=lambda x: x):
    """The items of a Coxeter orbit up to n-1 past its last one of height <= bound.

    `orbit` iterates x_0, x_1, ... with vector(x_{r+1}) = c^{-1}(vector(x_r))
    for preprojective or c(vector(x_r)) for preinjective roots, where c is the
    Coxeter transformation of a +-admissible sequence; for module orbits
    under tau^{-1} and tau this is Coxeter compatibility.  Iteration stops
    after n-1 consecutive items of height > bound, which are yielded too.

    Why nothing later lies within the bound.  Some power of an affine Coxeter
    transformation is a shift by multiples of delta (Dlab-Ringel, Mem. AMS
    173, 1976); here c^{n-1}(x) = x + d(x)*delta and c^{-(n-1)}(x) =
    x - d(x)*delta with d linear (tests/test_roots.py checks this for
    n = 3..8, every orientation and every admissible sequence).  As c fixes
    delta, d(c(x)) = d(x), so along one orbit x_{r+n-1} - x_r = D*delta for a
    single integer D; each step asserts D > 0.  Heights then grow in every
    residue class of r mod n-1, so once x_s .. x_{s+n-2} all exceed the
    bound, every x_r with r >= s does.
    """
    period = cd.n - 1
    dl = delta(cd)
    seen = []
    misses = 0
    for item in orbit:
        x = vector(item)
        if len(seen) >= period:
            earlier = seen[-period]
            shift = x[0] - earlier[0]
            if shift <= 0 or any(a - b != shift * d for a, b, d in zip(x, earlier, dl)):
                raise InternalCheckError(f"{x} is not {earlier} plus a positive multiple of delta")
        seen.append(x)
        yield item
        misses = misses + 1 if height(x) > bound else 0
        if misses == period:
            return


def orbit_within_bound_by_walk(cd, cox, start, power_sign, bound):
    """{c^(power_sign * r)(start) : r >= 0} truncated to the height bound,
    walked one Coxeter step at a time through `bounded_orbit`."""
    def orbit(x):
        while True:
            yield x
            x = cox.apply(x, power_sign)

    return [x for x in bounded_orbit(cd, orbit(start), bound)
            if is_nonnegative(x) and 0 < height(x) <= bound]


WINDOW = 10  # modules of each witness's tau-orbit checked on either side, itself included


def _orbit_by_window(k, start, sign):
    """(raw word, rank vector) along the orbit of start under tau^{-1} (sign
    +1) or tau (sign -1), walked by the kernel k with the counts it carries;
    each module must be locally free."""
    step = k.counted(start.word)
    while step is not None:
        raw, counts = step
        rv = k.table.ranks(counts)
        if rv is None:
            raise InternalCheckError(f"tau-orbit module {format_module(k.module(raw))} "
                                     f"is not locally free")
        yield raw, rv
        step = k.shift(raw, counts, sign)


def orbit_witnesses_by_window(cd, k, start, sign, bound):
    """(r, the module tau^{-r sign} start, its rank vector) for the modules of
    height <= bound on the orbit, walked through the stopping rule of
    `bounded_orbit` and on to WINDOW - 1 steps past the last module
    returned; the opposite translation retraces every step."""
    orbit = _orbit_by_window(k, start, sign)
    walked = list(bounded_orbit(cd, orbit, bound, itemgetter(1)))
    inside = [r for r, (_, rv) in enumerate(walked) if height(rv) <= bound]
    if inside:
        walked += islice(orbit, max(0, inside[-1] + WINDOW - len(walked)))
    raws = [raw for raw, _ in walked]
    if k.shift(raws[0], None, -sign) is not None:
        raise InternalCheckError(f"{format_module(start)} does not start its tau-orbit")
    for prev, raw in zip(raws, raws[1:]):
        back = k.shift(raw, None, -sign)
        if back is None or back[0] != prev and k.key(back[0]) != k.key(prev):
            raise InternalCheckError(f"tau-orbit step {format_module(k.module(prev))} -> "
                                     f"{format_module(k.module(raw))} is not retraced")
    return [(r, k.module(walked[r][0]), walked[r][1]) for r in inside]


def dense_rank(rows, char=0):
    """Rank of dense int rows over the field of characteristic `char`, by
    Gaussian elimination column by column: over Q on Fractions, over GF(p)
    on ints mod p."""
    if char:
        rows = [[v % char for v in row] for row in rows]
    else:
        rows = [[Fraction(v) for v in row] for row in rows]
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
            rr = rows[r]
            if char:
                f = f * pow(pval, char - 2, char) % char
                for c in range(col, ncols):
                    rr[c] = (rr[c] - f * prow[c]) % char
            else:
                f = f / pval
                for c in range(col, ncols):
                    rr[c] = rr[c] - f * prow[c]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_hom_dim(x, y):
    """dim Hom(X, Y) of two representations, from the intertwiner system
    f_j X_a = Y_a f_i written as one dense row per equation."""
    p = x.presentation
    offsets = {}
    total = 0
    for u in p.vertices:
        offsets[u] = total
        total += y.dims[u - 1] * x.dims[u - 1]
    if total == 0:
        return 0
    rows = []
    for a in p.arrows:
        i, j = a.source, a.target
        dxi, dyi = x.dims[i - 1], y.dims[i - 1]
        dxj, dyj = x.dims[j - 1], y.dims[j - 1]
        xa = [[x.mats[a.name].get((r, c), 0) for c in range(dxi)] for r in range(dxj)]
        ya = [[y.mats[a.name].get((r, c), 0) for c in range(dyi)] for r in range(dyj)]
        for r in range(dyj):
            for c in range(dxi):
                row = [0] * total
                # coefficient of F_j[r, k]: X_a[k, c]
                for k in range(dxj):
                    row[offsets[j] + r * dxj + k] += xa[k][c]
                # coefficient of F_i[k, c]: -Y_a[r, k]
                for k in range(dyi):
                    row[offsets[i] + k * dxi + c] -= ya[r][k]
                if any(row):
                    rows.append(row)
    return total - dense_rank(rows, x.char)


def canonical_string_by_min(w):
    """The smaller of w and w^-1 in the word order (the trivial word tagged +1)."""
    if not w.letters:
        return StringWord(w.presentation, (), w.base)
    return min(w, w.inverse, key=word_sort_key)


def canonical_band_by_min(b):
    """The first minimum, by letter keys, of every rotation of the band
    letters, then of every rotation of their inverse."""
    m = len(b.letters)
    candidates = []
    for letters in (b.letters, tuple(c.inverse for c in reversed(b.letters))):
        for i in range(m):
            candidates.append(letters[i:] + letters[:i])
    return Band(b.presentation, min(candidates, key=lambda ls: tuple(c.key for c in ls)))


def bands_by_sweep(p, max_dl):
    """The bands of delta-length <= max_dl (C-tilde): every sign word of the
    standard form w0^-1 en^± w0 e1^± ... w0 e1^±, kept if `is_band`,
    canonicalised, deduplicated and sorted as `enumerate_bands` sorts."""
    w0 = spine_walk_word(p)
    e1, en = arrow_named(p)["e1"], arrow_named(p)[f"e{p.n}"]
    seen = set()
    for t in range(1, max_dl + 1):
        for signs in product((1, -1), repeat=2 * t):
            letters = []
            for j in range(t):
                letters += [*w0.inverse.letters, Letter(en, signs[2 * j]),
                            *w0.letters, Letter(e1, signs[2 * j + 1])]
            cand = word(p, letters)
            if is_band(cand):
                seen.add(canonical_band(cand))
    return tuple(sorted(seen, key=lambda b: (len(b.letters), tuple(map(letter_key, b.letters)))))


def tau_inv_by_ar_sequence(m):
    """The end term of the AR-sequence starting at m; ZERO for an injective."""
    seq = ar_sequence_starting_at(m)
    return ZERO if seq is None else seq.right


def is_locally_free_by_generator(m):
    """At each loop vertex, twice the number of loop letters there equals
    the number of visits of the walk."""
    w = m.band if isinstance(m, BandModuleClass) else m.word
    letters, walk = w.letters, w.walk()
    for v in sorted({a.source for a in w.presentation.arrows if a.is_loop}):
        loops = sum(1 for c in letters if c.arrow.is_loop and c.arrow.source == v)
        if 2 * loops != walk.count(v):
            return False
    return True


def free_rank_vector_by_walk(m):
    """The free ranks by the walk: its visits per vertex, halved at the loop
    vertices and scaled by the block size (level times parameter degree for
    a band module); None where `is_locally_free_by_generator` finds m not
    locally free."""
    if not is_locally_free_by_generator(m):
        return None
    band = isinstance(m, BandModuleClass)
    w = m.band if band else m.word
    size = m.level * (len(m.param) - 1) if band else 1
    walk = w.walk()
    loops = {a.source for a in w.presentation.arrows if a.is_loop}
    return tuple(size * walk.count(v) // (2 if v in loops else 1) for v in w.presentation.vertices)


def _letters(p):
    return [Letter(a, s) for a in p.arrows for s in (1, -1)]


def add_right_by_inversion(w, sign):
    """w.c.ray(c) for the one letter c of the given sign with w.c a string
    (a trivial word: the one whose side is its tag), tested letter by letter
    with `can_append`; None when there is none."""
    p = w.presentation
    side = kernel(p).side
    cand = [c for c in _letters(p) if c.sign == sign and c.target == w.source
            and can_append(p, w.letters, c) and (w.letters or side[c] == w.tag)]
    if len(cand) > 1:
        raise InternalCheckError("ambiguous side extension")
    return word(p, w.letters + (cand[0],) + ray(p, cand[0]).letters) if cand else None


def delete_right_by_inversion(w, sign):
    """w without its tail c.ray(c), c its last letter of the given sign;
    None when w does not end so."""
    k = next((i for i in reversed(range(len(w))) if w.letters[i].sign == sign), None)
    if k is None:
        return None
    p, c = w.presentation, w.letters[k]
    if w.letters[k + 1:] != ray(p, c).letters:
        return None
    return word(p, w.letters[:k]) if k else StringWord(p, (), c.target, kernel(p).side[c])


def _inverted(fn):
    def on_the_left(w, sign):
        v = fn(w.inverse, sign)
        return None if v is None else v.inverse
    on_the_left.__name__ = fn.__name__.replace("right", "left")
    return on_the_left


add_left_by_inversion = _inverted(add_right_by_inversion)
delete_left_by_inversion = _inverted(delete_right_by_inversion)


def _step_by_inversion(w, sign):
    v = add_right_by_inversion(w, sign)
    v = delete_right_by_inversion(w, -sign) if v is None else v
    if v is None:
        raise InternalCheckError("no side operation")
    return v


def translate_by_inversion(m, sign):
    """tau^-1 (sign +1) or tau (sign -1) of a module: the ray class
    M(w) = M(ray(c)) by its letters c of sign -sign, else one step on the
    right, then one on the right of the inverse."""
    if isinstance(m, BandModuleClass):
        return m
    if (is_injective if sign > 0 else is_projective)(m):
        return ZERO
    w = m.word
    p = w.presentation
    images = {string_module(ray(p, c.inverse)) for c in _letters(p)
              if c.sign == -sign and ray(p, c) in (w, w.inverse)}
    if images:
        if len(images) > 1:
            raise InternalCheckError("ambiguous ray class")
        return images.pop()
    right = _step_by_inversion(w, sign)
    return string_module(_step_by_inversion(right.inverse, sign).inverse)


def gcd_degree_by_euclid(a, b, char=0):
    """deg gcd(a, b) of polynomials (ascending int coefficients) by the
    Euclidean algorithm: over Q on Fractions, over GF(p) on ints mod p."""
    def trim(f):
        f = [Fraction(c) for c in f] if not char else [c % char for c in f]
        while f and not f[-1]:
            f.pop()
        return f

    def rem(f, g):
        f = list(f)
        while len(f) >= len(g):
            q = f[-1] / g[-1] if not char else f[-1] * pow(g[-1], char - 2, char)
            shift = len(f) - len(g)
            for k, gk in enumerate(g):
                f[shift + k] -= q * gk
            f = trim(f)
        return f

    f, g = trim(a), trim(b)
    while g:
        f, g = g, rem(f, g)
    return len(f) - 1
