"""Executable theorems: the rank-vector/positive-root correspondence.

Witness modules are assembled from the four structural families
(preprojective and preinjective tau-orbits, the rank-(n-1) tube, band
classes by delta-length, parameter degree and tube level), and their rank
vectors compared against the enumerated positive roots.  Each orbit is
walked once, on the letter tuples of the tau kernel (`artrans.kernel`),
every walked module is checked locally free by the rank counts the walk
carries, and each step is retraced by the opposite translation.  The walk
stops where the kernel proves the orbit periodic and its last period lies
above the bound, so every later module is locally free and out of bound.
Failures are report content, not exceptions; a hard error only signals
that a generated witness failed one of these checks.
"""

from __future__ import annotations

from itertools import islice

from .algebra import require_ctilde
from .artrans import kernel, orbit, tau, tau_inv, tube_bottom
from .errors import DomainError, InternalCheckError, require_size
from .linalg import field_char
from .modules import (
    BandModuleClass,
    canonical_simple_param,
    dim_vector,
    format_module,
    free_rank_vector,
    injective_string,
    is_rigid,
    projective_string,
    rank_vector,
)
from .record import Record
from .roots import (
    beta,
    cartan,
    coxeter,
    delta,
    delta_shift,
    enumerate_positive_roots,
    gamma,
    height,
    is_admissible_sequence,
    quadratic,
)
from .strings import enumerate_bands


class Witness(Record):
    """A witness module of one of the four families:

    family    preprojective | preinjective | tube | band
    module    the module
    vertex    orbits: the start P_vertex or I_vertex
    step      orbits: tau-steps from the start
    level     tube row, or band module level
    position  place in the tube row
    """

    __slots__ = ("family", "module", "vertex", "step", "level", "position")

    def __init__(self, family, module, vertex=None, step=None, level=None, position=None):
        Record.__init__(self, family, module, vertex, step, level, position)

    @property
    def label(self):
        if self.family == "preprojective":
            return f"tau^-{self.step} P_{self.vertex}"
        if self.family == "preinjective":
            return f"tau^{self.step} I_{self.vertex}"
        if self.family == "tube":
            return f"level {self.level} pos {self.position}"
        m = self.module
        dl = len(m.band) // (2 * m.band.presentation.n)  # each atom has 2n letters
        return f"dl={dl} deg={m.param_degree} level={self.level}"


class CheckReport:
    """The verdict of one named check: its problems, one line each; it
    passes when there are none."""

    __slots__ = ("name", "problems")

    def __init__(self, name, problems):
        self.name = name
        self.problems = problems

    @property
    def passed(self):
        return not self.problems

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"<{self.name}: {state}, {len(self.problems)} problem(s)>"


class GLSReport:
    """The outcome of `check_gls`: the witness of each real root, the
    witnesses of each imaginary root, the roots without a witness (missing),
    the rank vectors that are no root (extra) and the problems found."""

    __slots__ = ("n", "orientation", "bound", "matched_real", "matched_imaginary",
                 "missing", "extra", "problems")

    def __init__(self, n, orientation, bound, matched_real, matched_imaginary, missing, extra,
                 problems):
        self.n = n
        self.orientation = orientation
        self.bound = bound
        self.matched_real = matched_real
        self.matched_imaginary = matched_imaginary
        self.missing = missing
        self.extra = extra
        self.problems = problems

    @property
    def passed(self):
        return not self.missing and not self.extra and not self.problems

    def to_json(self):
        import json

        doc = {
            "n": self.n,
            "orientation": list(self.orientation),
            "bound": self.bound,
            "passed": self.passed,
            "real_roots": {
                str(list(r)): w.label for r, w in sorted(self.matched_real.items())
            },
            "imaginary_roots": {
                str(list(r)): [w.label for w in ws]
                for r, ws in sorted(self.matched_imaginary.items())
            },
            "missing": [list(r) for r in self.missing],
            "extra": [list(r) for r in self.extra],
            "problems": self.problems,
        }
        return json.dumps(doc, indent=2)

    def to_table(self):
        cd = cartan(self.n)
        lines = [f"GLS check: n={self.n} orientation={''.join(self.orientation)} bound={self.bound}"]
        for r in sorted(self.matched_real):
            w = self.matched_real[r]
            lines.append(f"  {str(r):>18}  q={quadratic(cd, r)}  {w.family:<14} {w.label}")
        for r in sorted(self.matched_imaginary):
            ws = self.matched_imaginary[r]
            fams = {}
            for w in ws:
                fams[w.family] = fams.get(w.family, 0) + 1
            fam_text = ", ".join(f"{k} x{v}" for k, v in sorted(fams.items()))
            lines.append(f"  {str(r):>18}  q=0  [{len(ws)} witnesses: {fam_text}]")
        for r in self.missing:
            lines.append(f"  MISSING root {r}")
        for r in self.extra:
            lines.append(f"  EXTRA rank vector {r}")
        for p in self.problems:
            lines.append(f"  PROBLEM: {p}")
        lines.append("  => " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def _orbit_witnesses(cd, k, start, sign, bound):
    """(r, the module tau^{-r sign} start, its rank vector) for the modules of
    height <= bound on the orbit; only these are built as modules.

    The orbit is walked once, on the raw words of the kernel k and the counts
    they carry.  Each walked module must be locally free, its rank vector
    n - 1 steps on must exceed it by a positive multiple of delta, and the
    opposite translation retraces every step: it takes start to zero and
    each module to the one before, as the same raw word or, failing that,
    the same module.

    The walk stops where it has proved that no later module is in the bound
    or fails to be locally free: once the end letters that `_Table.grows`
    reads recur along an unbroken run of growing words, and the last period
    walked lies above the bound.  Every later step repeats the period, which
    adds the same counts each time; they have no loop part, since both ends
    of the period were checked locally free, and they climb in height, so
    every later module is locally free and above the bound.  A period whose
    heights do not climb, and a word that stops growing after n - 1 modules
    above the bound, raise instead.  So the walk always ends: heights climb
    by delta every n - 1 steps, and the end letter pairs are finitely many.
    """
    period, dl = cd.n - 1, delta(cd)
    raw, counts = k.counted(start.word)
    ranks, out, run, found, misses = [], [], {}, 0, 0

    def fail(what):
        raise InternalCheckError(f"tau-orbit module {format_module(k.module(raw))} {what}")

    while True:
        r, rv = len(ranks), k.table.ranks(counts)
        if rv is None:
            fail("is not locally free")
        if r >= period:
            delta_shift(dl, ranks[r - period], rv)
        ranks.append(rv)
        if not found:
            ends = k.grows(raw, sign)
            if ends is None and misses >= period:
                fail(f"stops growing after {misses} modules above the bound")
            run, i = (run, run.setdefault(ends, r)) if ends else ({}, r)
            found = r - i
            if found and height(rv) <= height(ranks[i]):
                fail(f"ends a period of {found} steps that does not climb in height")
        misses = misses + 1 if height(rv) > bound else 0
        if not misses:
            out.append((r, k.module(raw), rv))
        step = None if found and misses >= found else k.shift(raw, counts, sign)
        if step is None:
            break
        back = k.shift(step[0], None, -sign)
        if back is None or back[0] != raw and k.key(back[0]) != k.key(raw):
            fail(f"is not retraced from its translate {format_module(k.module(step[0]))}")
        raw, counts = step
    if k.shift(k.counted(start.word)[0], None, -sign) is not None:
        raise InternalCheckError(f"{format_module(start)} does not start its tau-orbit")
    return out


def _field(p, char):
    """char, once p is in the C-tilde family and char names a field
    (`field_char`); UnsupportedPresentation, resp. DomainError, otherwise."""
    require_ctilde(p, "the GLS correspondence")
    return field_char(char)


def tau_locally_free_rank_vectors(p, bound, char=0):
    """Map rank vector -> witnesses among tau-locally free modules of height
    <= bound, assembled from the four families and checked as they are built:
    orbits as in `_orbit_witnesses`, each tube row (locally free by the
    counts the tube walk carries, closed under tau and tau^-1) and each band
    module (locally free; in a homogeneous tube, so fixed by tau by
    construction) once.  Presentations outside the C-tilde family and a
    `char` that names no field are refused up front.
    Band witnesses take the canonical parameter over the field of
    characteristic `char`, so that each is a band module over that field.
    The bands come canonical from `enumerate_bands` and the parameters from
    `canonical_simple_param`, so each witness is built as it stands; a band
    class's ranks and local freeness are counted once, on its degree-1,
    level-1 module, since degree s and level l only scale the counts by s l."""
    require_size("bound", bound, 0)
    char = _field(p, char)
    cd = cartan(p.n)
    k = kernel(p)
    witnesses = {}

    def add(w, rv):
        witnesses.setdefault(rv, []).append(w)

    for i in p.vertices:
        for r, m, rv in _orbit_witnesses(cd, k, projective_string(p, i), 1, bound):
            add(Witness("preprojective", m, vertex=i, step=r), rv)
        for s, m, rv in _orbit_witnesses(cd, k, injective_string(p, i), -1, bound):
            add(Witness("preinjective", m, vertex=i, step=s), rv)
    if bound >= 1:
        for level, row in enumerate(k.tube(), start=1):
            members = [m for m, _ in row]
            ranks = [k.table.ranks(counts) for _, counts in row]
            closed = set(members)
            for m, rv in zip(members, ranks):
                if rv is None or tau(m) not in closed or tau_inv(m) not in closed:
                    raise InternalCheckError(f"tube row {level} is not a tau-orbit of locally "
                                             f"free modules at {format_module(m)}")
            if min(map(height, ranks)) > bound:
                break
            for pos, (m, rv) in enumerate(zip(members, ranks)):
                if height(rv) <= bound:
                    add(Witness("tube", m, level=level, position=pos), rv)
    max_dl = bound // height(delta(cd))
    if max_dl >= 1:
        params = [canonical_simple_param(s, char) for s in range(1, max_dl + 1)]
        for b in enumerate_bands(p, max_dl):
            m = BandModuleClass(b, params[0], 1)
            one = free_rank_vector(m)
            if one is None:
                raise InternalCheckError(f"band module {format_module(m)} is not locally free")
            t = len(b) // (2 * p.n)  # each atom has 2n letters
            for s in range(1, max_dl // t + 1):
                for level in range(1, max_dl // (t * s) + 1):
                    add(Witness("band", BandModuleClass(b, params[s - 1], level), level=level),
                        tuple([s * level * r for r in one]))
    return witnesses


def _band_classes(t):
    """Band classes of delta-length t: half the L(t) Lyndon words of t atoms,
    sum_{d|t} d L(d) = 4^t (Witt).  Inversion reverses and negates the 2t
    cyclic loop signs, a reflection keeping en positions on en positions, so
    it fixes a position, whose sign cannot be its own negative: no class is
    its own inverse."""
    return (4 ** t // 2 - sum(d * _band_classes(d) for d in range(1, t) if t % d == 0)) // t


def check_gls(p, bound, char=0):
    """Compare rank vectors of tau-locally free modules with positive roots.
    m delta expects one band witness per band class of delta-length t (as
    many as `_band_classes(t)`), degree s and level l with t s l = m.  At a
    positive bound the problems include those of `check_tube_invariants`."""
    require_size("bound", bound, 0)
    char = _field(p, char)
    cd = cartan(p.n)
    dl = delta(cd)
    roots_set = enumerate_positive_roots(cd, bound)
    table = tau_locally_free_rank_vectors(p, bound, char)
    missing = sorted(roots_set - set(table))
    extra = sorted(set(table) - roots_set)
    problems = []
    matched_real = {}
    matched_imaginary = {}

    for root in sorted(set(table) & roots_set):
        ws = table[root]
        m = root[0]
        if root == tuple(m * v for v in dl) and m >= 1:
            tube_ws = [w for w in ws if w.family == "tube"]
            band_ws = [w for w in ws if w.family == "band"]
            other = [w for w in ws if w.family not in ("tube", "band")]
            if other:
                problems.append(f"imaginary root {root} has non-regular witnesses: "
                                + ", ".join(w.label for w in other))
            if len(tube_ws) != p.n - 1:
                problems.append(f"imaginary root {root}: expected {p.n - 1} tube witnesses, "
                                f"got {len(tube_ws)}")
            expected_level = m * (p.n - 1)
            if any(w.level != expected_level for w in tube_ws):
                problems.append(f"imaginary root {root}: tube witnesses not at level {expected_level}")
            expected_band = sum(_band_classes(t) for t in range(1, m + 1)
                                for s in range(1, m + 1) if m % (t * s) == 0)
            if len(band_ws) != expected_band:
                problems.append(f"imaginary root {root}: expected {expected_band} band witnesses, "
                                f"got {len(band_ws)}")
            matched_imaginary[root] = ws
        else:
            if len(ws) != 1:
                problems.append(f"real root {root} has {len(ws)} witnesses: "
                                + ", ".join(w.label for w in ws))
            matched_real[root] = ws[0]

    if bound >= 1:
        problems += check_tube_invariants(p, char).problems

    return GLSReport(p.n, p.orientation, bound, matched_real, matched_imaginary,
                     missing, extra, problems)


def check_coxeter_compatibility(p, seq, depth):
    """rank(tau^{-r} P_{i_k}) = c^{-r}(beta_k) and rank(tau^s I_{i_k}) = c^s(gamma_k),
    with all produced values pairwise distinct.

    For a --admissible sequence the transformation acting is the one of the
    reversed (+-admissible) sequence, i.e. the inverse of c_seq.
    """
    require_size("depth", depth, 0)
    require_ctilde(p, "Coxeter compatibility")
    cd = cartan(p.n)
    seq = tuple(seq)
    if is_admissible_sequence(p.orientation, seq, "+"):
        polarity, sign = "+", 1
    elif is_admissible_sequence(p.orientation, seq, "-"):
        polarity, sign = "-", -1
    else:
        raise DomainError(f"sequence {seq} is not admissible for this orientation")
    cox = coxeter(cd, seq)
    problems = []
    values = []
    for k, i in enumerate(seq, start=1):
        # (start, step, root, Coxeter power per step, "-" on the tau^-1 side)
        sides = ((projective_string(p, i), tau_inv, beta(cd, seq, k, polarity), -sign, "-"),
                 (injective_string(p, i), tau, gamma(cd, seq, k, polarity), sign, ""))
        for start, step, expected, power, minus in sides:
            name, root = ("P", "beta") if minus else ("I", "gamma")
            for r, m in enumerate(islice(orbit(start, step), depth + 1)):
                got = rank_vector(m)
                if got != expected:
                    problems.append(f"rank(tau^{minus}{r} {name}_{i}) = {got} != "
                                    f"c^{minus}{r}({root}_{k}) = {expected}")
                values.append(got)
                expected = cox.apply(expected, power)
    if len(set(values)) != len(values):
        problems.append("rank vectors along the orbits are not pairwise distinct")
    return CheckReport("coxeter-compatibility", problems)


def check_tube_invariants(p, char=0):
    """Dimension and rank sums and rigidity of the tube bottom; `tube_bottom`
    itself checks that tau^-1 closes it with period n-1."""
    char = _field(p, char)
    bottom = tube_bottom(p)
    problems = []
    n = p.n
    dims = [dim_vector(m) for m in bottom]
    dim_sum_vec = tuple(sum(col) for col in zip(*dims))
    if dim_sum_vec != (2,) * n:
        problems.append(f"bottom dimension sum {dim_sum_vec} != (2,...,2)")
    ranks = [rank_vector(m) for m in bottom]
    rank_sum_vec = tuple(sum(col) for col in zip(*ranks))
    if rank_sum_vec != delta(cartan(n)):
        problems.append(f"bottom rank sum {rank_sum_vec} != delta")
    for m in bottom:
        if not is_rigid(m, char):
            problems.append(f"bottom module {format_module(m)} is not rigid")
    return CheckReport("tube-invariants", problems)
