"""Minors, the standard/good classifier, and row surgery.

A t x (t+r) homogeneous matrix presents a determinantal scheme through its
ideal of maximal minors.  The scheme is *standard* when that ideal has the
expected height r+1 and *good* when moreover some generalized row (a row
after an invertible change of row basis) can be deleted leaving maximal
minors of height r+2.  Goodness is decided deterministically: from the
height of the submaximal-minor ideal, or, for a matrix that extends by one
row a matrix certified standard, by containment, since the t-minors of that
matrix are submaximal minors of this one.  The randomized witness search
only produces certificates and can never misclassify.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InputError, VerificationError
from .grading import (
    GradedFreeModule,
    HomogeneousMatrix,
    br_terms,
    en_terms,
    matrix_from_strings,
    matrix_truncation_bound,
    resolution_hilbert_function,
)
from .field import GF
from .groebner import (
    IdealBasis,
    buchberger,
    grevlex_ideal,
    height,
    stored_basis,
)
from .linalg import Laplace, integer_rows, rank_of_columns
from .memo import MATRIX_BUDGET, MINORS_BUDGET, Memo, terms
from .ring import PolyRing, random_homogeneous


@dataclass(frozen=True)
class DeterminantalPresentation:
    """A homogeneous t x (t+r) matrix with t >= 1 and r >= 0.

    Square matrices (r = 0) present codimension-one hypersurface stages and
    show up as the last step of a flag.
    """

    matrix: HomogeneousMatrix

    def __post_init__(self):
        if self.matrix.nrows < 1:
            raise InputError("presentation needs at least one row")
        if self.matrix.ncols < self.matrix.nrows:
            raise InputError("presentation needs at least as many columns as rows")

    @property
    def ring(self):
        return self.matrix.ring

    @property
    def t(self):
        return self.matrix.nrows

    @property
    def r(self):
        return self.matrix.ncols - self.matrix.nrows


def presentation_from_strings(ring, rows, row_twists=None, col_twists=None):
    return DeterminantalPresentation(
        matrix_from_strings(ring, rows, row_twists, col_twists)
    )


def _unwrap(mat_or_pres):
    if isinstance(mat_or_pres, DeterminantalPresentation):
        return mat_or_pres.matrix
    return mat_or_pres


#: an entry of the minors table weighs its ideal's terms
_MINORS_CACHE = Memo(MINORS_BUDGET)


def minors(mat_or_pres, s):
    """IdealBasis of all s x s minors (zero determinants dropped), memoized."""
    m = _unwrap(mat_or_pres)
    hit = _MINORS_CACHE.get((m, s))
    if hit is None:
        hit = _laplace_minors(m, s)
        _MINORS_CACHE.put((m, s), hit, terms(hit))
    return hit


def _laplace_minors(m, s):
    """The s x s minors of the matrix m by Laplace expansion, stored nowhere."""
    if s < 1 or s > min(m.nrows, m.ncols):
        raise InputError(f"minor size {s} out of range for {m.nrows}x{m.ncols}")
    laplace = Laplace(m.entries, m.ring)
    gens = []
    for rows in combinations(range(m.nrows), s):
        for cols in combinations(range(m.ncols), s):
            det = laplace.det(rows, cols)
            if not det.is_zero():
                gens.append(det)
    return IdealBasis(m.ring, tuple(gens))


#: the field of the height certificates over QQ (`_certified_height`)
_MOD_P_FIELD = GF(32003)


def _minors_height(P, s):
    """Height of I_s(Φ), leaving no minors or basis in the memo tables.

    Cheapest route first: a basis already in the memo tables; the point,
    line or mod-p certificate of `_certified_height`; else the full Groebner
    basis, in grevlex whatever the ring's order (`grevlex_ideal`): a height
    depends only on the Hilbert function.
    """
    m = _unwrap(P)
    I = _MINORS_CACHE.get((m, s))
    gb = None if I is None else stored_basis(I)
    if gb is None:
        ht = _certified_height(m, s)
        if ht is not None:
            return ht
        gb = _unpinned_basis(grevlex_ideal(_laplace_minors(m, s) if I is None else I))
    return height(gb)


def _unpinned_basis(I):
    """The reduced GB of I from the Groebner table, else computed and not stored."""
    gb = stored_basis(I)
    return buchberger(I) if gb is None else gb


def _certified_height(m, s):
    """ht I_s(m) when a lower bound mod p meets the upper bound, else None.

    When every s-minor has positive degree, I_s is proper and its height is
    at most (t-s+1)(ncols-s+1) (Eagon-Northcott) and at most nvars.  Over
    QQ, DΦ (`_scaled_mod_p`) has integer s-minors that are nonzero multiples
    of those of Φ.  An upper bound of 1 or 2 is met, in every
    characteristic, by a seeded point or line (`_point_or_line`).  Else,
    over QQ only, the images J_p of the integer minors mod p span each
    degree piece with rank at most the rank over QQ, so HF(R_p/J_p) >=
    HF(R/I_s) in every degree and ht J_p <= ht I_s, for every prime.
    Returns None when no route meets the upper bound.
    """
    ring = m.ring
    rows, cols = sorted(m.target.twists), sorted(m.source.twists)
    if sum(cols[:s]) <= sum(rows[-s:]):
        return None  # a minor of degree 0 may be a unit
    upper = min((m.nrows - s + 1) * (m.ncols - s + 1), ring.nvars)
    low = upper <= 2 and sum(cols[-s:]) - sum(rows[:s]) <= _LINE_MAX_DEGREE
    if low and _point_or_line(m, s, upper):
        return upper
    if ring.field.characteristic:
        return None
    lower = height(_unpinned_basis(_laplace_minors(_scaled_mod_p(m), s)))
    return upper if lower == upper else None


#: the seed of the point and the line of `_point_or_line`
_LINE_SEED = "determinantal/point-or-line"
#: `_point_or_line` runs only when no s-minor has a larger degree: the
#: restrictions to the line are dense in u, so their products cost the
#: square of it, while sparse minors of high degree may have a cheap basis
_LINE_MAX_DEGREE = 32


@functools.cache
def _seeded_line(n, p):
    """The point a and the base point b of the line {a u + b} in F_p^n."""
    rng = random.Random(f"{_LINE_SEED}/{n}/{p}")
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))


@functools.cache
def _line_ring(field):
    """F_p[u], in which the entries restricted to the line live."""
    return PolyRing(("u",), field, _allow_small=True)


def _point_or_line(m, s, upper):
    """Does a seeded point (upper 1) or line (upper 2) prove ht I_s(m) >=
    upper?  False means only that this route did not decide.

    The route works mod p on DΦ, Φ = m with rows scaled to integers
    (`integer_rows`); over F_p, DΦ is Φ.  Let M run over the s-minors of DΦ
    mod p, and let a and b be the seeded points of F_p^n (`_seeded_line`).
    A common factor of the minors of Φ over QQ, taken primitive in Z[x],
    divides every integer minor of DΦ in Z[x] by Gauss's lemma; its image
    mod p is a nonzero form of the same positive degree, and divides every
    M.  So it suffices to show that the M have no common factor of positive
    degree.

    - Upper 1.  If the scalar matrix DΦ(a) has rank >= s, some M(a) is
      nonzero, so some minor of Φ is nonzero and ht I_s >= 1.
    - Upper 2.  In the UFD k[x] a height-one prime is principal, so a
      nonzero ideal has height >= 2 exactly when its generators have no
      common factor.  Restrict to the line: M(a u + b) has degree at most
      the formal degree d_M of M, read off the twists, and its u^{d_M}
      coefficient is M(a).  Suppose h of positive degree divides every M.
      If h vanishes on the line, every restriction is zero.  Else h(a u +
      b) divides every restriction, and either it has positive degree, so
      their gcd does too, or it lost degree, so h(a) = 0 and every M(a) =
      0.  Hence a constant gcd together with one M(a) != 0, that is one
      restriction that keeps its formal degree, proves ht >= 2.

    Over a small field the seeded point or line may fail both tests; the
    caller then falls back to a basis.
    """
    ring = m.ring
    field = ring.field if ring.field.characteristic else _MOD_P_FIELD
    p = field.p
    a, b = _seeded_line(ring.nvars, p)
    grid = integer_rows(m.entries, ring.field.characteristic)[1]
    keys = {k for row in grid for f in row for k in f}
    if upper == 1:
        at_a = {k: math.prod(pow(x, e, p) for x, e in zip(a, ring.exponents(k))) for k in keys}
        cols = []
        for j in range(m.ncols):
            values = ((i, sum(c * at_a[k] for k, c in row[j].items()) % p)
                      for i, row in enumerate(grid))
            cols.append({i: v for i, v in values if v})
        return rank_of_columns(cols, field) >= s
    on_line = {}  # key -> coefficients of its monomial at a u + b, from u^0 up
    for k in keys:
        mono = [1]
        for ai, bi, e in zip(a, b, ring.exponents(k)):
            for _ in range(e):
                mono = [(x * bi + y * ai) % p for x, y in zip(mono + [0], [0] + mono)]
        on_line[k] = mono
    ring_u = _line_ring(field)
    laplace = Laplace([[_restrict(f, on_line, ring_u) for f in row] for row in grid], ring_u)
    row_tw, col_tw = m.target.twists, m.source.twists
    gcd, keeps_degree = None, False
    for rows in combinations(range(m.nrows), s):
        for cols in combinations(range(m.ncols), s):
            minor = laplace.det(rows, cols)
            if minor.is_zero():
                continue
            degree = sum(col_tw[j] for j in cols) - sum(row_tw[i] for i in rows)
            keeps_degree = keeps_degree or minor.leading_monomial() == degree
            gcd = _dense(minor) if gcd is None else _gcd_mod_p(gcd, _dense(minor), p)
            if keeps_degree and len(gcd) == 1:
                return True
    return False


def _restrict(f, on_line, ring_u):
    """The entry f, a dict {packed key: int}, on the line, in F_p[u]."""
    acc = {}
    for key, c in f.items():
        for j, v in enumerate(on_line[key]):
            acc[j] = acc.get(j, 0) + c * v
    return ring_u.from_keys(acc)


def _dense(f):
    """The coefficients of f in F_p[u], highest degree first."""
    out = [0] * (f.leading_monomial() + 1)
    for k, c in f.terms:
        out[-1 - k] = c
    return out


def _gcd_mod_p(f, g, p):
    """A gcd of two nonzero dense polynomials over F_p (Euclid)."""
    while g:
        inv = pow(g[0], -1, p)
        f = list(f)
        while len(f) >= len(g):
            q = f[0] * inv % p
            for i in range(1, len(g)):
                f[i] = (f[i] - q * g[i]) % p
            del f[0]
            while f and not f[0]:
                del f[0]
        f, g = g, f
    return f


def _scaled_mod_p(m):
    """DΦ mod p for Φ = m over QQ, in grevlex F_p[x] (a height does not
    depend on the monomial order, so take the cheap one).

    DΦ (`integer_rows`) has the minors of Φ up to units, which
    `_certified_height` takes mod p."""
    ring_p = PolyRing(m.ring.variables, _MOD_P_FIELD, _allow_small=True)
    return HomogeneousMatrix(
        GradedFreeModule(ring_p, m.target.twists),
        GradedFreeModule(ring_p, m.source.twists),
        [[ring_p.from_keys(f) for f in row] for row in integer_rows(m.entries, 0)[1]],
    )


def submaximal_height(P):
    """Height of I_{t-1}(Φ); +inf for t = 1 (empty minors, unit ideal)."""
    if P.t == 1:
        return math.inf
    return _minors_height(P, P.t - 1)


#: the fields of a report, in the order of its repr
_REPORT_FIELDS = ("expected_codim", "actual_height", "submaximal_height", "is_standard",
                  "is_good", "empty_scheme", "t", "r")


class ClassificationReport:
    """The verdict of `classify` on a presentation P.

    `submaximal_height` is computed on first read and then kept.  `is_good`
    reads it only when P is standard and its goodness is not certified by
    containment.  Equality, hash and repr read every field, and fields
    cannot be assigned, as on a frozen dataclass of them.
    """

    def __init__(self, P, actual_height, contained):
        expected = P.r + 1
        vars(self).update(
            _presentation=P,
            _contained=contained,  # I_{t-1}(P) contains an ideal of height r+2
            expected_codim=expected,
            actual_height=actual_height,
            is_standard=actual_height == expected,
            empty_scheme=actual_height >= P.ring.nvars,
            t=P.t,
            r=P.r,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a verdict")

    @cached_property
    def submaximal_height(self):
        return submaximal_height(self._presentation)

    @property
    def is_good(self):
        return self.is_standard and (
            self._contained or self.submaximal_height >= self.r + 2
        )

    def _fields(self):
        return tuple(getattr(self, name) for name in _REPORT_FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "ClassificationReport({})".format(", ".join(
            f"{name}={value!r}" for name, value in zip(_REPORT_FIELDS, self._fields())
        ))


#: a verdict weighs the terms of the matrix that keys it
_CLASSIFY_CACHE = Memo(MATRIX_BUDGET)


def classify(P, _parent=None):
    """Deterministic standard/good verdict.

    Standardness is ht I_t(P) = r+1, an exact height certified or computed
    by `_minors_height`.  Goodness of a standard P needs ht I_{t-1}(P) >=
    r+2 (always true for t = 1), which the report computes on first read.
    Augmentation and flags pass as `_parent` the verdict of the matrix Φ
    they extend.  When P extends Φ by one row (`extends_by_one_row`) and
    that verdict certifies Φ standard, I_{t-1}(P) contains I_t(Φ), of
    height r(Φ)+1 = r+2, so P is good exactly when it is standard and its
    submaximal height is never computed unless read (Bruns and Vetter,
    *Determinantal Rings*, LNM 1327, section 2).

    Only the verdict is memoized.  The minors and bases it needs are read
    from their tables when present but not added to them, so verdicts on
    throwaway candidates (augmentation retries, flag stages) pin no ideals.
    A standard verdict, fresh or from the table, also marks P's matrix
    (`HomogeneousMatrix.standard`), whose piece ranks are then read off its
    Buchsbaum-Rim terms (`grading.piece_rank`).
    """
    report = _CLASSIFY_CACHE.get(P)
    if report is None:
        contained = (
            _parent is not None
            and _parent.is_standard
            and extends_by_one_row(P, _parent._presentation)
        )
        report = ClassificationReport(P, _minors_height(P, P.t), contained)
        _CLASSIFY_CACHE.put(P, report, terms(*P.matrix.entries))
    if report.is_standard:
        P.matrix.standard = True
    return report


# -- generalized rows ------------------------------------------------------------------

#: seeded random row combinations, and over QQ the coefficients of random
#: rows and completions, have integer entries in [-_COEFF_BOUND, _COEFF_BOUND]
_COEFF_BOUND = 10
#: seeded random combinations `find_generalized_row` tries after the literal rows
_WITNESS_TRIALS = 32
#: seeded random rows `augment_general_row` tries before it gives up
_AUGMENT_RETRIES = 8


@dataclass(frozen=True)
class GeneralizedRowWitness:
    """A deleted generalized row: the combination, its seed, and a verdict.

    The kept complement is a seeded random invertible completion inside the
    twist block of the combination, so the witness reproduces exactly.
    `literal_row` is set when the combination is a unit vector deleted
    against the literal complement.
    """

    row_combination: tuple
    seed: object
    verified: bool
    literal_row: object = None


def delete_row(P, i):
    """Literal deletion of row i (complement rows kept verbatim)."""
    m = _unwrap(P)
    if not 0 <= i < m.nrows:
        raise InputError(f"row index {i} out of range")
    rows = [m.entries[k] for k in range(m.nrows) if k != i]
    twists = tuple(tw for k, tw in enumerate(m.target.twists) if k != i)
    target = GradedFreeModule(m.ring, twists)
    return HomogeneousMatrix(target, m.source, rows)


def _twist_block(P, combination):
    m = _unwrap(P)
    support = [i for i, c in enumerate(combination) if c]
    if not support:
        raise InputError("generalized row combination must be nonzero")
    tw = m.target.twists[support[0]]
    if any(m.target.twists[i] != tw for i in support):
        raise InputError("generalized row must combine rows of equal twist")
    block = [i for i, w in enumerate(m.target.twists) if w == tw]
    return block, tw


def generalized_deletion(P, combination, seed=0):
    """Delete the generalized row `combination` of Φ.

    Rows outside the combination's twist block are kept verbatim; inside the
    block an invertible change of basis with the combination as last row is
    drawn from the seeded source, and the other block rows are kept.
    """
    m = _unwrap(P)
    field = m.ring.field
    if len(combination) != m.nrows:
        raise InputError("combination length must equal the row count")
    block, tw = _twist_block(P, combination)
    c_block = [field.from_int(combination[i]) if isinstance(combination[i], int) else combination[i] for i in block]
    b = len(block)
    rng = random.Random(seed)
    for _ in range(64):
        top = [
            [field.random(rng, _COEFF_BOUND) for _ in range(b)] for _ in range(b - 1)
        ]
        rows_t = top + [list(c_block)]
        if _invertible(rows_t, field):
            break
    else:
        raise VerificationError("could not complete the combination to a basis")
    kept_rows = []
    kept_twists = []
    for i in range(m.nrows):
        if i not in block:
            kept_rows.append(list(m.entries[i]))
            kept_twists.append(m.target.twists[i])
    for w in top:
        row = []
        for j in range(m.ncols):
            acc = m.ring.zero()
            for k, i in enumerate(block):
                if not field.is_zero(w[k]):
                    acc = acc + m.entries[i][j].scale(w[k])
            row.append(acc)
        kept_rows.append(row)
        kept_twists.append(tw)
    target = GradedFreeModule(m.ring, tuple(kept_twists))
    return HomogeneousMatrix(target, m.source, kept_rows)


def _invertible(rows, field):
    """Is the square matrix of field elements `rows` invertible?"""
    n = len(rows)
    cols = [{i: rows[i][j] for i in range(n)} for j in range(n)]
    return rank_of_columns(cols, field) == n


def _verify_deletion(P, deleted):
    """Deleted (t-1)-row matrix leaves maximal minors of height r+2?"""
    if deleted.nrows == 0:
        return True, math.inf
    ht = height(minors(deleted, deleted.nrows))
    return ht >= P.r + 2, ht


def find_generalized_row(P, seed=0):
    """Search for a verified generalized-row witness on a good presentation.

    Literal rows are tried first, then seeded random combinations.  This is
    Monte Carlo: returning None after `_WITNESS_TRIALS` failures does not
    refute goodness (the deterministic verdict belongs to classify).
    """
    report = classify(P)
    if not report.is_good:
        raise InputError("find_generalized_row requires a good presentation")
    if P.t == 1:
        return GeneralizedRowWitness((1,), None, True, literal_row=0)
    for i in range(P.t):
        ok, _ = _verify_deletion(P, delete_row(P, i))
        if ok:
            combo = tuple(1 if k == i else 0 for k in range(P.t))
            return GeneralizedRowWitness(combo, None, True, literal_row=i)
    rng = random.Random(seed)
    twist_values = []
    for tw in _unwrap(P).target.twists:
        if tw not in twist_values:
            twist_values.append(tw)
    for trial in range(_WITNESS_TRIALS):
        tw = twist_values[trial % len(twist_values)]
        combo = [
            rng.randint(-_COEFF_BOUND, _COEFF_BOUND) if w == tw else 0
            for w in _unwrap(P).target.twists
        ]
        support = sum(1 for c in combo if c)
        block_size = sum(1 for w in _unwrap(P).target.twists if w == tw)
        if support == 0 or (block_size >= 2 and support < 2):
            continue  # prefer combinations that genuinely mix rows
        deletion_seed = rng.randrange(2**32)
        try:
            deleted = generalized_deletion(P, tuple(combo), deletion_seed)
        except VerificationError:
            continue
        ok, _ = _verify_deletion(P, deleted)
        if ok:
            return GeneralizedRowWitness(tuple(combo), deletion_seed, True)
    return None


# -- augmentation, flags, section sequences -------------------------------------------------


def default_augmentation_twist(P):
    """Row twist making new entry degrees match the per-column maxima."""
    m = _unwrap(P)
    candidates = []
    for j in range(m.ncols):
        degs = [
            m.entry(i, j).homogeneous_degree()
            for i in range(m.nrows)
            if not m.entry(i, j).is_zero()
        ]
        if degs:
            candidates.append(m.source.twists[j] - max(degs))
    if not candidates:
        return min(m.source.twists, default=0)
    return min(candidates)


def augment_general_row(P, row_twist=None, seed=0):
    """Append a seeded random general row; verified good of codimension r.

    The augmented matrix is (t+1) x (t+r), so its expected codimension drops
    by one; generic rows achieve it, and the construction retries with fresh
    randomness before giving up.
    """
    return _augment(P, classify(P), row_twist, seed)[0]


def _augment(P, report, row_twist=None, seed=0):
    """`augment_general_row` given P's verdict; returns the candidate and its
    verdict, which is certified good by containment when P is standard."""
    if P.r < 1:
        raise InputError("cannot augment a square presentation (codimension 1)")
    m = _unwrap(P)
    ring = m.ring
    if row_twist is None:
        row_twist = default_augmentation_twist(P)
    degrees = [tw - row_twist for tw in m.source.twists]
    if any(d < 0 for d in degrees):
        raise InputError("augmentation row twist forces a negative entry degree")
    rng = random.Random(seed)
    last_report = None
    for _ in range(_AUGMENT_RETRIES):
        new_row = [random_homogeneous(ring, d, rng, _COEFF_BOUND) for d in degrees]
        target = GradedFreeModule(ring, m.target.twists + (row_twist,))
        psi = HomogeneousMatrix(target, m.source, list(m.entries) + [new_row])
        candidate = DeterminantalPresentation(psi)
        last_report = classify(candidate, report)
        if last_report.is_good:
            return candidate, last_report
    raise VerificationError(
        f"augmentation failed after {_AUGMENT_RETRIES} attempts (last report: {last_report})"
    )


def extends_by_one_row(psi, phi):
    """Is psi the matrix phi with one more row appended, entry for entry?

    Then I_{t+1}(psi) ⊆ I_t(phi) for t the row count of phi: expanding a
    maximal minor of psi along its last row writes it as a combination of
    maximal minors of phi.
    """
    a, b = _unwrap(psi), _unwrap(phi)
    return (
        a.nrows == b.nrows + 1
        and a.source == b.source
        and a.target.twists[:-1] == b.target.twists
        and a.entries[:-1] == b.entries
    )


@dataclass(frozen=True)
class FlagStage:
    presentation: DeterminantalPresentation
    report: ClassificationReport
    containment_ok: bool  # I(this stage) inside I(previous stage), structurally


@dataclass(frozen=True)
class FlagResult:
    """Chain of good presentations of codimensions r+1, r, ..., 1."""

    stages: tuple
    seed: int

    @property
    def codims(self):
        return tuple(stage.report.expected_codim for stage in self.stages)

    @property
    def all_good(self):
        return all(stage.report.is_good for stage in self.stages)

    @property
    def containments_ok(self):
        return all(stage.containment_ok for stage in self.stages)


def build_flag(P, seed=0):
    """Augment repeatedly down to codimension one, verifying every stage.

    Each stage's containment in the previous one is certified by
    `extends_by_one_row`, which needs no Groebner basis, and so is its
    goodness (`classify`): every stage is standard, so no stage's
    submaximal height is computed.  The stages after P are seeded random
    matrices that will not recur, so classify leaves their minors and bases
    out of the memo tables.
    """
    report = classify(P)
    if not report.is_good:
        raise InputError("build_flag requires a good presentation")
    rng = random.Random(seed)
    stages = [FlagStage(P, report, True)]
    current = P
    while current.r > 0:
        nxt, report = _augment(current, report, seed=rng.randrange(2**32))
        stages.append(FlagStage(nxt, report, extends_by_one_row(nxt, current)))
        current = nxt
    return FlagResult(tuple(stages), seed)


@dataclass(frozen=True)
class SectionSequence:
    """Verified data of 0 -> (R/I_S)(-a) -> M_S -> M_X -> 0."""

    twist: int
    degrees: tuple
    hf_rows: tuple  # (d, HF(M_S, d), HF(R/I_S, d - a), HF(M_X, d))
    deleted_matrix: HomogeneousMatrix

    @property
    def additivity_ok(self):
        return all(hs == hq + hx for _, hs, hq, hx in self.hf_rows)


def section_sequence(psi, deleted_row, d_max=None):
    """Delete a (generalized) row of a good presentation and certify the
    degreewise Hilbert-function additivity of the induced section sequence.

    Both verdicts certify the expected heights, so Buchsbaum-Rim resolves
    both cokernels and Eagon-Northcott resolves R/I_S, in every
    characteristic (Eisenbud, *Commutative Algebra*, A2.6): the three
    Hilbert functions are read off their terms (`resolution_hilbert_function`),
    and no minor, basis or piece is computed.
    """
    rep_s = classify(psi)
    if not rep_s.is_good:
        raise InputError("section_sequence requires a good presentation")
    m = psi.matrix
    if d_max is None:
        d_max = matrix_truncation_bound(m)
    if isinstance(deleted_row, GeneralizedRowWitness):
        if deleted_row.literal_row is not None:
            idx = deleted_row.literal_row
            deleted = delete_row(psi, idx)
            twist = m.target.twists[idx]
        else:
            deleted = generalized_deletion(
                psi, deleted_row.row_combination, deleted_row.seed or 0
            )
            _, twist = _twist_block(psi, deleted_row.row_combination)
    else:
        idx = int(deleted_row)
        deleted = delete_row(psi, idx)
        twist = m.target.twists[idx]
    phi = DeterminantalPresentation(deleted)
    rep_x = classify(phi)
    if not (rep_x.is_standard and rep_x.expected_codim == rep_s.expected_codim + 1):
        raise VerificationError(
            "row deletion does not produce a standard presentation of codimension "
            f"{rep_s.expected_codim + 1} (got {rep_x})"
        )
    rows = tuple(_section_rows(m, deleted, twist, range(d_max + 1)))
    for d, hs, hq, hx in rows:
        if hs != hq + hx:
            raise VerificationError(
                f"Hilbert additivity fails in degree {d}: {hs} != {hq} + {hx}",
                degree=d,
            )
    return SectionSequence(twist, tuple(range(d_max + 1)), rows, deleted)


def _section_rows(m, deleted, twist, degrees):
    """(d, HF(coker m, d), HF(R/I_t(m), d - twist), HF(coker deleted, d)) for
    each d in degrees, read off the BR, EN and BR terms, which resolve those
    modules when m and deleted are both standard."""
    hf = resolution_hilbert_function
    br_s, en_s, br_x = br_terms(m)[1], en_terms(m)[1], br_terms(deleted)[1]
    for d in degrees:
        yield d, hf(br_s, d), hf(en_s, d - twist), hf(br_x, d)

