"""Minors, the standard/good classifier, and row surgery.

A t x (t+r) homogeneous matrix presents a determinantal scheme through its
ideal of maximal minors.  The scheme is *standard* when that ideal has the
expected height r+1 and *good* when moreover some generalized row (a row
after an invertible change of row basis) can be deleted leaving maximal
minors of height r+2.  Goodness is decided deterministically from the height
of the submaximal-minor ideal; the randomized witness search only produces
certificates and can never misclassify.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, VerificationError
from .grading import (
    Coker,
    GradedFreeModule,
    HomogeneousMatrix,
    hilbert_function,
    matrix_from_strings,
    matrix_truncation_bound,
)
from .field import GF
from .groebner import IdealBasis, ensure_gb, height, hilbert_basis, normal_form, stored_basis
from .linalg import Laplace, rank_of_columns
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


def minors(mat_or_pres, s, memo=True):
    """IdealBasis of all s x s minors (zero determinants dropped).

    With memo=False the table is read but not written (see ensure_gb).
    """
    m = _unwrap(mat_or_pres)
    if s < 1 or s > min(m.nrows, m.ncols):
        raise InputError(f"minor size {s} out of range for {m.nrows}x{m.ncols}")
    hit = _MINORS_CACHE.get((m, s))
    if hit is not None:
        return hit
    ring = m.ring
    laplace = Laplace(m.entries, ring)
    gens = []
    for rows in combinations(range(m.nrows), s):
        for cols in combinations(range(m.ncols), s):
            det = laplace.det(rows, cols)
            if not det.is_zero():
                gens.append(det)
    result = IdealBasis(ring, tuple(gens))
    return _MINORS_CACHE.put((m, s), result, terms(result)) if memo else result


#: the field of the mod-p lower bound on heights over QQ
_HEIGHT_FIELD = GF(32003)


def _minors_height(P, s):
    """Height of I_s(Φ), leaving no minors or basis in the memo tables.

    Cheapest route first: a basis already in the memo tables; over QQ, the
    mod-p certificate of `_certified_height`; else the full Groebner basis,
    in grevlex whatever the ring's order (`hilbert_basis`): a height depends
    only on the Hilbert function.
    """
    m = _unwrap(P)
    stored = _MINORS_CACHE.get((m, s))
    gb = None if stored is None else stored_basis(stored)
    if gb is None:
        ht = _certified_height(m, s)
        if ht is not None:
            return ht
        gb = hilbert_basis(minors(m, s, memo=False), memo=False)
    return height(gb)


def _certified_height(m, s):
    """ht I_s(m) over QQ when a lower bound mod p meets the upper bound.

    When every s-minor has positive degree, I_s is proper and its height is
    at most (t-s+1)(ncols-s+1) (Eagon-Northcott) and at most nvars.  Rows
    scaled to integers have s-minors that are nonzero integer multiples of
    the minors over QQ, and their images J_p mod p span each degree piece
    with rank at most the rank over QQ.  So HF(R_p/J_p) >= HF(R/I_s) in
    every degree and ht J_p <= ht I_s, for every prime.  Returns None when
    the two bounds differ or the field is not QQ.
    """
    ring = m.ring
    if ring.field.characteristic:
        return None
    rows, cols = sorted(m.target.twists), sorted(m.source.twists)
    if sum(cols[:s]) <= sum(rows[-s:]):
        return None  # a minor of degree 0 may be a unit
    upper = min((m.nrows - s + 1) * (m.ncols - s + 1), ring.nvars)
    # heights do not depend on the monomial order, so take the cheap grevlex
    ring_p = PolyRing(ring.variables, _HEIGHT_FIELD, _allow_small=True)
    grid = []
    for row in m.entries:
        den = math.lcm(*[c.denominator for f in row for _, c in f.terms])
        grid.append([
            ring_p.from_keys(
                {mm.key: c.numerator * (den // c.denominator) for mm, c in f.terms}
            )
            for f in row
        ])
    m_p = HomogeneousMatrix(
        GradedFreeModule(ring_p, m.target.twists),
        GradedFreeModule(ring_p, m.source.twists),
        grid,
    )
    lower = height(ensure_gb(minors(m_p, s, memo=False), memo=False))
    return upper if lower == upper else None


def submaximal_height(P):
    """Height of I_{t-1}(Φ); +inf for t = 1 (empty minors, unit ideal)."""
    if P.t == 1:
        return math.inf
    return _minors_height(P, P.t - 1)


@dataclass(frozen=True)
class ClassificationReport:
    expected_codim: int
    actual_height: float
    submaximal_height: float
    is_standard: bool
    is_good: bool
    empty_scheme: bool
    t: int
    r: int
    witness: object = None


#: a verdict weighs the terms of the matrix that keys it
_CLASSIFY_CACHE = Memo(MATRIX_BUDGET)


def classify(P):
    """Deterministic standard/good verdict from two exact heights.

    Each height is certified or computed by `_minors_height`.  Only the
    verdict is memoized.  The minors and bases it needs are read
    from their tables when present but not added to them, so verdicts on
    throwaway candidates (augmentation retries, flag stages) pin no ideals.
    """
    hit = _CLASSIFY_CACHE.get(P)
    if hit is not None:
        return hit
    expected = P.r + 1
    ht = _minors_height(P, P.t)
    sub_ht = submaximal_height(P)
    nvars = P.ring.nvars
    is_standard = ht == expected
    is_good = is_standard and (P.t == 1 or sub_ht >= P.r + 2)
    empty = ht >= nvars
    report = ClassificationReport(
        expected, ht, sub_ht, is_standard, is_good, empty, P.t, P.r
    )
    return _CLASSIFY_CACHE.put(P, report, terms(*P.matrix.entries))


# -- generalized rows ------------------------------------------------------------------


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


def generalized_deletion(P, combination, seed=0, bound=10):
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
            [field.random(rng, bound) for _ in range(b)] for _ in range(b - 1)
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


def find_generalized_row(P, seed=0, trials=32, bound=10):
    """Search for a verified generalized-row witness on a good presentation.

    Literal rows are tried first, then seeded random combinations.  This is
    Monte Carlo: returning None after `trials` failures does not refute
    goodness (the deterministic verdict belongs to classify).
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
    for trial in range(trials):
        tw = twist_values[trial % len(twist_values)]
        combo = [
            rng.randint(-bound, bound) if w == tw else 0
            for w in _unwrap(P).target.twists
        ]
        support = sum(1 for c in combo if c)
        block_size = sum(1 for w in _unwrap(P).target.twists if w == tw)
        if support == 0 or (block_size >= 2 and support < 2):
            continue  # prefer combinations that genuinely mix rows
        deletion_seed = rng.randrange(2**32)
        try:
            deleted = generalized_deletion(P, tuple(combo), deletion_seed, bound)
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


def augment_general_row(P, row_twist=None, seed=0, retries=8, bound=10):
    """Append a seeded random general row; verified good of codimension r.

    The augmented matrix is (t+1) x (t+r), so its expected codimension drops
    by one; generic rows achieve it, and the construction retries with fresh
    randomness before giving up.
    """
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
    for _ in range(retries):
        new_row = [random_homogeneous(ring, d, rng, bound) for d in degrees]
        target = GradedFreeModule(ring, m.target.twists + (row_twist,))
        psi = HomogeneousMatrix(target, m.source, list(m.entries) + [new_row])
        candidate = DeterminantalPresentation(psi)
        report = classify(candidate)
        last_report = report
        if report.is_good:
            return candidate
    raise VerificationError(
        f"augmentation failed after {retries} attempts (last report: {last_report})"
    )


def ideal_contained(A, B):
    """A ⊆ B via normal forms against the reduced GB of B."""
    gb = ensure_gb(B)
    return all(normal_form(g, gb).is_zero() for g in A.generators if not g.is_zero())


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
    `extends_by_one_row`, which needs no Groebner basis.  The stages after P
    are seeded random matrices that will not recur, so classify leaves
    their minors and bases out of the memo tables.
    """
    report = classify(P)
    if not report.is_good:
        raise InputError("build_flag requires a good presentation")
    rng = random.Random(seed)
    stages = [FlagStage(P, report, True)]
    current = P
    while current.r > 0:
        nxt = augment_general_row(current, seed=rng.randrange(2**32))
        stages.append(FlagStage(nxt, classify(nxt), extends_by_one_row(nxt, current)))
        current = nxt
    return FlagResult(tuple(stages), seed)


@dataclass(frozen=True)
class SectionSequence:
    """Verified data of 0 -> (R/I_S)(-a) -> M_S -> M_X -> 0."""

    ideal_s: IdealBasis
    ideal_x: IdealBasis
    twist: int
    degrees: tuple
    hf_rows: tuple  # (d, HF(M_S, d), HF(R/I_S, d - a), HF(M_X, d))
    deleted_matrix: HomogeneousMatrix

    @property
    def additivity_ok(self):
        return all(hs == hq + hx for _, hs, hq, hx in self.hf_rows)


def section_sequence(psi, deleted_row, d_max=None):
    """Delete a (generalized) row of a good presentation and certify the
    degreewise Hilbert-function additivity of the induced section sequence."""
    ideal_s = minors(psi, psi.t, memo=False)
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
    ideal_x = minors(phi, phi.t)
    # one basis of the throwaway I_S for every degree, stored in no table
    basis_s = hilbert_basis(ideal_s, memo=False)
    rows = []
    for d in range(d_max + 1):
        hs = hilbert_function(Coker(m), d)
        hq = hilbert_function(basis_s, d - twist)
        hx = hilbert_function(Coker(deleted), d)
        rows.append((d, hs, hq, hx))
        if hs != hq + hx:
            raise VerificationError(
                f"Hilbert additivity fails in degree {d}: {hs} != {hq} + {hx}",
                degree=d,
            )
    return SectionSequence(
        ideal_s,
        ideal_x,
        twist,
        tuple(range(d_max + 1)),
        tuple(rows),
        deleted,
    )

