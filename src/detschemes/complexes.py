"""Eagon-Northcott and Buchsbaum-Rim complexes with explicit differentials.

For a homogeneous map Φ: F -> G with rank F = f, rank G = g <= f, bases are
indexed explicitly: exterior powers by sorted index tuples, dual symmetric
powers by exponent multisets (the basis dual to monomials, so contraction
carries no multinomial coefficients).  The builders accept coefficient
fields of characteristic 0 or p > f - g + 1 and refuse the others.

Term shapes:

    EN:  0 -> ∧^f F ⊗ (S^{f-g}G)^∨ ⊗ ∧^g G^∨ -> ... -> ∧^g F ⊗ ∧^g G^∨ -> R
    BR:  0 -> ∧^f F ⊗ (S^{f-g-1}G)^∨ ⊗ ∧^g G^∨ -> ... -> ∧^{g+1}F ⊗ ∧^g G^∨
            -> F -> G

The terms and their index sets come from `grading.en_terms` and
`br_terms`, which section sequences, canonical modules and certified piece
ranks also read Hilbert functions off.  The first EN differential is the
list of maximal minors; the map of BR into F expands (g+1)-column index
sets into signed maximal minors; all higher differentials are one
contraction against Φ, and the canonical module builds only the last EN
one.  Acyclicity is certified by the
Buchsbaum-Eisenbud rank/height criterion (grade equals height here: the
ambient polynomial ring is Cohen-Macaulay).  d∘d = 0 is checked once per
complex, and the verdict is stored on it.  Ranks are proved from d∘d = 0:
upper bounds come from the right end of the complex, a seeded evaluation
gives a lower bound, and only when the two differ does the exact search
of `rank_of_map` run, so no random step decides a verdict.  Heights come
from `determinantal._minors_height`, as the classifier's do.  The
acyclicity verdict is stored on the complex too, and the degreewise
exactness check and the Betti table of a certified complex read it.  The
annihilator check computes only Ann(coker Φ) ⊆ I_t(Φ), the converse being
Fitting's lemma, and reads dim (R/I_t)_d off the EN terms: nothing for one
row, where Ann = I_1; over QQ a mod-p rank certificate first; else, and
over F_p, ranks of normal forms modulo the column module.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from . import grading
from .determinantal import (
    _minors_height,
    _scaled_mod_p,
    _unwrap,
    br_terms,
    classify,
    en_terms,
    resolution_hilbert_function,
)
from .errors import InputError, VerificationError
from .grading import GradedFreeModule, HomogeneousMatrix, matrix_piece, matrix_truncation_bound
from .groebner import ColumnModuleGB
from .linalg import Laplace, echelon, rank_of_columns


@dataclass(frozen=True)
class FreeComplex:
    """Chain F_0 <- F_1 <- ... <- F_l of graded free modules.

    differentials[k] is d_{k+1}: F_{k+1} -> F_k; compositions of consecutive
    differentials must vanish identically (see verify_complex).
    """

    modules: tuple
    differentials: tuple
    tag: str = "custom"
    # verify_complex's verdict, computed on first use
    _dd_zero: bool = dataclasses.field(default=None, init=False, repr=False, compare=False)
    # buchsbaum_eisenbud's verdict, stored when it runs
    _acyclic: bool = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @property
    def length(self):
        return len(self.differentials)

    @property
    def ranks(self):
        return tuple(m.rank for m in self.modules)

    def alternating_rank_sum(self):
        return sum((-1) ** i * m.rank for i, m in enumerate(self.modules))

    def replaced(self, position, differential):
        """Copy with d_position swapped out and no verdict (mutation tests)."""
        diffs = list(self.differentials)
        diffs[position - 1] = differential
        return FreeComplex(self.modules, tuple(diffs), self.tag)


@dataclass(frozen=True)
class ExactnessEntry:
    position: int
    degree: int
    kernel_dim: int
    image_dim: int

    @property
    def exact(self):
        return self.kernel_dim == self.image_dim


@dataclass(frozen=True)
class ExactnessReport:
    entries: tuple

    @property
    def all_exact(self):
        return all(e.exact for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.exact]


def graded_exactness_check(complex_, degrees):
    """Degreewise exactness of a free complex at its interior positions.

    For each position i >= 1 and degree d: dim ker((d_i)_d) must equal
    dim im((d_{i+1})_d); the composition of consecutive differentials must
    already vanish (verify separately) for the report to certify acyclicity.

    A complex that `buchsbaum_eisenbud` certified acyclic is exact in every
    degree, so its piece ranks follow from module dimensions, from the right
    end: rank (d_n)_d = dim (F_n)_d and rank (d_i)_d = dim (F_i)_d -
    rank (d_{i+1})_d.  Any other complex has every piece ranked.
    """
    modules = complex_.modules
    diffs = complex_.differentials
    entries = []
    for d in degrees:
        if complex_._acyclic:
            ranks = [0] * (len(diffs) + 1)
            for i in range(len(diffs), 0, -1):
                ranks[i - 1] = modules[i].dim(d) - ranks[i]
        else:
            # looked up on the module, so a wrapper set there sees every piece
            ranks = [grading.piece_rank(diff, d) for diff in diffs]
        for i in range(1, len(modules)):
            dim_fi = modules[i].dim(d)
            ker_dim = dim_fi - ranks[i - 1]
            im_dim = ranks[i] if i < len(diffs) else 0
            entries.append(ExactnessEntry(i, d, ker_dim, im_dim))
    return ExactnessReport(tuple(entries))


def _check_characteristic(phi):
    """Build complexes of phi: F -> G only in characteristic 0 or p > f - g + 1."""
    p, bound = phi.ring.field.characteristic, phi.ncols - phi.nrows + 1
    if p and p <= bound:
        raise InputError(
            f"characteristic {p} too small for a reliable "
            f"duality of symmetric powers here (need p > {bound})"
        )


def _contraction_matrix(phi, tgt_items, src_items):
    """One contraction against Φ: (S, β) -> Σ ± Φ[k][l] (S∖l, β-ε_k).

    Distinct (l, k) land on distinct rows, so each entry is hit at most
    once per column and is assigned, never summed; every entry of Φ is
    negated once."""
    ring = phi.ring
    zero = ring.zero()
    signed = (phi.entries, [[-p for p in row] for row in phi.entries])
    tgt_index = {item: i for i, item in enumerate(tgt_items)}
    entries = [[zero] * len(src_items) for _ in tgt_items]
    for col, (S, beta) in enumerate(src_items):
        for pos, l in enumerate(S):
            rest = S[:pos] + S[pos + 1 :]
            grid = signed[pos % 2]
            for k, bk in enumerate(beta):
                if bk == 0:
                    continue
                p = grid[k][l]
                if p.is_zero():
                    continue
                beta2 = beta[:k] + (bk - 1,) + beta[k + 1 :]
                entries[tgt_index[(rest, beta2)]][col] = p
    return entries


def eagon_northcott(pres_or_matrix, tag="EN"):
    """The Eagon-Northcott complex of Φ, augmented over R by the minors map."""
    phi = _unwrap(pres_or_matrix)
    g, f = phi.nrows, phi.ncols
    if g < 1:
        raise InputError("Eagon-Northcott needs a target of positive rank")
    if f < g:
        raise InputError("needs at least as many columns as rows")
    _check_characteristic(phi)
    ring = phi.ring
    levels, modules = en_terms(phi)

    diffs = []
    laplace = Laplace(phi.entries, ring)
    first_row = [laplace.det(range(g), S) for (S, _) in levels[0]]
    diffs.append(HomogeneousMatrix(modules[0], modules[1], [first_row]))
    for i in range(1, len(levels)):
        entries = _contraction_matrix(phi, levels[i - 1], levels[i])
        diffs.append(HomogeneousMatrix(modules[i], modules[i + 1], entries))
    return FreeComplex(tuple(modules), tuple(diffs), tag)


def buchsbaum_rim(pres_or_matrix, tag="BR"):
    """The Buchsbaum-Rim complex of Φ, terminating in G.

    For a rank-zero target the complex degenerates to 0 -> F -> F -> 0 with
    the identity in the middle (the empty minor is 1), so free modules are
    their own first Buchsbaum-Rim modules.
    """
    phi = _unwrap(pres_or_matrix)
    g, f = phi.nrows, phi.ncols
    if f < g:
        raise InputError("needs at least as many columns as rows")
    _check_characteristic(phi)
    ring = phi.ring
    levels, modules = br_terms(phi)
    diffs = [phi]
    if levels:
        zero = ring.zero()
        laplace = Laplace(phi.entries, ring)
        entries = [[zero] * len(levels[0]) for _ in range(f)]
        for col, (S, _) in enumerate(levels[0]):
            for pos, l in enumerate(S):
                det = laplace.det(range(g), S[:pos] + S[pos + 1 :])
                if det.is_zero():
                    continue
                entries[l][col] = -det if pos % 2 == 1 else det
        diffs.append(HomogeneousMatrix(modules[1], modules[2], entries))
    for j in range(1, len(levels)):
        entries = _contraction_matrix(phi, levels[j - 1], levels[j])
        diffs.append(HomogeneousMatrix(modules[j + 1], modules[j + 2], entries))
    return FreeComplex(tuple(modules), tuple(diffs), tag)


def koszul(polys, tag="Koszul"):
    """Koszul complex of a sequence of forms: EN of the single-row matrix."""
    ring = polys[0].ring
    twists = []
    for p in polys:
        d = p.homogeneous_degree()
        if not isinstance(d, int):
            raise InputError("Koszul needs nonzero homogeneous forms")
        twists.append(d)
    target = GradedFreeModule(ring, (0,))
    source = GradedFreeModule(ring, tuple(twists))
    phi = HomogeneousMatrix(target, source, [list(polys)])
    return eagon_northcott(phi, tag=tag)


def verify_complex(C):
    """True iff consecutive differentials compose to zero as polynomials.

    The verdict is stored on the (frozen) complex, so later calls, such as
    the one `buchsbaum_eisenbud` makes, cost nothing; `replaced` builds a
    new complex, which is checked afresh.
    """
    if C._dd_zero is None:
        object.__setattr__(C, "_dd_zero", _composes_to_zero(C))
    return C._dd_zero


def _composes_to_zero(C):
    for k in range(len(C.differentials)):
        d = C.differentials[k]
        if d.target.twists != C.modules[k].twists:
            return False
        if d.source.twists != C.modules[k + 1].twists:
            return False
    for k in range(len(C.differentials) - 1):
        if not C.differentials[k].compose(C.differentials[k + 1]).is_zero():
            return False
    return True


# -- acyclicity ---------------------------------------------------------------------


def rank_of_map(phi, seed=0):
    """Largest s with a nonvanishing s x s minor."""
    return _rank_below(phi, min(phi.nrows, phi.ncols), seed)


def _rank_below(phi, upper, seed):
    """The rank of phi, given a proof that it is at most `upper`.

    Seeded evaluations give a certified lower bound (a nonzero scalar minor
    lifts to a nonzero polynomial minor), up to three of them, stopping once
    the bound meets `upper`; an exhaustive search over the next sizes, up to
    `upper`, settles the exact value.
    """
    if upper == 0 or phi.is_zero():
        return 0
    ring = phi.ring
    field = ring.field
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        point = [field.random(rng, 37) for _ in range(ring.nvars)]
        cols = []
        for j in range(phi.ncols):
            col = {}
            for i in range(phi.nrows):
                v = phi.entries[i][j].evaluate(point)
                if not field.is_zero(v):
                    col[i] = v
            cols.append(col)
        best = max(best, rank_of_columns(cols, field))
        if best >= upper:
            return best
    laplace = Laplace(phi.entries, ring)
    while best < upper and _has_nonzero_minor(phi, best + 1, laplace):
        best += 1
    return best


def _has_nonzero_minor(phi, s, laplace):
    for rows in combinations(range(phi.nrows), s):
        for cols in combinations(range(phi.ncols), s):
            if not laplace.det(rows, cols).is_zero():
                return True
    return False


@dataclass(frozen=True)
class AcyclicityEntry:
    position: int
    expected_rank: int
    computed_rank: int
    minor_height: float

    @property
    def rank_ok(self):
        return self.computed_rank == self.expected_rank

    @property
    def height_ok(self):
        return self.minor_height >= self.position

    @property
    def ok(self):
        return self.rank_ok and self.height_ok


@dataclass(frozen=True)
class AcyclicityReport:
    entries: tuple

    @property
    def passed(self):
        return all(e.ok for e in self.entries)


def buchsbaum_eisenbud(C, seed=0):
    """Rank and height conditions per differential; pass iff acyclic.

    Expected ranks come from alternating sums against the left end; each
    differential must attain its expected rank (see `_certified_ranks`) and
    the ideal of minors of that size (`_minors_height`) must have height at
    least the homological position.  The verdict is stored on the (frozen)
    complex, where `graded_exactness_check` and `betti_table` read it.
    """
    if not verify_complex(C):
        raise InputError("buchsbaum_eisenbud requires a complex (d∘d = 0)")
    n = len(C.differentials)
    expected = [0] * (n + 2)
    for i in range(n, 0, -1):
        expected[i] = C.modules[i].rank - expected[i + 1]
    ranks = _certified_ranks(C, seed)
    entries = []
    for i in range(1, n + 1):
        d = C.differentials[i - 1]
        r_i = expected[i]
        if r_i <= 0:
            ht = math.inf if r_i == 0 else 0
        elif r_i > min(d.nrows, d.ncols):
            ht = 0
        else:
            ht = _minors_height(d, r_i)
        entries.append(AcyclicityEntry(i, r_i, ranks[i - 1], ht))
    report = AcyclicityReport(tuple(entries))
    object.__setattr__(C, "_acyclic", report.passed)
    return report


def _certified_ranks(C, seed):
    """[rank d_1, ..., rank d_n] of a complex that passed verify_complex.

    Ranks are proved from the right end.  Since d_i ∘ d_{i+1} = 0, the
    image of d_{i+1} lies in the kernel of d_i, so rank d_i is at most
    rank F_i - rank d_{i+1}.  One seeded evaluation of d_i gives a lower
    bound; when it meets that upper bound the rank is proved, and otherwise
    the exact search of `rank_of_map` finishes the job, stopping at the
    upper bound.  No random step decides a rank.
    """
    ranks, previous = [], 0
    for i in range(len(C.differentials), 0, -1):
        d = C.differentials[i - 1]
        upper = min(d.nrows, d.ncols, C.modules[i].rank - previous)
        previous = _rank_below(d, upper, seed)
        ranks.append(previous)
    return ranks[::-1]


# -- Betti numbers -------------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """(homological position, internal degree) -> generator count."""

    cells: tuple  # ((i, d, count), ...)

    def as_dict(self):
        return {(i, d): c for i, d, c in self.cells}

    def total_ranks(self):
        totals = {}
        for i, _, c in self.cells:
            totals[i] = totals.get(i, 0) + c
        return tuple(totals[i] for i in sorted(totals))

    def alternating_sum(self):
        return sum((-1) ** i * c for i, _, c in self.cells)


def betti_table(C, acyclicity=None, seed=0):
    """Graded Betti numbers read off a minimal acyclic complex.

    Acyclicity is read from `acyclicity` when given, else from the verdict
    stored on C, and `buchsbaum_eisenbud` runs only when there is none.
    """
    if acyclicity is not None:
        acyclic = acyclicity.passed
    elif C._acyclic is not None:
        acyclic = C._acyclic
    else:
        acyclic = buchsbaum_eisenbud(C, seed).passed
    if not acyclic:
        raise VerificationError("betti_table needs an acyclic complex")
    for d in C.differentials:
        for row in d.entries:
            for p in row:
                if not p.is_zero() and p.homogeneous_degree() == 0:
                    raise VerificationError(
                        "complex is not minimal: a differential has a unit entry"
                    )
    cells = []
    for i, module in enumerate(C.modules):
        counts = {}
        for tw in module.twists:
            counts[tw] = counts.get(tw, 0) + 1
        for d in sorted(counts):
            cells.append((i, d, counts[d]))
    return BettiTable(tuple(cells))


def cm_type(P):
    """Cohen-Macaulay type: rank of the last module of the minimal EN resolution.

    That module has one generator per composition of r into t parts (the
    last level of `en_terms`), C(r+t-1, r) of them; nothing is built, so
    every characteristic is accepted.
    """
    if not classify(P).is_standard:
        raise InputError("cm_type requires a standard determinantal presentation")
    return comb(P.r + P.t - 1, P.r)


# -- annihilator of the cokernel ------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorReport:
    passed: bool
    max_degree: int
    failed_degree: object = None
    failed_direction: object = None

    def __bool__(self):
        return self.passed


def verify_annihilator(P, d_max=8):
    """Check Ann(coker Φ) = I_t(Φ) degreewise up to d_max, for standard Φ.

    I_t ⊆ Ann is Fitting's lemma (Eisenbud, *Commutative Algebra*, Prop.
    20.7): for t columns S, Φ_S adj(Φ_S) = det(Φ_S) 1, so det(Φ_S) e_j is
    the image of a column of adj(Φ_S).  Only Ann ⊆ I_t is decided, in each
    degree d through the k-linear map μ ↦ (μ e_j mod Im Φ)_j on the
    monomials μ of degree d: its kernel is Ann_d, so its rank is
    dim (R/Ann)_d, and Ann_d = (I_t)_d iff that is dim (R/I_t)_d.  The
    verdict certifies ht I_t = r + 1, so EN(Φ) resolves R/I_t (Eisenbud,
    Appendix A2.6) and that is the alternating sum of its terms.

    One row needs nothing: coker Φ = (R/I_1)(-a), so Ann = I_1 = I_t in
    every degree.  Over QQ a mod-p rank count decides first
    (`_annihilator_rank_certificate`); where it cannot, and over every F_p,
    the map's rank is that of the normal forms (NF(μ e_j))_j modulo the
    column module (`ColumnModuleGB`) in every degree, and the lowest failing
    degree is reported ("annihilator-inside-minors").
    """
    if not classify(P).is_standard:
        raise InputError("verify_annihilator requires a standard presentation")
    if P.t == 1:
        return AnnihilatorReport(True, d_max)
    ring = P.ring
    quotient_terms = en_terms(P.matrix)[1]
    if not ring.field.characteristic and _annihilator_rank_certificate(
        P.matrix, d_max, quotient_terms
    ):
        return AnnihilatorReport(True, d_max)
    module = P.matrix.column_module  # one a piece rank kept, else built and dropped
    if module is None:
        module = ColumnModuleGB(ring, P.matrix.target.twists, P.matrix.columns())
    forms = module.normal_forms(  # degree by degree, read as the loop goes
        ring.from_keys({mu: ring.field.one})
        for d in range(d_max + 1)
        for mu in ring.monomials_of_degree(d)
    )
    for d in range(d_max + 1):
        span = echelon(ring.field)
        index = {}  # (standard monomial of NF(μ e_j), j) -> dense coordinate
        for row in islice(forms, ring.dim_of_degree(d)):
            span.insert({
                index.setdefault((k, j), len(index)): c
                for j, nf in enumerate(row)
                for k, c in nf.terms
            })
        if span.rank != resolution_hilbert_function(quotient_terms, d):
            return AnnihilatorReport(False, d_max, d, "annihilator-inside-minors")
    return AnnihilatorReport(True, d_max)


def _annihilator_rank_certificate(m, d_max, quotient_terms):
    """True when ranks mod p prove Ann_d = (I_t)_d for every d <= d_max, for
    Φ = m over QQ certified standard; False decides nothing.

    Φ' = DΦ mod p (`_scaled_mod_p`) has integer rows, and DΦ has the image,
    Ann and I_t of Φ.  For each d, and each e = d + a_j, the span U_e of
    the piece (Im Φ')_e, built once for every (d, j) that needs it, must
    have rank dim G_e - BR(e), the rank of Φ_e over QQ
    (`grading.certified_rank`).  Each μ e_j, μ of degree d, is reduced
    against U_{d+a_j} (`linalg.Echelon.reduce`), and the
    concatenated reductions must have rank EN(d) = dim (R/I_t)_d.  Why that
    proves it: the reductions' rank is rank [B | M] - rank B, for B the
    image pieces (one block per j) and M the columns μ e_j.  An integer
    matrix can only lose rank mod p, and rank B is exact, so the count mod p
    is at most the count over QQ, which is dim (R/Ann)_d; and
    dim (R/Ann)_d <= dim (R/I_t)_d = EN(d) by Fitting's lemma, I_t ⊆ Ann.
    Equality with EN(d) forces dim Ann_d = dim (I_t)_d, hence Ann_d = (I_t)_d.
    """
    m_p = _scaled_mod_p(m)
    ring_p = m_p.ring
    spans = {}  # e -> (U_e, dense index of the basis of G_e)
    for d in range(d_max + 1):
        monos = ring_p.monomials_of_degree(d)
        forms = [{} for _ in monos]  # μ -> its reductions, block j at offset j
        offset = 0
        for j, a in enumerate(m.target.twists):
            e = d + a
            if e not in spans:
                piece = matrix_piece(m_p, e)
                span = echelon(ring_p.field)
                for col in piece.cols:
                    span.insert(col)
                if span.rank != grading.certified_rank(m, e):
                    return False
                spans[e] = span, {item: i for i, item in enumerate(piece.row_basis)}
            span, index = spans[e]
            for form, mu in zip(forms, monos):
                for i, c in span.reduce({index[(j, mu)]: 1}).items():
                    form[offset + i] = c
            offset += len(index)
        ranks = echelon(ring_p.field)
        for form in forms:
            ranks.insert(form)
        if ranks.rank != resolution_hilbert_function(quotient_terms, d):
            return False
    return True


# -- codimension-two canonical module --------------------------------------------------


@dataclass(frozen=True)
class CanonicalModule:
    """Presentation of ω as a cokernel, with the aligning twist.

    `shift` is the integer e with ω ≅ (coker Φ)(e), verified through
    Hilbert functions: HF(ω, d) = HF(coker Φ, d + e) on the checked window.
    """

    presentation: HomogeneousMatrix
    shift: int
    cyclic: bool
    degrees: tuple


def canonical_module(P, d_max=None):
    """Present ω of a standard codimension-2 presentation and align it with
    coker Φ.

    ω is the cokernel of the dual of the last Eagon-Northcott differential,
    twisted by nvars; that differential is the only one built.  The verdict
    certifies ht I_t = 2, so R/I_t is perfect and the dual Eagon-Northcott
    complex resolves ω, while Buchsbaum-Rim resolves coker Φ: both Hilbert
    functions are read off those terms.
    """
    report = classify(P)
    if not report.is_standard or P.r != 1:
        raise InputError("canonical_module needs a standard codimension-2 presentation")
    ring = P.ring
    if d_max is None:
        d_max = matrix_truncation_bound(P.matrix)
    _check_characteristic(P.matrix)
    levels, modules = en_terms(P.matrix)
    last = HomogeneousMatrix(
        modules[-2], modules[-1], _contraction_matrix(P.matrix, levels[-2], levels[-1])
    )
    omega = last.transpose_dual().shifted(ring.nvars)
    coker_terms = br_terms(P.matrix)[1]
    omega_terms = [F.dual().shifted(ring.nvars) for F in reversed(modules)]

    def first_nonzero(modules, start):
        for d in range(start, start + 64):
            if resolution_hilbert_function(modules, d) > 0:
                return d
        raise VerificationError("module appears to vanish; no aligning twist")

    d0_x = first_nonzero(coker_terms, min(P.matrix.target.twists))
    d0_w = first_nonzero(omega_terms, min(omega.target.twists))
    e = d0_x - d0_w
    degrees = []
    for k in range(d_max + 1):
        hx = resolution_hilbert_function(coker_terms, k)
        hw = resolution_hilbert_function(omega_terms, k - e)
        if hx != hw:
            raise VerificationError(
                f"canonical-module Hilbert functions disagree in degree {k}: "
                f"{hx} != {hw}",
                degree=k,
            )
        degrees.append(k)
    return CanonicalModule(omega, e, omega.target.rank == 1, tuple(degrees))
