"""Reference oracles for the annihilator check.

`verify_annihilator` is the block-echelon check that the column-module
normal forms replaced, kept verbatim from before that change: in every
degree it stacks one copy of Φ's image piece per target generator into a
block-diagonal echelon and counts ranks there.  The differential tests
assert that the package's reports equal these.

`fitting_failure` is the half of the check that Fitting's lemma made a
theorem: one normal form per maximal minor and target generator, as the
package computed it before, modulo the idealization for every row count.

`idealization_verify_annihilator` is the package's normal-form check as it
was before a one-row column module became its ideal of entries: the module
is `IdealizationModule`, Nagata's idealization in R[e_1..e_g] for every row
count g, one as well, built with no pair skipped.
"""

from __future__ import annotations

from detschemes.complexes import AnnihilatorReport
from detschemes.determinantal import classify, en_terms, minors, resolution_hilbert_function
from detschemes.errors import InputError
from detschemes.grading import matrix_piece
from detschemes.groebner import (
    _aux_ring,
    _lift,
    buchberger,
    ensure_gb,
    quotient_hilbert_function,
)
from detschemes.linalg import echelon
from groebner_reference import normal_form


class IdealizationModule:
    """The column span of a matrix as the idealization
    J = (sum_i v_i e_i : columns v) + (e_i e_k : i <= k) in R[e_1..e_g]."""

    def __init__(self, phi):
        g = phi.nrows
        aux, first = _aux_ring(phi.ring, g)
        self.unit = [tuple(int(i == k) for k in range(g)) for i in range(g)]
        e = [aux.variable(first + i) for i in range(g)]
        gens = [e[i] * e[k] for i in range(g) for k in range(i, g)]
        for col in phi.columns():
            gens.append(sum((_lift(p, aux, self.unit[i]) for i, p in enumerate(col)), aux.zero()))
        self.basis = buchberger(gens, aux)

    def normal_form(self, p, j):
        return normal_form(_lift(p, self.basis.ring, self.unit[j]), self.basis)


def idealization_verify_annihilator(P, d_max=8):
    """Ann(coker Φ) ⊆ I_t(Φ) degreewise up to d_max: dim (R/Ann)_d is the
    rank of μ ↦ (NF(μ e_j))_j over the monomials μ of degree d, compared
    with the Eagon-Northcott count of dim (R/I_t)_d."""
    if not classify(P).is_standard:
        raise InputError("verify_annihilator requires a standard presentation")
    ring, t = P.ring, P.t
    module = IdealizationModule(P.matrix)
    quotient_terms = en_terms(P.matrix)[1]
    for d in range(d_max + 1):
        span = echelon(ring.field)
        index = {}
        for mu in ring.monomials_of_degree(d):
            mono = ring.from_keys({mu: ring.field.one})
            span.insert({
                index.setdefault((k, j), len(index)): c
                for j in range(t)
                for k, c in module.normal_form(mono, j).terms
            })
        if span.rank != resolution_hilbert_function(quotient_terms, d):
            return AnnihilatorReport(False, d_max, d, "annihilator-inside-minors")
    return AnnihilatorReport(True, d_max)


def verify_annihilator(P, d_max=8):
    """Check Ann(coker Φ) = I(Φ) degreewise up to d_max.

    A form f of degree d multiplies every target generator e_j into the
    image iff the column (f e_j)_j lies in the span of Φ's pieces in degrees
    d + a_j, one block per j.  In each degree, every maximal minor of that
    degree must add nothing to the span ("minors-annihilate").  The monomial
    columns (μ e_j)_j that raise its rank then number dim (R/Ann)_d; all
    minors of degree <= d have passed, so I_d ⊆ Ann_d, and the two are equal
    iff that count is dim (R/I)_d ("annihilator-inside-minors").  Degrees
    past d_max are visited only for the minors that live there.
    """
    ideal = minors(P, P.t)
    gb = ensure_gb(ideal)  # before classify, which reads but does not store it
    if not classify(P).is_standard:
        raise InputError("verify_annihilator requires a standard presentation")
    phi = P.matrix
    ring = phi.ring
    targets = range(phi.nrows)
    by_degree = {}
    for g in ideal.generators:
        if not g.is_zero():
            by_degree.setdefault(g.homogeneous_degree(), []).append(g)

    for d in sorted(set(range(d_max + 1)).union(by_degree)):
        span = echelon(ring.field)
        rows = {}  # (j, monomial of degree d) -> its row in block j
        offset = 0
        for j in targets:
            piece = matrix_piece(phi, d + phi.target.twists[j])
            for col in piece.cols:
                span.insert({offset + r: c for r, c in col.items()})
            for i, item in enumerate(piece.row_basis):
                if item[0] == j:
                    rows[item] = offset + i
            offset += piece.nrows
        for g in by_degree.get(d, ()):
            column = {rows[(j, m)]: c for j in targets for m, c in g.terms}
            if span.insert(column) is None:  # a new pivot: g e_j leaves the image
                return AnnihilatorReport(False, d_max, d, "minors-annihilate")
        if d > d_max:
            continue
        base = span.rank
        for mu in ring.monomials_of_degree(d):
            span.insert({rows[(j, mu)]: ring.field.one for j in targets})
        if span.rank - base != quotient_hilbert_function(gb, d):
            return AnnihilatorReport(False, d_max, d, "annihilator-inside-minors")
    return AnnihilatorReport(True, d_max)


def fitting_failure(P, gens=None):
    """The lowest degree of a form in `gens` (by default the maximal minors
    of P) that does not annihilate coker Φ, else None.

    f annihilates iff the normal form of f e_j modulo the column module
    vanishes for every target generator e_j.  Fitting's lemma says that
    every maximal minor does.
    """
    if gens is None:
        gens = minors(P, P.t).generators
    module = IdealizationModule(P.matrix)
    outside = [
        g.homogeneous_degree()
        for g in gens
        if any(not module.normal_form(g, j).is_zero() for j in range(P.t))
    ]
    return min(outside, default=None)
