"""Reference oracle: section-sequence and canonical-module Hilbert functions
as computed before they were read off resolution terms.

A cokernel ranks every degree piece by an explicit engine (`coker_hf`:
`piece_rank`'s "auto" reads a certified matrix's rank off the very terms
under test) and R/I counts the standard monomials of its grevlex basis
(`quotient_hilbert_function`).  The differential tests assert that the
package's twist sums equal these.  Also here: the seeded inputs those tests
run on (coordinate changes, lex copies, generic blocks over any field).
"""

from __future__ import annotations

from detschemes.complexes import eagon_northcott
from detschemes.determinantal import DeterminantalPresentation, _laplace_minors
from detschemes.field import QQ
from detschemes.grading import _PIECE_AUTO_LIMIT, GradedFreeModule, HomogeneousMatrix, piece_rank
from detschemes.groebner import quotient_hilbert_function
from detschemes.linalg import rank_of_columns
from detschemes.ring import PolyRing


def coker_hf(m, d):
    """HF(coker m, d) = dim G_d - rank m_d, the rank from the engine that
    "auto" picks for a matrix nothing certified: the Groebner engine for one
    row or a piece of more than `_PIECE_AUTO_LIMIT` entries, else the
    echelon."""
    small = m.nrows != 1 and m.source.dim(d) * m.target.dim(d) <= _PIECE_AUTO_LIMIT
    return m.target.dim(d) - piece_rank(m, d, "echelon" if small else "groebner")


def section_rows(psi, deleted, twist, d_max):
    """(d, HF(M_S, d), HF(R/I_S, d - twist), HF(M_X, d)) for d = 0..d_max."""
    ideal_s = _laplace_minors(psi.matrix, psi.t)
    return tuple(
        (
            d,
            coker_hf(psi.matrix, d),
            quotient_hilbert_function(ideal_s, d - twist),
            coker_hf(deleted, d),
        )
        for d in range(d_max + 1)
    )


def canonical(P, d_max):
    """(presentation of ω, shift, cyclic, degrees) as `canonical_module` gives
    them, with None for the degrees when the Hilbert functions disagree."""
    ring = P.ring
    omega = eagon_northcott(P).differentials[-1].transpose_dual().shifted(ring.nvars)

    def first_nonzero(m):
        start = min(m.target.twists)
        return next(d for d in range(start, start + 64) if coker_hf(m, d) > 0)

    e = first_nonzero(P.matrix) - first_nonzero(omega)
    agree = all(
        coker_hf(P.matrix, k) == coker_hf(omega, k - e) for k in range(d_max + 1)
    )
    degrees = tuple(range(d_max + 1)) if agree else None
    return omega, e, omega.target.rank == 1, degrees


def substitute(P, a):
    """P with x_i replaced by sum_j a[i][j] x_j in every entry."""
    ring = P.ring
    xs = ring.gens()
    images = [sum((xs[j].scale(ring.field.from_int(c)) for j, c in enumerate(row) if c),
                  ring.zero()) for row in a]
    rows = []
    for row in P.matrix.entries:
        out = []
        for f in row:
            acc = ring.zero()
            for mono, c in f.terms:
                term = ring.constant(c)
                for i, e in enumerate(ring.exponents(mono)):
                    term = term * images[i] ** e
                acc = acc + term
            out.append(acc)
        rows.append(out)
    return DeterminantalPresentation(HomogeneousMatrix(P.matrix.target, P.matrix.source, rows))


def coordinate_change(rng, n=4):
    """Seeded invertible integer n x n matrix with entries in [-2, 2]."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        cols = [{i: QQ.from_int(a[i][j]) for i in range(n) if a[i][j]} for j in range(n)]
        if rank_of_columns(cols, QQ) == n:
            return a


def with_order(P, order):
    """P over the same variables and field in another monomial order."""
    ring = P.ring.with_order(order)
    rows = [[ring.from_keys(dict(f.terms)) for f in row]
            for row in P.matrix.entries]
    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, P.matrix.target.twists),
        GradedFreeModule(ring, P.matrix.source.twists),
        rows,
    ))


def generic_block(rng, field, nvars, row_twists, col_twists):
    """Seeded dense forms over `field` with small integer coefficients."""
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), field)
    rows = [
        [
            ring.from_keys({
                mono: field.from_int(rng.randint(-10, 10))
                for mono in ring.monomials_of_degree(b - a)
            })
            for b in col_twists
        ]
        for a in row_twists
    ]
    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, row_twists), GradedFreeModule(ring, col_twists), rows
    ))
