"""Reference oracle: d∘d and Buchsbaum-Eisenbud ranks as computed before
ranks were certified from d∘d = 0.

`compose` is `HomogeneousMatrix.compose` as it was before it summed on
packed keys: every product and every partial sum is a Polynomial.
`rank_of_map` always makes three seeded evaluations and then proves, minor
size by minor size up to min(nrows, ncols), where the rank stops.
`buchsbaum_eisenbud` checks d∘d = 0 with that `compose` and ranks every
differential with that `rank_of_map`; its heights are height(minors(d,
r_i)), which store the minors and their basis, as the package computed
them before it took `determinantal._minors_height`.  The differential tests
assert that the package's reports equal these.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from detschemes.complexes import AcyclicityEntry, AcyclicityReport
from detschemes.determinantal import minors
from detschemes.errors import InputError
from detschemes.grading import GradingError, HomogeneousMatrix
from detschemes.groebner import height
from detschemes.linalg import Laplace, rank_of_columns


def compose(a, b):
    """a ∘ b, valid when b.target equals a.source."""
    if b.target.twists != a.source.twists:
        raise GradingError("composition twist mismatch")
    ring = a.ring
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = ring.zero()
            for k in range(a.ncols):
                x = a.entries[i][k]
                y = b.entries[k][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = acc + x * y
            row.append(acc)
        rows.append(row)
    return HomogeneousMatrix(a.target, b.source, rows)


def verify_complex(C):
    """True iff consecutive differentials compose to zero as polynomials."""
    for k in range(len(C.differentials)):
        d = C.differentials[k]
        if d.target.twists != C.modules[k].twists:
            return False
        if d.source.twists != C.modules[k + 1].twists:
            return False
    for k in range(len(C.differentials) - 1):
        if not compose(C.differentials[k], C.differentials[k + 1]).is_zero():
            return False
    return True


def rank_of_map(phi, seed=0):
    """Largest s with a nonvanishing s x s minor."""
    if phi.nrows == 0 or phi.ncols == 0 or phi.is_zero():
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
    s = best
    limit = min(phi.nrows, phi.ncols)
    laplace = Laplace(phi.entries, ring)
    while s < limit and _has_nonzero_minor(phi, s + 1, laplace):
        s += 1
    return s


def _has_nonzero_minor(phi, s, laplace):
    for rows in combinations(range(phi.nrows), s):
        for cols in combinations(range(phi.ncols), s):
            if not laplace.det(rows, cols).is_zero():
                return True
    return False


def buchsbaum_eisenbud(C, seed=0):
    """Rank and height conditions per differential; pass iff acyclic."""
    if not verify_complex(C):
        raise InputError("buchsbaum_eisenbud requires a complex (d∘d = 0)")
    n = len(C.differentials)
    expected = [0] * (n + 2)
    for i in range(n, 0, -1):
        expected[i] = C.modules[i].rank - expected[i + 1]
    entries = []
    for i in range(1, n + 1):
        d = C.differentials[i - 1]
        r_i = expected[i]
        computed = rank_of_map(d, seed)
        if r_i <= 0:
            ht = math.inf if r_i == 0 else 0
        elif r_i > min(d.nrows, d.ncols):
            ht = 0
        else:
            ideal = minors(d, r_i)
            ht = height(ideal) if ideal.generators else 0
        entries.append(AcyclicityEntry(i, r_i, computed, ht))
    return AcyclicityReport(tuple(entries))
