"""Reference oracle: the linear algebra that the package cut down to ranks.

Every certificate reads only ranks of degree pieces, so `detschemes.linalg`
keeps two counting echelons (integers over QQ, residues over F_p).  What
they used to do besides is kept here for the tests:

- `FieldEchelon`, the echelon on the field's own operations (`Fraction`
  over QQ, the field's methods over F_p).  Row indices at or above its
  `tags` bound are bookkeeping coordinates: they never become pivots but
  take part in every elimination step.  Inserting a column together with a
  unit coordinate at `tags + j` therefore records, when the column turns
  out dependent, the relation that makes it so over the columns as given
  (the augmented matrix [A | I]).
- `TaggedIntEchelon`, the package's fraction-free QQ echelon with the same
  bookkeeping rows, so the solves over QQ run on integers.
- `kernel_basis` and `solve_columns`, which read their answers from those
  coordinates.
- `image_membership`, one solve in the degree piece of Φ.
- `piece_multiply`, the product of two degree pieces.
- `quotient_piece_hilbert`, HF(R/I) by rank-nullity on the degree pieces
  of the 1 x g matrix of generators, the route the package replaced by
  standard-monomial counts.

The tests compare the package's echelons against `FieldEchelon`, and use
the solves as oracles for kernels, images and compositions.
"""

from __future__ import annotations

import heapq
import math

from detschemes.grading import (
    GradedFreeModule,
    GradingError,
    HomogeneousMatrix,
    PieceMatrix,
    matrix_piece,
)
from detschemes.linalg import IntEchelon


class FieldEchelon:
    """Incremental row-echelon span of sparse vectors over an exact field.

    Pivot of a vector is its smallest row index; pivot entries are
    normalized to 1, so reduction is a plain subtract-multiple loop.
    """

    def __init__(self, field, tags=math.inf):
        self.field = field
        self.tags = tags  # first bookkeeping row
        self.pivots = {}  # pivot row -> normalized vector

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Fully reduce a sparse vector against the current span."""
        field = self.field
        v = {r: c for r, c in vec.items() if not field.is_zero(c)}
        pivots = self.pivots
        heap = [r for r in v if r in pivots]
        heapq.heapify(heap)
        while heap:
            row = heapq.heappop(heap)
            c = v.get(row)
            if c is None:
                continue
            for r, pc in pivots[row].items():
                old = v.get(r)
                nc = field.sub(field.zero if old is None else old, field.mul(c, pc))
                if not field.is_zero(nc):
                    v[r] = nc
                    if old is None and r in pivots:
                        heapq.heappush(heap, r)
                elif old is not None:
                    del v[r]
        return v

    def insert(self, vec):
        """Add a vector to the span.

        Returns None when it became a new pivot; otherwise the reduced
        vector, which then holds bookkeeping coordinates only.
        """
        v = self.reduce(vec)
        row = min(v, default=self.tags)
        if row >= self.tags:
            return v
        inv = self.field.inv(v[row])
        self.pivots[row] = {r: self.field.mul(c, inv) for r, c in v.items()}
        return None

    def contains(self, vec):
        return min(self.reduce(vec), default=self.tags) >= self.tags


def field_reduced_rows(ech):
    """The reduced row echelon form of a FieldEchelon's span, as the
    package's `reduced_rows` lists it, by back-substitution: each pivot,
    from the last one up, is reduced against those below it."""
    rref = FieldEchelon(ech.field)
    for row in sorted(ech.pivots, reverse=True):
        rref.insert(ech.pivots[row])
    return [sorted(rref.pivots[row].items()) for row in sorted(rref.pivots)]


class TaggedIntEchelon(IntEchelon):
    """IntEchelon whose rows at or above `tags` never become pivots."""

    def __init__(self, tags=math.inf):
        super().__init__()
        self.tags = tags

    def insert(self, vec):
        v = self.reduce(vec)
        row = min(v, default=self.tags)
        if row >= self.tags:
            return v
        self.pivots[row] = v
        return None


def _tagged(field, tags):
    if field.characteristic == 0:
        return TaggedIntEchelon(tags)
    return FieldEchelon(field, tags)


def _first_tag(columns):
    return 1 + max((r for col in columns for r in col), default=-1)


def kernel_basis(columns, field):
    """Kernel of the map sending unit j to columns[j]; sparse coords over j.

    One vector per dependent column j, with coordinate 1 at j and the rest
    on earlier independent columns.
    """
    tags = _first_tag(columns)
    ech = _tagged(field, tags)
    kernel = []
    for j, col in enumerate(columns):
        rel = ech.insert({**col, tags + j: field.one})
        if rel is not None:
            inv = field.inv(rel[tags + j])
            kernel.append({t - tags: field.mul(c, inv) for t, c in rel.items()})
    return kernel


def solve_columns(columns, target, field):
    """One solution x with sum x_j * columns[j] = target, or None."""
    tags = _first_tag(columns + [target])
    ech = _tagged(field, tags)
    for j, col in enumerate(columns):
        ech.insert({**col, tags + j: field.one})
    mark = tags + len(columns)
    rel = ech.reduce({**target, mark: field.one})
    if min(rel) < tags:
        return None
    scale = field.neg(field.inv(rel.pop(mark)))
    return {t - tags: field.mul(c, scale) for t, c in rel.items()}


def image_membership(v, phi):
    """Decide v ∈ im Φ for a homogeneous target element; witness on success.

    v is a tuple of polynomials (one per target generator), homogeneous of a
    common total degree.  Returns (True, preimage) or (False, None).
    """
    ring = phi.ring
    field = ring.field
    if len(v) != phi.target.rank:
        raise GradingError("element length must equal target rank")
    degree = None
    for i, p in enumerate(v):
        if p.is_zero():
            continue
        dp = p.homogeneous_degree()
        if not isinstance(dp, int):
            raise GradingError("element must be homogeneous")
        total = dp + phi.target.twists[i]
        if degree is None:
            degree = total
        elif degree != total:
            raise GradingError("element components have mismatched degrees")
    if degree is None:
        return True, tuple(ring.zero() for _ in range(phi.source.rank))

    piece = matrix_piece(phi, degree)
    row_index = {item: idx for idx, item in enumerate(piece.row_basis)}
    target_vec = {}
    for i, p in enumerate(v):
        for m, c in p.terms:
            target_vec[row_index[(i, m)]] = c
    combo = solve_columns(piece.cols, target_vec, field)
    if combo is None:
        return False, None
    parts = [[] for _ in range(phi.source.rank)]
    for j, c in combo.items():
        gen, mono = piece.col_basis[j]
        parts[gen].append((mono, c))
    preimage = tuple(ring.from_keys(dict(part)) for part in parts)
    return True, preimage


def piece_multiply(a, b):
    """Matrix product a * b of degree pieces on compatible bases."""
    if len(b.row_basis) != a.ncols:
        raise GradingError("piece multiplication shape mismatch")
    field = a.field
    cols = []
    for col in b.cols:
        acc = {}
        for k, c in col.items():
            for i, x in a.cols[k].items():
                v = field.add(acc.get(i, field.zero), field.mul(x, c))
                if field.is_zero(v):
                    acc.pop(i, None)
                else:
                    acc[i] = v
        cols.append(acc)
    return PieceMatrix(field, a.row_basis, b.col_basis, cols)


def quotient_piece_hilbert(I, d):
    """dim_k (R/I)_d as dim R_d minus the rank of the degree-d piece of the
    1 x g matrix of I's nonzero generators."""
    ring = I.ring
    if d < 0:
        return 0
    gens = [g for g in I.generators if not g.is_zero()]
    if not gens:
        return ring.dim_of_degree(d)
    twists = []
    for g in gens:
        dg = g.homogeneous_degree()
        if not isinstance(dg, int):
            raise GradingError("Hilbert function needs homogeneous generators")
        twists.append(dg)
    row = HomogeneousMatrix(
        GradedFreeModule(ring, (0,)), GradedFreeModule(ring, tuple(twists)), [gens]
    )
    return ring.dim_of_degree(d) - matrix_piece(row, d).rank()
