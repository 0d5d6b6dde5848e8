"""Exact linear algebra over QQ and F_p, and polynomial determinants.

Sparse vectors are dicts {row_index: coefficient}.  Echelon spans grow
incrementally, which fits degree pieces whose columns arrive one generator
at a time.  There is one exact echelon per kind of coefficient:

- `IntEchelon` for QQ.  Each vector is first scaled by the lcm of its
  denominators (which changes neither its span nor a rank), then eliminated
  fraction-free on integers, as in Bareiss (Math. Comp. 22, 1968) but with
  content removal in place of the exact division by the previous pivot:
  once per reduced vector, at the end, so every pivot is content-free.  No
  `Fraction` arithmetic runs inside the elimination.
- `Echelon` for residues in F_p, on plain ints with one `% p` per entry
  and a pivot inverted as c^(p-2) mod p.

`echelon(field)` picks the one for a field.  Both only count: a rank is all
the certificates read, so neither keeps track of how a dependent vector
combines the earlier ones.

Determinants of polynomial matrices (`Laplace`, `poly_det`) run on dicts
from packed monomial keys to ints for both fields: over QQ rows are scaled
to integers first, over F_p sub-minors are reduced mod p.  Every sub-minor's
total degree is checked against the ring's limit as it is formed.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .ring import _check_degree


class Echelon:
    """Incremental row-echelon span of sparse vectors over F_p.

    Entries are ints, reduced mod p on the way in.  Pivot of a vector is its
    smallest row index; pivot entries are normalized to 1, so reduction is a
    plain subtract-multiple loop.  Elimination at a row only fills rows
    below it, so a lazy min-heap worklist visits every reducible row exactly
    as it becomes live.
    """

    def __init__(self, field):
        self.p = field.characteristic
        self.pivots = {}  # pivot row -> normalized vector

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Fully reduce a sparse vector against the current span."""
        p = self.p
        v = {r: c % p for r, c in vec.items() if c % p}
        pivots = self.pivots
        get = v.get
        heap = [r for r in v if r in pivots]
        heapq.heapify(heap)
        while heap:
            row = heapq.heappop(heap)
            c = get(row)
            if c is None:
                continue
            for r, pc in pivots[row].items():
                old = get(r)
                nc = ((old or 0) - c * pc) % p
                if nc:
                    v[r] = nc
                    if old is None and r in pivots:
                        heapq.heappush(heap, r)
                elif old is not None:
                    del v[r]
        return v

    def insert(self, vec):
        """Add a vector to the span.

        Returns None when it became a new pivot; otherwise the reduced
        vector, which is then empty.
        """
        v = self.reduce(vec)
        if not v:
            return v
        p, row = self.p, min(v)
        inv = pow(v[row], p - 2, p)
        self.pivots[row] = {r: c * inv % p for r, c in v.items()}
        return None


class IntEchelon:
    """Fraction-free echelon span over QQ, computed on integer vectors.

    Vectors may hold ints or Fractions; each is scaled to integers by the
    lcm of its denominators.  Cross-multiplication elimination keeps entries
    integral, and the content of the reduced vector is divided out once, at
    the end, so every pivot is content-free; pivot rows are minimal indices
    as in Echelon, and `insert` answers as Echelon's does.
    """

    def __init__(self):
        self.pivots = {}  # pivot row -> content-free integer vector

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """The vector, scaled to integers, reduced against the span.

        The result has integer entries, no common content, and is a nonzero
        multiple of the exact reduction.
        """
        den = math.lcm(*[c.denominator for c in vec.values()])
        v = {r: c.numerator * (den // c.denominator) for r, c in vec.items() if c}
        heap = [r for r in v if r in self.pivots]
        heapq.heapify(heap)
        while heap:
            row = heapq.heappop(heap)
            c = v.get(row)
            if c is None:
                continue
            piv = self.pivots.get(row)
            pc = piv[row]
            for r in v:
                v[r] *= pc
            for r, a in piv.items():
                nc = v.get(r, 0) - c * a
                if nc:
                    fresh = r not in v
                    v[r] = nc
                    if fresh and r in self.pivots:
                        heapq.heappush(heap, r)
                else:
                    v.pop(r, None)
        g = math.gcd(*v.values())
        if g > 1:
            v = {r: a // g for r, a in v.items()}
        return v

    def insert(self, vec):
        """Add a vector to the span; returns as Echelon.insert does."""
        v = self.reduce(vec)
        if not v:
            return v
        self.pivots[min(v)] = v
        return None


def echelon(field):
    """Empty span for vectors over `field`: integer route for QQ."""
    if field.characteristic == 0:
        return IntEchelon()
    return Echelon(field)


def rank_of_columns(columns, field):
    ech = echelon(field)
    for col in columns:
        ech.insert(col)
    return ech.rank


# -- polynomial determinants ----------------------------------------------------


class Laplace:
    """Determinants of square submatrices of one polynomial matrix.

    Memoized Laplace expansion along the sparsest row, on dicts from packed
    monomial keys to ints; the memo is keyed by absolute (rows, cols), so
    every minor of the matrix shares the sub-minors it has in common with
    the others.  Over QQ each row is first scaled to integer coefficients by
    the lcm of its denominators, and a minor is divided by the product of
    the scales of its rows at the end; over F_p entries are residues and
    every sub-minor is reduced mod p.  No Fraction arithmetic runs inside.
    Each sub-minor's degree is checked as it is stored, so every key sum
    formed adds two keys in range (see ring.from_keys).
    """

    def __init__(self, grid, ring):
        self.ring = ring
        self.p = ring.field.characteristic
        self.scales = []
        self.grid = []
        for row in grid:
            if self.p:
                self.scales.append(1)
                self.grid.append([dict(f.terms) for f in row])
                continue
            den = math.lcm(*[c.denominator for f in row for _, c in f.terms])
            self.scales.append(den)
            self.grid.append([
                {k: c.numerator * (den // c.denominator) for k, c in f.terms}
                for f in row
            ])
        self.memo = {}

    def det(self, rows, cols):
        """The determinant of the submatrix on rows x cols, a Polynomial."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("determinant of a non-square matrix")
        acc = self._expand(rows, cols)
        if not self.p:
            den = math.prod(self.scales[r] for r in rows)
            acc = {k: Fraction(c, den) for k, c in acc.items()}
        return self.ring.from_keys(acc)

    def _expand(self, rows, cols):
        if not rows:
            return {0: 1}
        grid = self.grid
        if len(rows) == 1:
            return grid[rows[0]][cols[0]]
        key = (rows, cols)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        best = min(range(len(rows)), key=lambda i: sum(1 for c in cols if grid[rows[i]][c]))
        entries = grid[rows[best]]
        sub_rows = rows[:best] + rows[best + 1 :]
        acc = {}
        get = acc.get
        for j, c in enumerate(cols):
            entry = entries[c]
            if not entry:
                continue
            minor = self._expand(sub_rows, cols[:j] + cols[j + 1 :])
            if not minor:
                continue
            sign = -1 if (best + j) % 2 else 1
            for k1, c1 in entry.items():
                c1 *= sign
                for k2, c2 in minor.items():
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        p = self.p
        if p:
            acc = {k: c % p for k, c in acc.items() if c % p}
        else:
            acc = {k: c for k, c in acc.items() if c}
        if acc:
            _check_degree(max(acc), self.ring.nvars)
        self.memo[key] = acc
        return acc


def poly_det(grid, ring=None):
    """Determinant of a square polynomial matrix (see Laplace).

    For an empty matrix the determinant is 1, so a ring handle is required
    then.
    """
    n = len(grid)
    if n == 0:
        if ring is None:
            raise ValueError("empty determinant needs a ring handle")
        return ring.one()
    if any(len(row) != n for row in grid):
        raise ValueError("determinant of a non-square matrix")
    return Laplace(grid, grid[0][0].ring).det(range(n), range(n))
