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
- `Echelon` for residues in F_p, kept in reduced row echelon form up to
  the scale of each row, each row packed into one Python int of
  fixed-width slots, so that reducing a vector is one big-int multiply-add
  per pivot it touches and one unpack, and a new pivot is cleared from an
  older row by one multiply-add.  It takes dense indices: a row is as wide
  as the largest index.

`echelon(field)` picks the one for a field.  Both count, and both give the
reduced row echelon form of their span (`reduced_rows`), which keys the
Groebner table; neither keeps track of how a dependent vector combines the
earlier ones.

Determinants of polynomial matrices (`Laplace`, `poly_det`) run on dicts
from packed monomial keys to ints for both fields: over QQ rows are scaled
to integers first, over F_p sub-minors are reduced mod p.  Every sub-minor's
total degree is checked against the ring's limit as it is formed.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from array import array
from fractions import Fraction

from .ring import _check_degree


@functools.lru_cache(maxsize=8)
def _slots(p):
    """(w, lazy, batch, mask, native) of `Echelon` for residues mod p."""
    w = 64
    while (2**w - p) // (p - 1) ** 2 < 64:
        w += 64
    lazy = ((2**w - p) // (64 * (p - 1)) - (p - 1)) // (p - 1) ** 2
    batch = (2**w - p) // ((p - 1) * (p - 1 + lazy * (p - 1) ** 2))
    return w, lazy, batch, (1 << w) - 1, w == 64 and sys.byteorder == "little"


class Echelon:
    """Incremental span of sparse vectors over F_p, kept in reduced row
    echelon form (up to the scale of each row) on packed integer rows.

    Vectors are dicts {index: int} on dense indices (a row is as wide as
    the largest index seen); entries are reduced mod p on the way in.  Each
    pivot row is one Python int of w-bit slots, entry i in bits
    [i*w, (i+1)*w).  Mod p, a row's pivot is its first nonzero entry x, and
    the row's entry at every other pivot is 0; the row is kept unscaled,
    with p - 1/x beside it, and `reduced_rows` scales it to pivot 1.

    Inserting v therefore adds (v_c * (p - 1/x_c) mod p) times row c to the
    packed v once for each pivot c where v is nonzero, one big-int
    multiply-add each, and unpacks the sum once to reduce its slots mod p.
    A new pivot row is stored reduced, and cleared from each older row by
    one multiply-add, which adds at most (p-1)^2 to a slot; a row is reduced
    again once it would carry more than `lazy` such clears, so its slots
    stay at most S = (p-1) + lazy*(p-1)^2, and a multiply-add by it adds at
    most (p-1)*S.  w is the least multiple of 64 with
    (2^w - p) // (p-1)^2 >= 64, `lazy` the most clears for which
    `batch` = (2^w - p) // ((p-1)*S) is still >= 64, and a sum is reduced
    after every `batch` multiply-adds, so no slot reaches 2^w.

    While one index j is free (rank n - 1), v reduces to a multiple of e_j,
    so slot j of the rows it touches decides it, and the pivot that fills
    F_p^n leaves the identity, whose rows need no clearing.
    """

    def __init__(self, field):
        self.p = field.characteristic
        self.w, self.lazy, self.batch, self.mask, self.native = _slots(self.p)
        self.n = 0  # slots in use: one more than the largest index seen
        self.rows = {}  # pivot index -> [packed row, p - 1/pivot entry, clears it carries]

    @property
    def rank(self):
        return len(self.rows)

    def _pack(self, vals):
        """The packed int of a dense list of slot values below 2^w."""
        if self.native:
            return int.from_bytes(array("Q", vals), "little")
        size = self.w // 8
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in vals), "little")

    def _unpack(self, acc):
        """The dense list of the n slots of a packed int, each mod p."""
        p, size = self.p, self.w // 8
        data = acc.to_bytes(self.n * size, "little")
        if self.native:
            return [x % p for x in memoryview(data).cast("Q")]
        return [int.from_bytes(data[i : i + size], "little") % p for i in range(0, len(data), size)]

    def insert(self, vec):
        """Add a vector to the span.

        Returns None when it became a new pivot; otherwise the reduced
        vector, which is then empty.
        """
        p, rows, n = self.p, self.rows, self.n
        top = max(vec) if vec else -1
        if top >= n:
            n = self.n = top + 1
        if len(rows) == n:  # the span is all of F_p^n
            return {}
        if len(rows) == n - 1:  # v reduces to a multiple of e_j, j the free index
            j = n * (n - 1) // 2 - sum(rows)
            shift, mask = j * self.w, self.mask
            r = vec.get(j, 0)
            for i, c in vec.items():
                if i in rows:
                    row, ninv, _ = rows[i]
                    r += c * ninv * ((row >> shift) & mask)
            if r % p == 0:
                return {}
            self.rows = {i: [1 << i * self.w, p - 1, 0] for i in range(n)}
            return None
        vals = [0] * n
        acc = k = 0  # the multiply-adds; at most k*(p-1)*S in a slot
        for i, c in vec.items():
            c %= p
            if c:
                vals[i] = c
                if i in rows:
                    if k == self.batch:
                        acc, k = self._pack(self._unpack(acc)), 1  # below p: one at most
                    row, ninv, _ = rows[i]
                    acc += c * ninv % p * row
                    k += 1
        if acc:
            vals = self._unpack(acc + self._pack(vals))
        x = next(filter(None, vals), 0)
        if not x:
            return {}
        lead = vals.index(x)  # no entry before the first nonzero one equals it
        new = self._pack(vals)
        ninv = p - pow(x, -1, p)
        shift, mask, lazy = lead * self.w, self.mask, self.lazy
        for entry in rows.values():
            c = ((entry[0] >> shift) & mask) * ninv % p
            if c:
                if entry[2] < lazy:
                    entry[0] += c * new
                    entry[2] += 1
                else:
                    entry[0] = self._pack(self._unpack(entry[0] + c * new))
                    entry[2] = 0
        rows[lead] = [new, ninv, 0]
        return None

    def reduced_rows(self):
        """The reduced row echelon form of the span: one [(index, entry),
        ...] list per pivot, in increasing pivot order."""
        p, out = self.p, []
        for c in sorted(self.rows):
            row, ninv, _ = self.rows[c]
            inv = p - ninv
            out.append([(i, x * inv % p) for i, x in enumerate(self._unpack(row)) if x])
        return out


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

    def reduced_rows(self):
        """The reduced row echelon form of the span up to the scale of each
        row, as Echelon.reduced_rows gives it: content-free integer rows.

        Back-substitution: each pivot, from the last one up, is reduced
        against those below it.
        """
        rref = IntEchelon()
        for row in sorted(self.pivots, reverse=True):
            rref.insert(self.pivots[row])
        return [sorted(rref.pivots[row].items()) for row in sorted(rref.pivots)]


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


def integer_rows(grid, p):
    """(scales, rows) of a polynomial matrix, each entry a dict {packed key:
    int}.  Over QQ (p = 0) each row is scaled to integers by the lcm of its
    denominators, its scale; over F_p entries are residues, with scale 1."""
    scales, rows = [], []
    for row in grid:
        den = 1 if p else math.lcm(*[c.denominator for f in row for _, c in f.terms])
        scales.append(den)
        rows.append([
            dict(f.terms) if p else {k: c.numerator * (den // c.denominator) for k, c in f.terms}
            for f in row
        ])
    return scales, rows


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
        self.scales, self.grid = integer_rows(grid, self.p)
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
