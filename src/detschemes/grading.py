"""Twisted graded free modules, homogeneous matrices, and degree pieces.

Twists record the degree of each free generator, so F = ⊕_j R(-twist_j) and
the degree-d piece of F has one basis element per (generator j, monomial of
degree d - twist_j).  A matrix between twisted modules is homogeneous when
entry (i, j) is zero or of degree source.twist(j) - target.twist(i); that is
checked at construction time, so every HomogeneousMatrix in flight is valid.

Degree-piece ranks drive cokernel and kernel Hilbert functions and the
exactness check of a complex with no acyclicity certificate
(`complexes.graded_exactness_check`); R/I only counts the standard
monomials of one grevlex basis (`groebner.quotient_hilbert_function`).
Two exact rank engines are cross-checked by the test suite: sparse
echelon on the assembled scalar piece (fine while pieces are small) and
standard-monomial counting against the reduced Groebner basis of the
column module's idealization (`groebner.ColumnModuleGB`, once per matrix;
fast at any degree).
`piece_rank` is the one place that picks an engine: "auto" switches on
piece size, and every caller in the package takes it.
Over QQ the echelon engine ranks the piece fraction-free on integers
(`linalg.IntEchelon`), over F_p on residues (`linalg.Echelon`).  A rank is
all that any certificate reads from a piece, so nothing here solves in a
piece or multiplies two.  Piece ranks are memoized per
(matrix, degree, engine) in a bounded table (`memo.Memo`), since Hilbert
tables, section sequences and canonical modules rank the same pieces again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import ColumnModuleGB, IdealBasis, quotient_hilbert_function
from .linalg import rank_of_columns
from .memo import MATRIX_BUDGET, Memo, terms
from .ring import NOT_HOMOGENEOUS

#: columns-times-rows bound below which the echelon engine is used by "auto"
_PIECE_AUTO_LIMIT = 20000


class GradingError(ValueError):
    pass


@dataclass(frozen=True)
class GradedFreeModule:
    """Free module with one integer twist (generator degree) per generator."""

    ring: object
    twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(self.twists))

    @property
    def rank(self):
        return len(self.twists)

    def dim(self, d):
        return sum(self.ring.dim_of_degree(d - tw) for tw in self.twists)

    def dual(self):
        return GradedFreeModule(self.ring, tuple(-tw for tw in self.twists))

    def shifted(self, e):
        """Add e to every generator degree (the module twisted by -e)."""
        return GradedFreeModule(self.ring, tuple(tw + e for tw in self.twists))

    def describe(self):
        """Human-readable sum of line-bundle style summands, e.g. R(-2)^3."""
        if not self.twists:
            return "0"
        groups = {}
        for tw in self.twists:
            groups[tw] = groups.get(tw, 0) + 1
        parts = []
        for tw in sorted(groups):
            base = f"R({-tw})" if tw != 0 else "R"
            n = groups[tw]
            parts.append(base if n == 1 else f"{base}^{n}")
        return " + ".join(parts)


@dataclass(frozen=True)
class DegreeBasis:
    """Ordered monomial basis of a degree piece of a graded free module."""

    degree: int
    items: tuple  # of (generator index, Monomial)

    def __len__(self):
        return len(self.items)

    def index_map(self):
        return {item: i for i, item in enumerate(self.items)}


def default_truncation_bound(ring, max_generator_degree):
    """Degreewise checks run to (max generator degree) + n + 3 by default:
    far enough to see Hilbert-polynomial stabilization on desk-scale data."""
    return max_generator_degree + (ring.nvars - 1) + 3


def matrix_truncation_bound(phi):
    """default_truncation_bound for the largest degree of an entry of phi."""
    max_deg = max(
        (p.homogeneous_degree() for row in phi.entries for p in row if not p.is_zero()),
        default=1,
    )
    return default_truncation_bound(phi.ring, max_deg)


def degree_basis(F, d):
    """Deterministic basis of F_d: generators in order, monomials descending."""
    items = []
    for j, tw in enumerate(F.twists):
        k = d - tw
        if k < 0:
            continue
        for m in F.ring.monomials_of_degree(k):
            items.append((j, m))
    return DegreeBasis(d, tuple(items))


class HomogeneousMatrix:
    """Polynomial matrix representing a graded map source -> target.

    Entries act on column vectors: column j holds the image of the j-th
    source generator.
    """

    __slots__ = ("ring", "target", "source", "entries", "_hash")

    def __init__(self, target, source, entries):
        if target.ring != source.ring:
            raise GradingError("source and target must share a ring")
        ring = target.ring
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != target.rank:
            raise GradingError("row count must equal target rank")
        for row in rows:
            if len(row) != source.rank:
                raise GradingError("column count must equal source rank")
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if p.ring != ring:
                    raise GradingError("entry from a different ring")
                if p.is_zero():
                    continue
                want = source.twists[j] - target.twists[i]
                if p.homogeneous_degree() != want:
                    raise GradingError(
                        f"entry ({i},{j}) must be homogeneous of degree {want}"
                    )
        self.ring = ring
        self.target = target
        self.source = source
        self.entries = rows
        self._hash = None  # computed on first use: matrices key memo tables

    @property
    def nrows(self):
        return self.target.rank

    @property
    def ncols(self):
        return self.source.rank

    def entry(self, i, j):
        return self.entries[i][j]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.nrows))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    def compose(self, other):
        """self ∘ other, valid when other.target equals self.source.

        Each entry is summed on one {packed key: coefficient} dict and made a
        Polynomial once, by `ring.from_keys`, which also raises RingError
        when a nonzero entry's degree passes MAX_DEGREE.
        """
        if other.target.twists != self.source.twists:
            raise GradingError("composition twist mismatch")
        ring = self.ring
        right = [[[(m.key, c) for m, c in p.terms] for p in row] for row in other.entries]
        rows = []
        for a_row in self.entries:
            left = [(k, [(m.key, c) for m, c in a.terms]) for k, a in enumerate(a_row) if a.terms]
            row = []
            for j in range(other.ncols):
                acc = {}
                get = acc.get
                for k, a in left:
                    b = right[k][j]
                    for k1, c1 in a:
                        for k2, c2 in b:
                            key = k1 + k2
                            acc[key] = get(key, 0) + c1 * c2
                row.append(ring.from_keys(acc))
            rows.append(row)
        return HomogeneousMatrix(self.target, other.source, rows)

    def transpose_dual(self):
        """The dual map between dual modules (entries transposed)."""
        rows = [
            [self.entries[i][j] for i in range(self.nrows)]
            for j in range(self.ncols)
        ]
        return HomogeneousMatrix(self.source.dual(), self.target.dual(), rows)

    def shifted(self, e):
        """Both modules shifted by e; entries unchanged."""
        return HomogeneousMatrix(
            self.target.shifted(e), self.source.shifted(e), self.entries
        )

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousMatrix)
            and self.target == other.target
            and self.source == other.source
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.target, self.source, self.entries))
        return self._hash

    def __repr__(self):
        return f"HomogeneousMatrix({self.nrows}x{self.ncols}: {self.source.describe()} -> {self.target.describe()})"


def zero_matrix(target, source):
    z = target.ring.zero()
    rows = [[z] * source.rank for _ in range(target.rank)]
    return HomogeneousMatrix(target, source, rows)


def matrix_from_strings(ring, rows, row_twists=None, col_twists=None):
    """Build a HomogeneousMatrix from polynomial strings, inferring twists.

    Twist inference walks the bipartite row/column incidence graph of
    nonzero entries, pinning the first row of each connected component to
    twist 0 (columns are pinned when only columns remain unvisited).
    """
    polys = [[ring.parse(s) for s in row] for row in rows]
    return matrix_from_polys(ring, polys, row_twists, col_twists)


def matrix_from_polys(ring, polys, row_twists=None, col_twists=None):
    nrows = len(polys)
    ncols = len(polys[0]) if nrows else 0
    for row in polys:
        if len(row) != ncols:
            raise GradingError("matrix rows must have equal length")
    degs = {}
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            d = p.homogeneous_degree()
            if not isinstance(d, int):
                raise GradingError(f"entry ({i},{j}) is not homogeneous")
            degs[(i, j)] = d
    if row_twists is not None and col_twists is not None:
        rt, ct = list(row_twists), list(col_twists)
    else:
        rt = [None] * nrows
        ct = [None] * ncols
        if row_twists is not None:
            rt = list(row_twists)
        if col_twists is not None:
            ct = list(col_twists)
        # propagate along nonzero entries: ct[j] - rt[i] = deg(i, j)
        changed = True
        while changed:
            changed = False
            for (i, j), d in degs.items():
                if rt[i] is not None and ct[j] is None:
                    ct[j] = rt[i] + d
                    changed = True
                elif ct[j] is not None and rt[i] is None:
                    rt[i] = ct[j] - d
                    changed = True
            if all(tw is not None for tw in rt + ct):
                break
            if not changed:
                for i in range(nrows):
                    if rt[i] is None:
                        rt[i] = 0
                        changed = True
                        break
                else:
                    for j in range(ncols):
                        if ct[j] is None:
                            ct[j] = 1
                            changed = True
                            break
    target = GradedFreeModule(ring, tuple(rt))
    source = GradedFreeModule(ring, tuple(ct))
    return HomogeneousMatrix(target, source, polys)


# -- degree pieces -----------------------------------------------------------------


class PieceMatrix:
    """Scalar matrix of a degree piece, stored as sparse columns."""

    __slots__ = ("field", "row_basis", "col_basis", "cols")

    def __init__(self, field, row_basis, col_basis, cols):
        self.field = field
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.cols = cols  # list of {row_index: coeff}

    @property
    def nrows(self):
        return len(self.row_basis)

    @property
    def ncols(self):
        return len(self.col_basis)

    def rank(self):
        return rank_of_columns(self.cols, self.field)


def matrix_piece(phi, d):
    """The k-linear map (source)_d -> (target)_d in degree-basis coordinates."""
    rows = degree_basis(phi.target, d)
    cols = degree_basis(phi.source, d)
    row_index = rows.index_map()
    piece_cols = []
    for (j, mu) in cols.items:
        # each term m of each entry (i, j) lands on its own row (i, mu*m),
        # so every term is one entry and nothing needs adding up
        piece_cols.append({
            row_index[(i, mu.mul(m))]: c
            for i in range(phi.nrows)
            for m, c in phi.entries[i][j].terms
        })
    return PieceMatrix(phi.ring.field, rows.items, cols.items, piece_cols)


#: a column-module basis weighs its matrix's terms and its own
_COLUMN_GB_CACHE = Memo(MATRIX_BUDGET)
#: A piece rank is reused within one certificate (a Hilbert table, section
#: sequence and canonical module rank the same pieces), not across inputs,
#: and its key pins a whole matrix for one int; an entry weighs that
#: matrix's terms, even when other entries share the matrix.
_PIECE_RANK_CACHE = Memo(MATRIX_BUDGET)


def column_module_gb(phi):
    hit = _COLUMN_GB_CACHE.get(phi)
    if hit is None:
        gb = ColumnModuleGB(phi.ring, phi.target.twists, phi.columns())
        hit = _COLUMN_GB_CACHE.put(phi, gb, terms(*phi.entries, gb.basis))
    return hit


def piece_rank(phi, d, engine="auto"):
    """Exact rank of the degree-d piece of a homogeneous matrix.

    Memoized per engine, so an explicit engine always runs that engine.
    """
    if engine == "auto":
        size = phi.source.dim(d) * phi.target.dim(d)
        engine = "echelon" if size <= _PIECE_AUTO_LIMIT else "groebner"
    key = (phi, d, engine)
    hit = _PIECE_RANK_CACHE.get(key)
    if hit is not None:
        return hit
    if engine == "echelon":
        rank = matrix_piece(phi, d).rank()
    elif engine == "groebner":
        rank = column_module_gb(phi).image_dim(d)
    else:
        raise GradingError(f"unknown rank engine {engine!r}")
    return _PIECE_RANK_CACHE.put(key, rank, terms(*phi.entries))


# -- Hilbert functions ----------------------------------------------------------------


@dataclass(frozen=True)
class Coker:
    matrix: HomogeneousMatrix


@dataclass(frozen=True)
class Ker:
    matrix: HomogeneousMatrix


def hilbert_function(subject, d):
    """dim_k of the degree-d piece of R/I, coker Φ, or ker Φ.

    R/I counts standard monomials; coker Φ and ker Φ come from rank-nullity
    on the degree piece, whose rank piece_rank computes.
    """
    if isinstance(subject, IdealBasis):
        if any(g.homogeneous_degree() is NOT_HOMOGENEOUS for g in subject):
            raise GradingError("Hilbert function needs homogeneous generators")
        return quotient_hilbert_function(subject, d)
    if isinstance(subject, Coker):
        return subject.matrix.target.dim(d) - piece_rank(subject.matrix, d)
    if isinstance(subject, Ker):
        return subject.matrix.source.dim(d) - piece_rank(subject.matrix, d)
    raise GradingError(f"unsupported Hilbert subject {subject!r}")
