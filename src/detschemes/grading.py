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
The Eagon-Northcott and Buchsbaum-Rim terms of a matrix live here too
(`en_terms`, `br_terms`): they read only its twists and shape.  Once
`determinantal.classify` certifies Φ standard, it marks the matrix
(`HomogeneousMatrix.standard`), BR(Φ) resolves coker Φ, and every piece
rank is read off the BR terms (`certified_rank`) with no piece assembled.
Two exact rank engines rank the pieces of any other matrix, and are
cross-checked by the test suite: an echelon
on the assembled scalar piece (fine while pieces are small) and
standard-monomial counting against a reduced Groebner basis of the column
module (`groebner.ColumnModuleGB`; fast at any degree), built once and kept
on its matrix (`HomogeneousMatrix.column_module`), so it lives as long as
the matrix.  A one-row matrix (f_1 .. f_n) has coker = (R/I_1)(-a), so its
module counts against the basis of I_1 that the Groebner table holds, and
more rows count against the idealization's basis.
`piece_rank` is the one place that picks an engine: "auto" takes the
term route on a marked matrix, else the Groebner engine for one row and
the piece-size switch for more, and every caller in the package takes it.
Over QQ the echelon engine ranks the piece fraction-free on sparse integer
columns (`linalg.IntEchelon`), over F_p on residue rows packed into ints
and kept reduced (`linalg.Echelon`), indexed by the piece's dense row
basis.  A rank is all that any certificate reads from a piece, so nothing
here solves in a piece or multiplies two.  Piece ranks are not memoized:
section sequences and canonical modules of certified presentations read
their Hilbert functions off resolution terms (`resolution_hilbert_function`)
and rank no piece, and every other caller ranks a piece once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groebner import ColumnModuleGB, IdealBasis, quotient_hilbert_function
from .linalg import rank_of_columns
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
    items: tuple  # of (generator index, packed monomial key)

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
    source generator.  `column_module` is None until a Groebner piece rank
    (`piece_rank`) builds the matrix's `ColumnModuleGB` and keeps it there.
    `standard` is set by `determinantal.classify` once it certifies the
    matrix standard, and `coker_terms` holds the Buchsbaum-Rim modules that
    `certified_rank` builds on first use.
    """

    __slots__ = ("ring", "target", "source", "entries", "_hash", "column_module",
                 "standard", "coker_terms")

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
        self.column_module = None
        self.standard = False
        self.coker_terms = None

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
        rows = []
        for a_row in self.entries:
            left = [(k, a.terms) for k, a in enumerate(a_row) if a.terms]
            row = []
            for j in range(other.ncols):
                acc = {}
                get = acc.get
                for k, a in left:
                    b = other.entries[k][j].terms
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
    for name, given, count in (("row", row_twists, nrows), ("column", col_twists, ncols)):
        if given is not None and len(given) != count:
            raise GradingError(f"{count} {name}s need {count} {name} twists, not {len(given)}")
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


# -- Eagon-Northcott and Buchsbaum-Rim terms -------------------------------------------


def _compositions(total, parts):
    """Exponent multisets: all tuples of `parts` nonnegatives summing to total,
    first exponents descending."""
    if parts <= 1:
        return [(total,)] if parts else [()] if total == 0 else []
    return [
        (e,) + rest
        for e in range(total, -1, -1)
        for rest in _compositions(total - e, parts - 1)
    ]


def _term_levels(m, first, count):
    """Levels i < count of ∧^{first+i} F ⊗ (S^i G)^∨ ⊗ ∧^g G^∨ for m: F -> G.

    Level i indexes its basis by pairs (S, β): S a sorted (first+i)-subset of
    the columns, β a composition of i into g parts (the basis dual to
    monomials).  Returns the levels, empty ones dropped (g = 0), and their
    twisted free modules.
    """
    g, f = m.nrows, m.ncols
    base = sum(m.target.twists)
    levels, modules = [], []
    for i in range(count):
        items = [
            (S, beta)
            for S in combinations(range(f), first + i)
            for beta in _compositions(i, g)
        ]
        if not items:
            continue
        levels.append(items)
        modules.append(GradedFreeModule(m.ring, tuple(
            sum(m.source.twists[l] for l in S) - base
            - sum(b * tw for b, tw in zip(beta, m.target.twists))
            for S, beta in items
        )))
    return levels, modules


def en_terms(m):
    """Index levels of the Eagon-Northcott terms F_1, ..., F_{f-g+1} of m, and
    all of its modules R = F_0, F_1, ..., F_{f-g+1}."""
    levels, modules = _term_levels(m, m.nrows, m.ncols - m.nrows + 1)
    return levels, [GradedFreeModule(m.ring, (0,))] + modules


def br_terms(m):
    """Index levels of the Buchsbaum-Rim terms F_2, ..., F_{f-g+1} of m, and
    all of its modules G = F_0, F = F_1, F_2, ..., F_{f-g+1}."""
    levels, modules = _term_levels(m, m.nrows + 1, m.ncols - m.nrows)
    return levels, [m.target, m.source] + modules


def resolution_hilbert_function(modules, d):
    """HF(M, d) for a graded free resolution F_0 <- F_1 <- ... of M with these
    modules: the alternating sum of dim (F_i)_d."""
    return sum((-1) ** i * F.dim(d) for i, F in enumerate(modules))


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
            row_index[(i, mu + m)]: c
            for i in range(phi.nrows)
            for m, c in phi.entries[i][j].terms
        })
    return PieceMatrix(phi.ring.field, rows.items, cols.items, piece_cols)


def piece_rank(phi, d, engine="auto"):
    """Exact rank of the degree-d piece of a homogeneous matrix.

    An explicit engine always runs that engine.  "auto" reads the rank of a
    matrix certified standard off its Buchsbaum-Rim terms
    (`certified_rank`), sends any other one-row matrix to the Groebner
    engine, where its column module reads the basis of its ideal of
    entries, and any other matrix to the echelon up to `_PIECE_AUTO_LIMIT`
    rows x columns and to the Groebner engine above.
    """
    if engine == "auto":
        if phi.standard:
            return certified_rank(phi, d)
        size = phi.source.dim(d) * phi.target.dim(d)
        engine = "echelon" if phi.nrows != 1 and size <= _PIECE_AUTO_LIMIT else "groebner"
    if engine == "echelon":
        return matrix_piece(phi, d).rank()
    if engine == "groebner":
        if phi.column_module is None:
            phi.column_module = ColumnModuleGB(phi.ring, phi.target.twists, phi.columns())
        return phi.column_module.image_dim(d)
    raise GradingError(f"unknown rank engine {engine!r}")


def certified_rank(phi, d):
    """rank Φ_d of a matrix Φ: F -> G that `determinantal.classify`
    certified standard, with no piece assembled.

    ht I_t(Φ) = r + 1 makes the Buchsbaum-Rim complex a resolution of
    coker Φ in every characteristic (Eisenbud, *Commutative Algebra*, A2.6),
    so rank Φ_d = dim G_d - Σ_i (-1)^i dim (BR_i)_d.  The terms are built on
    first use and kept on the matrix (`coker_terms`).
    """
    if phi.coker_terms is None:
        phi.coker_terms = br_terms(phi)[1]
    return phi.target.dim(d) - resolution_hilbert_function(phi.coker_terms, d)


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
