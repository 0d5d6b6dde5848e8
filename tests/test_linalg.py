import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from detschemes import GF, QQ, PolyRing
from detschemes.determinantal import _laplace_minors
from detschemes.grading import matrix_from_polys
from detschemes.linalg import Echelon, IntEchelon, Laplace, rank_of_columns
from detschemes.ring import RingError
from linalg_reference import (
    FieldEchelon,
    TaggedIntEchelon,
    field_reduced_rows,
    kernel_basis,
    solve_columns,
)


def _dense_to_cols(rows):
    ncols = len(rows[0])
    cols = []
    for j in range(ncols):
        col = {i: Fraction(rows[i][j]) for i in range(len(rows)) if rows[i][j]}
        cols.append(col)
    return cols


def _random_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def _fraction_rank(cols):
    """Reference: the field echelon over QQ, on Fractions."""
    ech = FieldEchelon(QQ)
    for col in cols:
        ech.insert(col)
    return ech.rank


def _fraction_kernel_dim(cols):
    ech = FieldEchelon(QQ)
    dim = 0
    for col in cols:
        if ech.insert(col) is not None:
            dim += 1
    return dim


def _int_rank(rows):
    ech = IntEchelon()
    for col in _dense_to_cols(rows):
        ech.insert({r: int(c) for r, c in col.items()})
    return ech.rank


def test_int_echelon_matches_fraction_echelon():
    rng = random.Random(5)
    for _ in range(30):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        cols = _dense_to_cols(rows)
        ech = IntEchelon()
        for col in cols:
            ech.insert({r: int(c) for r, c in col.items()})
        assert ech.rank == _fraction_rank(cols)


def _rational_cols(rng, nrows, ncols):
    """Sparse QQ columns with denominators such as 1/3 and 5/7; the last
    column, when there are two or more, is 1/3 col_0 + 5/7 col_1."""
    cols = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            c = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))
            if c and rng.random() < 0.7:
                col[i] = c
        cols.append(col)
    if ncols > 1:
        last = {}
        for i in range(nrows):
            c = Fraction(1, 3) * cols[0].get(i, 0) + Fraction(5, 7) * cols[1].get(i, 0)
            if c:
                last[i] = c
        cols[-1] = last
    return cols


def test_rank_of_columns_matches_fraction_echelon():
    rng = random.Random(3)
    for _ in range(40):
        cols = _rational_cols(rng, rng.randint(1, 6), rng.randint(1, 7))
        assert rank_of_columns(cols, QQ) == _fraction_rank(cols)
        kern = kernel_basis(cols, QQ)
        assert len(kern) == len(cols) - _fraction_rank(cols) == _fraction_kernel_dim(cols)
        for vec in kern:
            for i in {i for col in cols for i in col}:
                assert sum(cols[j].get(i, 0) * c for j, c in vec.items()) == 0


def test_kernel_and_solve_over_prime_field():
    F = GF(101)
    rng = random.Random(13)

    def image(cols, x, i):
        return sum(cols[j].get(i, 0) * c for j, c in x.items()) % 101

    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        cols = []
        for _ in range(ncols):
            col = {i: rng.randrange(1, 101) for i in range(nrows) if rng.random() < 0.7}
            cols.append(col)
        kern = kernel_basis(cols, F)
        assert len(kern) == ncols - rank_of_columns(cols, F)
        assert all(image(cols, vec, i) == 0 for vec in kern for i in range(nrows))
        x = {j: rng.randrange(101) for j in range(ncols)}
        target = {i: image(cols, x, i) for i in range(nrows) if image(cols, x, i)}
        combo = solve_columns(cols, target, F)
        assert all(image(cols, combo, i) == target.get(i, 0) for i in range(nrows))


def test_kernel_basis_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = _random_matrix(rng, nrows, ncols)
        cols = _dense_to_cols(rows)
        kern = kernel_basis(cols, QQ)
        assert len(kern) == ncols - _int_rank(rows)
        for vec in kern:
            for i in range(nrows):
                total = sum(Fraction(rows[i][j]) * c for j, c in vec.items())
                assert total == 0


def test_solve_columns_witness():
    rng = random.Random(9)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_matrix(rng, nrows, ncols)
        cols = _dense_to_cols(rows)
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        target = {}
        for i in range(nrows):
            v = sum(Fraction(rows[i][j]) * x[j] for j in range(ncols))
            if v:
                target[i] = v
        combo = solve_columns(cols, target, QQ)
        assert combo is not None
        for i in range(nrows):
            got = sum(Fraction(rows[i][j]) * combo.get(j, 0) for j in range(ncols))
            assert got == target.get(i, 0)


def test_solve_columns_unsolvable():
    cols = [{0: Fraction(1)}]
    assert solve_columns(cols, {1: Fraction(1)}, QQ) is None


def test_augmented_echelon_dependency_combination():
    # rows 2, 3, 4 are bookkeeping coordinates: the augmented matrix [A | I]
    for field, ech in (
        (QQ, FieldEchelon(QQ, tags=2)),
        (QQ, TaggedIntEchelon(tags=2)),
        (GF(7), FieldEchelon(GF(7), tags=2)),
    ):
        one, two, five = (field.from_int(c) for c in (1, 2, 5))
        assert ech.insert({0: one, 1: two, 2: one}) is None
        assert ech.insert({1: one, 3: one}) is None
        rel = ech.insert({0: two, 1: five, 4: one})
        assert ech.rank == 2
        # c = 2a + b, up to the scale of the relation
        want = {2: field.from_int(-2), 3: field.from_int(-1), 4: one}
        assert {t: field.div(c, rel[4]) for t, c in rel.items()} == want


#: a row may carry two unreduced clears for 2^19 - 1, none for 2^61 - 1
PRIMES = (2, 5, 7, 101, 32003, 2**19 - 1, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize("p", PRIMES + (3, 65521, 2**29 - 3, 2**80 - 65))
def test_fp_echelon_slots_cannot_overflow(p):
    """A slot below p, plus `batch` multiply-adds by residues below p and
    rows carrying `lazy` clears of at most (p-1)^2 each, stays below 2^w."""
    ech = Echelon(GF(p))
    row = (p - 1) + ech.lazy * (p - 1) ** 2
    assert (p - 1) + ech.batch * (p - 1) * row < 2**ech.w
    assert ech.batch >= 64 and ech.w % 64 == 0


def test_fp_echelon_matches_field_echelon():
    # entries at or above p and negative ones are reduced on the way in
    rng = random.Random(43)
    for p in PRIMES:
        F = GF(p)

        def entry():
            return rng.choice((rng.randint(-3 * p, -1), rng.randint(p, 3 * p), rng.randrange(p)))

        for _ in range(30):
            nrows = rng.randint(1, 7)
            ech, ref = Echelon(F), FieldEchelon(F)
            for _ in range(rng.randint(1, 9)):
                col = {i: entry() for i in range(nrows) if rng.random() < 0.5}
                if ech.rank and rng.random() < 0.3:  # in the span, entries times p + 1
                    col = {}
                    for row in ech.reduced_rows():
                        c = rng.randint(-p, p)
                        for i, a in row:
                            col[i] = col.get(i, 0) + (p + 1) * c * a
                # None for a new pivot, else the empty reduced vector
                assert ech.insert(col) == ref.insert(col)
                rows = ech.reduced_rows()
                assert rows == field_reduced_rows(ref)
                assert all(0 < a < p for row in rows for _, a in row)
                assert all(row[0][1] == 1 for row in rows)
            assert ech.rank == ref.rank


@pytest.mark.parametrize("p", PRIMES)
def test_fp_echelon_matches_field_echelon_on_a_wide_span(p):
    """310 pivots, and vectors that touch every one of them.  Each such
    insert adds 310 products of residues into every slot, which outgrows a
    128-bit slot for p = 2^61 - 1 unless the sum is reduced between batches;
    the shuffled order clears new pivots from older rows as well."""
    rng = random.Random(p)
    F = GF(p)
    n, width = 320, 300
    cols = [{i: 1, **{j: rng.randrange(p) for j in range(width, n)}} for i in range(width)]
    cols += [{j: rng.randrange(p) for j in range(width, n) if rng.random() < 0.5} for _ in range(10)]
    rng.shuffle(cols)
    ech, ref = Echelon(F), FieldEchelon(F)
    for col in cols:
        assert ech.insert(col) == ref.insert(col)
    assert ech.rank == ref.rank >= width
    rows = ech.reduced_rows()
    assert rows == field_reduced_rows(ref)
    # in the span, through every pivot: dependent
    inside = {}
    for row in rows:
        c = rng.randrange(1, p)
        for i, a in row:
            inside[i] = inside.get(i, 0) + c * a
    assert ech.insert(inside) == {} and ech.reduced_rows() == rows
    # every pivot, plus unit entries past the span
    wide = {i: rng.randrange(1, p) for i in range(width)}
    wide.update({n + k: 1 for k in range(3)})
    assert ech.insert(wide) is None and ref.insert(wide) is None
    assert ech.reduced_rows() == field_reduced_rows(ref)


@pytest.mark.parametrize("p", PRIMES)
def test_fp_echelon_last_free_index(p):
    """With one index of F_p^n free, a vector is decided at that index
    alone, and the pivot that fills F_p^n leaves the identity; a later
    vector past n makes room again."""
    rng = random.Random(p + 1)
    F = GF(p)
    for n in (1, 2, 3, 6):
        ech, ref = Echelon(F), FieldEchelon(F)
        free = rng.randrange(n)
        # n - 1 vectors, triangular off the index `free`, so that their
        # span misses e_free; each has an entry at `free` as well
        for i in range(n):
            if i != free:
                col = {i: rng.randrange(1, p), free: rng.randrange(p), rng.randrange(i, n): 1}
                assert ech.insert(col) == ref.insert(col)
        assert ech.rank == n - 1
        inside = {}
        for row in ech.reduced_rows():
            c = rng.randint(-p, p)
            for i, a in row:
                inside[i] = inside.get(i, 0) + (p + 1) * c * a
        assert ech.insert(inside) == ref.insert(inside) == {}
        assert ech.reduced_rows() == field_reduced_rows(ref)
        outside = dict(inside)
        outside[free] = outside.get(free, 0) + rng.randrange(1, p)
        assert ech.insert(outside) is None and ref.insert(outside) is None
        assert ech.reduced_rows() == field_reduced_rows(ref) == [[(i, 1)] for i in range(n)]
        assert ech.insert({i: rng.randrange(p) for i in range(n)}) == {}
        past = {0: 1, n + 1: rng.randrange(1, p)}
        assert ech.insert(past) is None and ref.insert(past) is None
        assert ech.reduced_rows() == field_reduced_rows(ref)


def _proportional(int_vec, field_vec):
    """True iff int_vec is a nonzero multiple of field_vec (same support)."""
    if int_vec.keys() != field_vec.keys():
        return False
    if not int_vec:
        return True
    row = min(int_vec)
    ratio = Fraction(int_vec[row]) / field_vec[row]
    return all(int_vec[r] == ratio * field_vec[r] for r in int_vec)


def test_int_echelon_matches_field_echelon_on_large_entries():
    """Entries up to 10^6, many with denominators: each reduction is a
    nonzero multiple of the Fraction echelon's, and every reduced vector and
    pivot is content-free."""
    rng = random.Random(1406)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        ech, ref = IntEchelon(), FieldEchelon(QQ)
        for _ in range(rng.randint(1, 10)):
            col = {}
            for i in range(nrows):
                c = Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 1, 3, 7, 999983)))
                if c and rng.random() < 0.6:
                    col[i] = c
            if ref.rank and rng.random() < 0.3:  # in the span, with new denominators
                col = {}
                for vec in ref.pivots.values():
                    c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9))
                    for i, a in vec.items():
                        col[i] = col.get(i, 0) + c * a
                col = {i: a for i, a in col.items() if a}
            got = ech.reduce(col)
            assert _proportional(got, ref.reduce(col))
            assert not got or math.gcd(*got.values()) == 1
            assert (ech.insert(col) is None) == (ref.insert(col) is None)
            assert ech.pivots.keys() == ref.pivots.keys()
            for row, vec in ech.pivots.items():
                assert math.gcd(*vec.values()) == 1
                assert _proportional(vec, ref.pivots[row])
        assert ech.rank == ref.rank


def test_int_echelon_rank_known():
    assert _int_rank([[1, 2], [2, 4]]) == 1
    assert _int_rank([[1, 0], [0, 1]]) == 2
    assert _int_rank([[0, 0], [0, 0]]) == 0


def test_int_echelon_clears_denominators():
    def rank(rows):
        ech = IntEchelon()
        for col in _dense_to_cols(rows):
            ech.insert(col)
        return ech.rank

    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rank(rows) == 2
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank(singular) == 1


def _det_by_permutations(grid, ring):
    n = len(grid)
    total = ring.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ring.one()
        for i in range(n):
            term = term * grid[i][perm[i]]
        total = total + (term if sign == 1 else -term)
    return total


def _det(grid, ring):
    """The determinant of a square grid, by `Laplace` on all its rows and columns."""
    n = len(grid)
    return Laplace(grid, ring).det(range(n), range(n))


def test_poly_det_matches_permutation_expansion(ring):
    rng = random.Random(11)
    gens = ring.gens()
    for _ in range(10):
        n = rng.randint(1, 3)
        grid = [
            [
                gens[rng.randrange(4)].scale(QQ.from_int(rng.randint(-2, 2)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert _det(grid, ring) == _det_by_permutations(grid, ring)


def test_poly_det_empty_matrix(ring):
    assert _det([], ring) == ring.one()


def test_poly_det_fraction_coefficients(ring):
    # rows are scaled to integers and the determinant divided back
    half_x0 = ring.parse("1/2*x0")
    x1 = ring.parse("x1")
    grid = [[half_x0, x1], [x1, half_x0]]
    assert _det(grid, ring) == ring.parse("1/4*x0^2 - x1^2")


def _cofactor_det(grid, ring):
    """Reference: cofactor expansion along the first row, in Polynomial
    arithmetic over the ring's field."""
    if not grid:
        return ring.one()
    total = ring.zero()
    for j, e in enumerate(grid[0]):
        if e.is_zero():
            continue
        term = e * _cofactor_det([row[:j] + row[j + 1 :] for row in grid[1:]], ring)
        total = total - term if j % 2 else total + term
    return total


def _random_form(ring, rng, degree, coeffs):
    """Seeded form of the given degree with a few terms, possibly zero."""
    monos = ring.monomials_of_degree(degree)
    acc = {}  # a monomial drawn twice adds up
    for _ in range(rng.randint(0, 3)):
        m = rng.choice(monos)
        acc[m] = acc.get(m, 0) + rng.choice(coeffs)
    return ring.from_keys(acc)


def _qq_coeffs():
    return [Fraction(1, 3), Fraction(5, 7), Fraction(-5, 7), Fraction(2), Fraction(-1), Fraction(0)]


def _random_grid(ring, rng, n, coeffs):
    # entry degrees a_i + b_j keep every minor homogeneous
    a = [rng.randint(0, 1) for _ in range(n)]
    b = [rng.randint(0, 1) for _ in range(n)]
    return [[_random_form(ring, rng, a[i] + b[j], coeffs) for j in range(n)] for i in range(n)]


def test_poly_det_matches_cofactor_expansion_over_qq(ring):
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        grid = _random_grid(ring, rng, n, _qq_coeffs())
        assert _det(grid, ring) == _cofactor_det(grid, ring)


def test_poly_det_matches_cofactor_expansion_over_fp():
    rng = random.Random(37)
    for p in (5, 32003):
        ring = PolyRing(("x0", "x1", "x2", "x3"), GF(p))
        field = ring.field
        coeffs = [field.from_int(c) for c in (1, 2, p - 1, p - 2, 3)]
        for _ in range(40):
            n = rng.randint(1, 4)
            grid = _random_grid(ring, rng, n, coeffs)
            det = _det(grid, ring)
            assert det == _cofactor_det(grid, ring)
            assert all(type(c) is int and 0 < c < p for _, c in det.terms)


def test_shared_laplace_minors_match_poly_det():
    rng = random.Random(41)
    for field, coeffs in ((QQ, _qq_coeffs()), (GF(32003), [1, 2, 32002, 7])):
        ring = PolyRing(("x0", "x1", "x2", "x3"), field)
        for _ in range(6):
            nrows, ncols = rng.randint(1, 3), rng.randint(3, 5)
            a = [rng.randint(0, 1) for _ in range(nrows)]
            b = [rng.randint(1, 2) for _ in range(ncols)]
            polys = [
                [_random_form(ring, rng, b[j] - a[i], coeffs) for j in range(ncols)]
                for i in range(nrows)
            ]
            mat = matrix_from_polys(ring, polys, a, b)
            for s in range(1, min(nrows, ncols) + 1):
                want = []
                for rows in combinations(range(nrows), s):
                    for cols in combinations(range(ncols), s):
                        det = _det([[polys[i][j] for j in cols] for i in rows], ring)
                        if not det.is_zero():
                            want.append(det)
                assert list(_laplace_minors(mat, s).generators) == want


def test_poly_det_past_the_degree_limit_raises():
    # x0^40000 - x1^2 would overflow the packed fields
    for field in (QQ, GF(32003)):
        ring = PolyRing(("x0", "x1", "x2"), field)
        a, b = ring.parse("x0^20000"), ring.parse("x1")
        with pytest.raises(RingError):
            _det([[a, b], [b, a]], ring)
        half = ring.parse("x0^16000")
        assert _det([[half, b], [b, half]], ring) == half * half - b * b


def test_poly_det_checks_every_sub_minor():
    # equal columns make the determinant 0, but its 2x2 sub-minors reach
    # degree 40000, past what a packed key can hold
    ring = PolyRing(("x0", "x1", "x2", "x3"))
    a, b, c, d = (ring.parse(s) for s in ("x0^20000", "x2", "x3", "x1^20000"))
    one, zero = ring.one(), ring.zero()
    with pytest.raises(RingError):
        _det([[one, one, zero], [a, a, b], [c, c, d]], ring)
