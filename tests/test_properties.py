"""Randomized and deep-shape property suites.

The bundled fixtures are all 1- or 2-row matrices; these tests push the
complex builders through taller shapes (deeper symmetric powers in the
dual factor) and pin the two exact rank engines against each other on
random homogeneous matrices.
"""

import random
from math import comb

from detschemes import (
    Coker,
    GF,
    GradedFreeModule,
    HomogeneousMatrix,
    Ker,
    PolyRing,
    buchsbaum_rim,
    classify,
    eagon_northcott,
    graded_exactness_check,
    hilbert_function,
    piece_rank,
    presentation_from_strings,
    verify_complex,
)
from detschemes.determinantal import DeterminantalPresentation
from detschemes.ring import random_homogeneous


def _random_linear_matrix(ring, rng, nrows, ncols):
    rows = [
        [random_homogeneous(ring, 1, rng) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    target = GradedFreeModule(ring, (0,) * nrows)
    source = GradedFreeModule(ring, (1,) * ncols)
    return DeterminantalPresentation(HomogeneousMatrix(target, source, rows))


def test_en_br_on_three_by_five(ring):
    rng = random.Random(101)
    pres = _random_linear_matrix(ring, rng, 3, 5)
    en = eagon_northcott(pres)
    br = buchsbaum_rim(pres)
    assert en.ranks == (1, 10, 15, 6)
    assert br.ranks == (3, 5, 5, 3)
    assert sum((-1) ** i * r for i, r in enumerate(en.ranks)) == 0
    assert sum((-1) ** i * r for i, r in enumerate(br.ranks)) == 0
    assert verify_complex(en)
    assert verify_complex(br)
    assert en.modules[-1].rank == comb(pres.r + pres.t - 1, pres.r)
    # dimension-count acyclicity certificate through degree 6
    assert graded_exactness_check(en, range(7)).all_exact
    assert graded_exactness_check(br, range(7)).all_exact


def test_en_br_on_two_by_five(ring):
    rng = random.Random(102)
    pres = _random_linear_matrix(ring, rng, 2, 5)
    rep = classify(pres)
    assert rep.is_standard and rep.empty_scheme  # codim 4 = n + 1 on P^3
    en = eagon_northcott(pres)
    br = buchsbaum_rim(pres)
    assert en.ranks == (1, 10, 20, 15, 4)
    assert br.ranks == (2, 5, 10, 10, 3)
    assert sum((-1) ** i * r for i, r in enumerate(en.ranks)) == 0
    assert sum((-1) ** i * r for i, r in enumerate(br.ranks)) == 0
    assert verify_complex(en)
    assert verify_complex(br)
    assert graded_exactness_check(en, range(7)).all_exact
    assert graded_exactness_check(br, range(7)).all_exact


def test_en_br_with_quadric_entries(ring):
    # mixed machinery on non-linear entries: a 2x3 matrix of quadrics
    rng = random.Random(103)
    rows = [
        [random_homogeneous(ring, 2, rng) for _ in range(3)] for _ in range(2)
    ]
    target = GradedFreeModule(ring, (0, 0))
    source = GradedFreeModule(ring, (2, 2, 2))
    pres = DeterminantalPresentation(HomogeneousMatrix(target, source, rows))
    en = eagon_northcott(pres)
    br = buchsbaum_rim(pres)
    assert verify_complex(en) and verify_complex(br)
    assert [m.twists for m in en.modules] == [(0,), (4, 4, 4), (6, 6)]
    if classify(pres).is_standard:
        assert graded_exactness_check(en, range(9)).all_exact


def _random_matrix(ring, rng, row_twists, col_twists, zero_cols=()):
    rows = [
        [
            ring.zero() if j in zero_cols
            else random_homogeneous(ring, b - a, rng, allow_zero=True)
            for j, b in enumerate(col_twists)
        ]
        for a in row_twists
    ]
    return HomogeneousMatrix(
        GradedFreeModule(ring, row_twists), GradedFreeModule(ring, col_twists), rows
    )


def test_rank_engines_agree_on_random_matrices(ring):
    rng = random.Random(104)
    phis = []
    for _ in range(6):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(nrows, 4)
        degree = rng.randint(1, 2)
        phis.append(_random_matrix(ring, rng, (0,) * nrows, (degree,) * ncols))
    # mixed target twists, where the idealization ideal of the column
    # module is not homogeneous in the standard grading; both prime fields;
    # three rows; a zero column; and the zero matrix, whose idealization
    # holds only the products e_i e_k
    f5 = PolyRing(ring.variables, GF(5))
    f32003 = PolyRing(ring.variables, GF(32003))
    phis += [
        _random_matrix(ring, rng, (0, -1), (1, 1, 2)),
        _random_matrix(ring, rng, (1, 0, 0), (2, 2, 2)),
        _random_matrix(f5, rng, (0, 1), (1, 2, 2)),
        _random_matrix(f5, rng, (0, 0, 0), (1, 1, 1, 1)),
        _random_matrix(f32003, rng, (-1, 0, 0), (1, 1, 1)),
        _random_matrix(f32003, rng, (0, 0), (1, 2, 1), zero_cols=(1,)),
        _random_matrix(ring, rng, (0, 0, 0), (1, 1, 1, 1), zero_cols=(2,)),
        _random_matrix(ring, rng, (0, 1), (1, 2, 2), zero_cols=(0, 1, 2)),
    ]
    for phi in phis:
        low = min(phi.target.twists)
        for d in range(low, low + 6):
            assert piece_rank(phi, d, "echelon") == piece_rank(phi, d, "groebner")


def test_br_tail_resolves_kernel(ring, double_point):
    # the tail of the Buchsbaum-Rim complex resolves ker Φ: at each degree
    # HF(ker Φ) equals the alternating sum over the tail modules
    br = buchsbaum_rim(double_point)
    phi = double_point.matrix
    tail = br.modules[2:]
    for d in range(9):
        alt = sum((-1) ** i * m.dim(d) for i, m in enumerate(tail))
        assert alt == hilbert_function(Ker(phi), d)


def test_zero_column_matrix(ring):
    pres = presentation_from_strings(ring, [["x0", "x1", "0"], ["x1", "x2", "0"]])
    en = eagon_northcott(pres)
    br = buchsbaum_rim(pres)
    assert verify_complex(en) and verify_complex(br)
    # the zero column contributes zero minors; classification is still total
    rep = classify(pres)
    assert rep.expected_codim == 2


def test_generalized_deletion_rejects_mixed_twists(ring):
    from detschemes import generalized_deletion
    from detschemes.errors import InputError
    import pytest

    # rows of different twists: linear row and quadric row
    pres = presentation_from_strings(ring, [["x0", "x1"], ["x0^2", "x1^2"]])
    assert pres.matrix.target.twists == (0, -1)
    with pytest.raises(InputError):
        generalized_deletion(pres, (1, 1))


def test_classification_report_invariants(
    ring, double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    rng = random.Random(105)
    samples = [
        double_point,
        cubic_curve,
        coordinate_axes,
        ci_codim2,
        ci_codim3,
        generic_2x4,
    ]
    for _ in range(4):
        nrows = rng.randint(1, 2)
        samples.append(_random_linear_matrix(ring, rng, nrows, nrows + rng.randint(0, 2)))
    for pres in samples:
        rep = classify(pres)
        if rep.is_good:
            assert rep.is_standard
        if rep.t == 1 and rep.is_standard:
            assert rep.is_good


def test_find_generalized_row_not_found_contract(coordinate_axes, monkeypatch):
    from detschemes import determinantal, find_generalized_row

    # literal rows fail on the axes; with zero random trials the search
    # reports not-found without refuting goodness
    monkeypatch.setattr(determinantal, "_WITNESS_TRIALS", 0)
    assert find_generalized_row(coordinate_axes, seed=1) is None


def test_concurrent_classification_is_deterministic(
    ring, double_point, cubic_curve, coordinate_axes, generic_2x4
):
    # operations are pure over immutable values; concurrent use must agree
    # with sequential results
    from concurrent.futures import ThreadPoolExecutor

    presentations = [double_point, cubic_curve, coordinate_axes, generic_2x4] * 3
    sequential = [classify(p) for p in presentations]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(classify, presentations))
    assert concurrent == sequential


def test_exactness_over_prime_field():
    big = PolyRing(("x0", "x1", "x2", "x3"), GF(32003))
    pres = presentation_from_strings(
        big, [["x1", "x2", "x3", "0"], ["0", "x1", "x2", "x3"]]
    )
    en = eagon_northcott(pres)
    assert verify_complex(en)
    assert graded_exactness_check(en, range(8)).all_exact
    for d in range(5):
        assert piece_rank(pres.matrix, d, "echelon") == piece_rank(
            pres.matrix, d, "groebner"
        )
    assert [
        hilbert_function(Coker(pres.matrix), d) for d in range(5)
    ] == [2, 4, 4, 4, 4]
