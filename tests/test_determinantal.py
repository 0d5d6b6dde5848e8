import math
import random
from fractions import Fraction

import pytest

from detschemes import (
    Coker,
    DeterminantalPresentation,
    augment_general_row,
    build_flag,
    classify,
    delete_row,
    find_generalized_row,
    generalized_deletion,
    hilbert_function,
    ideal,
    ideal_contained,
    ideals_equal,
    minimal_generator_count,
    minors,
    presentation_from_strings,
    quotient_hilbert_function,
    section_sequence,
)
from detschemes import determinantal, groebner
from detschemes.cli import FIXTURE_NAMES, fixture_path, parse_problem_text
from detschemes.determinantal import (
    _MINORS_CACHE,
    _certified_height,
    _laplace_minors,
    _minors_height,
    _verify_deletion,
    extends_by_one_row,
)
from detschemes.grading import GradedFreeModule, HomogeneousMatrix
from detschemes.groebner import buchberger, ensure_gb, height, stored_basis
from detschemes.field import GF, QQ
from detschemes.memo import Memo
from detschemes.ring import PolyRing, random_homogeneous
from detschemes.errors import InputError, VerificationError
from hilbert_reference import coordinate_change as _coordinate_change
from hilbert_reference import substitute as _substitute
from math import comb


def test_minors_double_point_exact_list(ring, double_point):
    gens = [str(g) for g in minors(double_point, 2).generators]
    assert gens == ["x1^2", "x1*x2", "x1*x3", "x2^2 - x1*x3", "x2*x3", "x3^2"]


def test_minors_axes_ideal(ring, coordinate_axes):
    I = minors(coordinate_axes, 2)
    assert ideals_equal(I, ideal(ring, "x2*x3", "x1*x3", "x1*x2"))


def test_minors_size_one_is_entry_ideal(ring, double_point):
    I = minors(double_point, 1)
    assert ideals_equal(I, ideal(ring, "x1", "x2", "x3"))


def test_minors_out_of_range(double_point):
    with pytest.raises(InputError):
        minors(double_point, 3)
    with pytest.raises(InputError):
        minors(double_point, 0)


def test_classify_double_point(double_point):
    rep = classify(double_point)
    assert rep.expected_codim == 3
    assert rep.actual_height == 3
    assert rep.submaximal_height == 3  # < r + 2 = 4
    assert rep.is_standard and not rep.is_good
    assert not rep.empty_scheme


def test_classify_cubic_curve(cubic_curve):
    rep = classify(cubic_curve)
    assert rep.actual_height == 2 and rep.submaximal_height == 4
    assert rep.is_standard and rep.is_good


def test_classify_t1_convention(ring):
    P = presentation_from_strings(ring, [["x0", "x1"]])
    rep = classify(P)
    assert rep.t == 1 and rep.r == 1
    assert rep.is_standard and rep.is_good
    assert rep.submaximal_height == math.inf


def test_classify_empty_scheme(ring):
    P = presentation_from_strings(ring, [["x0", "x1", "x2", "x3"]])
    rep = classify(P)
    assert rep.expected_codim == 4 and rep.actual_height == 4
    assert rep.is_standard and rep.empty_scheme


def test_classify_determinism_under_permutation(ring, double_point):
    rows = [["0", "x1", "x2", "x3"], ["x1", "x2", "x3", "0"]]
    swapped = presentation_from_strings(ring, rows)
    a, b = classify(double_point), classify(swapped)
    assert (a.is_standard, a.is_good, a.actual_height) == (
        b.is_standard,
        b.is_good,
        b.actual_height,
    )
    cols = [["x3", "x2", "x1", "0"], ["x2", "x1", "0", "x3"]]
    permuted = presentation_from_strings(ring, cols)
    c = classify(permuted)
    assert (a.is_standard, a.is_good, a.actual_height) == (
        c.is_standard,
        c.is_good,
        c.actual_height,
    )


def test_generalized_row_cubic_curve_literal(cubic_curve):
    w = find_generalized_row(cubic_curve, seed=3)
    assert w is not None and w.verified
    assert w.literal_row == 1
    assert w.row_combination == (0, 1)


def test_generalized_row_axes_requires_combination(coordinate_axes):
    # both literal deletions leave height-2 entry ideals: too small
    for i in (0, 1):
        ok, ht = _verify_deletion(coordinate_axes, delete_row(coordinate_axes, i))
        assert not ok and ht == 2
    w = find_generalized_row(coordinate_axes, seed=3)
    assert w is not None and w.verified
    assert w.literal_row is None
    assert sum(1 for c in w.row_combination if c) == 2
    deleted = generalized_deletion(coordinate_axes, w.row_combination, w.seed)
    ok, ht = _verify_deletion(coordinate_axes, deleted)
    assert ok and ht == 3


def test_generalized_row_t1_trivial(ci_codim3):
    w = find_generalized_row(ci_codim3)
    assert w is not None and w.verified and w.row_combination == (1,)


def test_generalized_row_requires_good(double_point):
    with pytest.raises(InputError):
        find_generalized_row(double_point)


def test_goodness_consistency(cubic_curve, coordinate_axes, generic_2x4):
    # a verified witness can only occur on a good presentation
    for pres in (cubic_curve, coordinate_axes, generic_2x4):
        w = find_generalized_row(pres, seed=1)
        assert w is not None and w.verified
        assert classify(pres).is_good


def test_augment_ci_row(ring, ci_codim3):
    psi = augment_general_row(ci_codim3, seed=2)
    rep = classify(psi)
    assert psi.t == 2 and psi.r == 1
    assert rep.is_good and rep.expected_codim == 2


def test_augment_double_point(ring, double_point):
    psi = augment_general_row(double_point, seed=2)
    rep = classify(psi)
    assert psi.t == 3 and rep.is_good and rep.expected_codim == 2
    # each 3x3 minor expands along the new row into 2x2 minors
    assert ideal_contained(minors(psi, 3), minors(double_point, 2))


def test_augment_infeasible_twist(double_point):
    with pytest.raises(InputError):
        augment_general_row(double_point, row_twist=5)


def test_augment_square_rejected(ring):
    square = presentation_from_strings(ring, [["x0", "x1"], ["x2", "x3"]])
    with pytest.raises(InputError):
        augment_general_row(square)


def test_flag_cubic_curve(cubic_curve):
    flag = build_flag(cubic_curve, seed=5)
    assert flag.codims == (2, 1)
    assert flag.all_good and flag.containments_ok


def test_flag_complete_intersection(ci_codim3, fresh_gb_table):
    flag = build_flag(ci_codim3, seed=5)
    assert flag.codims == (3, 2, 1)
    assert flag.all_good and flag.containments_ok
    for stage in flag.stages[1:]:
        assert stage.containment_ok
        # seeded stages do not recur: their ideals and bases are not memoized
        m = stage.presentation.matrix
        assert (m, m.nrows) not in _MINORS_CACHE
        assert stored_basis(_laplace_minors(m, m.nrows)) is None


def test_flag_containment_certificate_matches_normal_forms(cubic_curve, ci_codim3):
    """The structural certificate against ideal_contained on seeded flags."""
    for P in (cubic_curve, ci_codim3):
        for seed in (1, 2, 3):
            flag = build_flag(P, seed=seed)
            for prev, stage in zip(flag.stages, flag.stages[1:]):
                psi, phi = stage.presentation, prev.presentation
                assert stage.containment_ok and extends_by_one_row(psi, phi)
                assert ideal_contained(
                    _laplace_minors(psi.matrix, psi.t), _laplace_minors(phi.matrix, phi.t)
                )


def test_containment_certificate_rejects_non_extending_matrices(ring, cubic_curve):
    flag = build_flag(cubic_curve, seed=1)
    psi = flag.stages[1].presentation.matrix
    phi = cubic_curve.matrix
    assert not extends_by_one_row(phi, phi)  # no extra row
    assert not extends_by_one_row(psi, psi)
    # change one entry of an inherited row: the ideal leaves I(phi) as well
    rows = [list(row) for row in psi.entries]
    rows[0][0] = ring.parse("x3")
    bad = HomogeneousMatrix(psi.target, psi.source, rows)
    assert not extends_by_one_row(bad, phi)
    assert not ideal_contained(_laplace_minors(bad, 3), _laplace_minors(phi, 2))
    # the same rows with other twists do not extend phi either
    shifted = HomogeneousMatrix(
        GradedFreeModule(ring, tuple(t + 1 for t in psi.target.twists)),
        GradedFreeModule(ring, tuple(t + 1 for t in psi.source.twists)),
        psi.entries,
    )
    assert not extends_by_one_row(shifted, phi)


def test_flag_degenerate_square(ring):
    square = presentation_from_strings(ring, [["x0", "x1"], ["x2", "x3"]])
    assert classify(square).is_good
    flag = build_flag(square, seed=1)
    assert flag.codims == (1,)
    assert len(flag.stages) == 1


def test_section_sequence_double_point_augmented(double_point):
    psi = augment_general_row(double_point, seed=11)
    seq = section_sequence(psi, deleted_row=2, d_max=10)
    assert seq.twist == 0
    assert seq.additivity_ok
    # deleting the added row recovers the original matrix
    assert seq.deleted_matrix.entries == double_point.matrix.entries
    # the seeded psi will not recur, so its minors are not memoized
    assert (psi.matrix, psi.t) not in _MINORS_CACHE


def test_section_sequence_rejects_bad_deletion(coordinate_axes):
    # deleting a literal row of the axes matrix leaves an entry ideal of
    # height 2, not the required codimension 3
    with pytest.raises(VerificationError):
        section_sequence(coordinate_axes, deleted_row=0, d_max=4)


def test_section_sequence_zero_dimensional_tail(generic_2x4):
    # for a zero-dimensional scheme the cokernel and the coordinate ring
    # have eventually constant difference of Hilbert functions
    I = minors(generic_2x4, 2)
    diffs = [
        hilbert_function(Coker(generic_2x4.matrix), d) - quotient_hilbert_function(I, d)
        for d in range(6, 11)
    ]
    assert len(set(diffs)) == 1


def test_minor_containment_chain(double_point, cubic_curve, generic_2x4):
    for pres in (double_point, cubic_curve, generic_2x4):
        for s in range(2, pres.t + 1):
            assert ideal_contained(minors(pres, s), minors(pres, s - 1))


def test_generator_count_binomial(double_point, cubic_curve, ci_codim2, ci_codim3, generic_2x4):
    for pres in (double_point, cubic_curve, ci_codim2, ci_codim3, generic_2x4):
        counts = minimal_generator_count(minors(pres, pres.t))
        assert sum(counts.values()) == comb(pres.t + pres.r, pres.r)


def test_presentation_shape_validation(ring):
    with pytest.raises(InputError):
        presentation_from_strings(ring, [["x0"], ["x1"]])  # 2x1: fewer cols than rows


def test_twisted_cubic_classifies_good(ring):
    # the rational normal curve of degree 3: HF(R/I, d) = 3d + 1
    P = presentation_from_strings(ring, [["x0", "x1", "x2"], ["x1", "x2", "x3"]])
    rep = classify(P)
    assert rep.is_standard and rep.is_good
    assert rep.actual_height == 2 and rep.submaximal_height == 4
    I = minors(P, 2)
    for d in range(1, 9):
        assert quotient_hilbert_function(I, d) == 3 * d + 1


def test_classify_memoizes_only_the_verdict(ring, fresh_gb_table):
    fresh = presentation_from_strings(
        ring, [["x0", "x1 + x3", "x2"], ["x1", "x2", "x3 - x0"]]
    )
    rep = classify(fresh)
    ideals = [_laplace_minors(fresh.matrix, s) for s in (1, 2)]
    assert (fresh.matrix, 1) not in _MINORS_CACHE and (fresh.matrix, 2) not in _MINORS_CACHE
    assert len(fresh_gb_table) == 0 and all(stored_basis(I) is None for I in ideals)
    assert classify(fresh) is rep
    # the same report as from minors and bases computed through the tables
    want = (2, 2, 4, True, True, False, 2, 1)
    got = (rep.expected_codim, rep.actual_height, rep.submaximal_height,
           rep.is_standard, rep.is_good, rep.empty_scheme, rep.t, rep.r)
    assert got == want
    assert height(ensure_gb(minors(fresh, 2))) == rep.actual_height
    assert height(ensure_gb(minors(fresh, 1))) == rep.submaximal_height


def test_minors_and_classify_past_the_degree_limit_raise(ring):
    from detschemes.ring import RingError

    rows = [
        ["x0^20000", "x1^20000", "x2^20000"],
        ["x1^20000", "x2^20000", "x3^20000"],
    ]
    P = presentation_from_strings(ring, rows)
    with pytest.raises(RingError):
        minors(P, 2)
    with pytest.raises(RingError):
        classify(P)


# -- certified heights --------------------------------------------------------------------


def _full_height(P, s):
    return height(buchberger(_laplace_minors(P.matrix, s)))


def _assert_certified_heights_exact(P):
    """Every certified height is the Groebner height; returns how many were."""
    m = P.matrix
    certified = 0
    for s in {P.t, P.t - 1} - {0}:
        want = _full_height(P, s)
        got = _certified_height(m, s)
        assert got in (None, want), (m, s, got, want)
        certified += got is not None
        assert _minors_height(P, s) == want
    return certified


def _generic_block(rng, nvars, row_twists, col_twists, denominators=False, field=QQ):
    """Seeded dense forms over `field`, with coefficients c/d when `denominators`."""
    ring = PolyRing(tuple(f"x{i}" for i in range(nvars)), field)
    rows = []
    for a in row_twists:
        row = []
        for b in col_twists:
            row.append(ring.from_keys({
                mono: field.from_fraction(rng.randint(-10, 10),
                                          rng.randint(1, 9) if denominators else 1)
                for mono in ring.monomials_of_degree(b - a)
            }))
        rows.append(row)
    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, row_twists), GradedFreeModule(ring, col_twists), rows
    ))


_GENERIC_SHAPES = (
    (4, (0,), (1, 1)), (4, (0,), (1, 2, 2)), (5, (0,), (1, 1, 1)),
    (4, (0, 0), (1, 1, 1)), (4, (0, 0), (1, 1, 2)), (5, (0, 0), (1, 1, 1, 1)),
    (4, (0, 1), (2, 2, 2)), (4, (0, 0, 0), (1, 1, 1, 1)),
)


def test_certified_height_equals_the_groebner_height_on_fixtures(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    rng = random.Random(20261017)
    fixtures = (double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4)
    certified = 0
    for P in fixtures:
        certified += _assert_certified_heights_exact(P)
        for _ in range(2):
            certified += _assert_certified_heights_exact(_substitute(P, _coordinate_change(rng)))
    assert certified > 0


@pytest.mark.parametrize("denominators", (False, True))
def test_certified_height_equals_the_groebner_height_on_generic_blocks(denominators):
    rng = random.Random(7 + denominators)
    for nvars, rows, cols in _GENERIC_SHAPES:
        P = _generic_block(rng, nvars, rows, cols, denominators)
        # generic heights meet the Eagon-Northcott bound: all are certified
        assert _assert_certified_heights_exact(P) == len({P.t, P.t - 1} - {0})


def test_certified_height_falls_back_when_every_entry_vanishes_mod_p(ring, cubic_curve):
    rows = [[f.scale(Fraction(32003)) for f in row] for row in cubic_curve.matrix.entries]
    P = DeterminantalPresentation(
        HomogeneousMatrix(cubic_curve.matrix.target, cubic_curve.matrix.source, rows)
    )
    for s in (1, 2):
        assert _certified_height(P.matrix, s) is None  # J_p = 0 gives 0 < upper
        assert _minors_height(P, s) == _full_height(cubic_curve, s)
    assert classify(P).is_good


def test_a_constant_minor_is_never_certified(ring):
    # the constant 32003 makes I_1 the unit ideal, while mod p the entries
    # leave (x0, x1, x2, x3), whose height 4 meets the bound min(2*3, nvars)
    P = presentation_from_strings(ring, [["32003", "x0", "x1"], ["0", "x3", "x2"]])
    assert _certified_height(P.matrix, 1) is None
    assert _minors_height(P, 1) == math.inf
    assert _minors_height(P, 2) == _full_height(P, 2) == 2
    rep = classify(P)
    assert rep.submaximal_height == math.inf and rep.is_good
    # a maximal minor equal to 1 makes I_t the unit ideal, while the point
    # (square) or the line alone would report the bound
    for rows in ([["1", "x0"], ["0", "1"]], [["1", "0", "x0"], ["0", "1", "x1"]]):
        P = presentation_from_strings(ring, rows)
        assert determinantal._point_or_line(P.matrix, P.t, P.r + 1)
        assert _certified_height(P.matrix, P.t) is None
        assert _minors_height(P, P.t) == _full_height(P, P.t) == math.inf


def test_special_fixtures_fall_back_for_their_submaximal_height(double_point, coordinate_axes):
    for P in (double_point, coordinate_axes):
        assert _certified_height(P.matrix, 1) is None
        assert _certified_height(P.matrix, 2) == _full_height(P, 2)
        assert _minors_height(P, 1) == _full_height(P, 1) == 3


def test_augmentation_and_flags_run_no_buchberger_over_qq(monkeypatch):
    calls = []
    original = groebner._buchberger

    def counted(span, ring, *rest):
        calls.append(ring.field.characteristic)
        return original(span, ring, *rest)

    P = _generic_block(random.Random(3), 4, (0, 0), (1, 1, 1))
    assert classify(P).is_good
    monkeypatch.setattr(groebner, "_buchberger", counted)
    psi = augment_general_row(P, seed=4)
    flag = build_flag(P, seed=5)
    assert classify(psi).is_good and flag.all_good and flag.containments_ok
    # the 3x3 stages after P have height 1, which a point decides
    assert calls == []


# -- heights from a point and a line --------------------------------------------------------

#: QQ without and with denominators, a large prime and two small ones
_LOW_FIELDS = ((QQ, False), (QQ, True), (GF(32003), False), (GF(7), False), (GF(5), False))
_LOW_IDS = ("QQ", "QQ-denominators", "F32003", "F7", "F5")
#: square generic shapes, whose determinants have bound 1
_SQUARE_SHAPES = ((4, (0,), (2,)), (4, (0, 0), (1, 1)), (4, (0, 1), (1, 2)),
                  (5, (0, 0), (1, 2)), (4, (0, 0, 0), (1, 1, 1)))


def _over(P, field):
    """P with its coefficients read in `field`."""
    ring = PolyRing(P.ring.variables, field)
    rows = [[ring.from_keys({k: field.from_fraction(c.numerator, c.denominator)
                             for k, c in f.terms})
             for f in row] for row in P.matrix.entries]
    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, P.matrix.target.twists),
        GradedFreeModule(ring, P.matrix.source.twists), rows,
    ))


def _low_cases(field, denominators, fixtures):
    """Every fixture and two coordinate changes of each, over `field`, then
    seeded generic and square blocks."""
    rng = random.Random(30)
    for P in fixtures:
        P = _over(P, field)
        yield P
        for _ in range(2):
            yield _substitute(P, _coordinate_change(rng))
    for nvars, rows, cols in _GENERIC_SHAPES + _SQUARE_SHAPES:
        yield _generic_block(rng, nvars, rows, cols, denominators, field)


@pytest.mark.parametrize(("field", "denominators"), _LOW_FIELDS, ids=_LOW_IDS)
def test_point_and_line_heights_equal_the_groebner_height(
    field, denominators, double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3,
    generic_2x4, monkeypatch,
):
    fixtures = (double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4)
    decided = []
    original = determinantal._point_or_line

    def spy(m, s, upper):
        decided.append(original(m, s, upper))
        return decided[-1]

    monkeypatch.setattr(determinantal, "_point_or_line", spy)
    for P in _low_cases(field, denominators, fixtures):
        for s in range(1, P.t + 1):
            want = _full_height(P, s)
            got = _certified_height(P.matrix, s)
            assert got in (None, want), (P.matrix.entries, s, got, want)
            assert _minors_height(P, s) == want
    assert any(decided)


def _seeded_forms(ring):
    """A linear form h in two variables with h(a) = 0 and h(b) != 0, and
    L1, L2 with L(a) = L(b) = 0, for the seeded line {a u + b} of the
    ring's field."""
    field = ring.field
    p = field.characteristic or determinantal._MOD_P_FIELD.p
    a, b = determinantal._seeded_line(ring.nvars, p)

    def form(coeffs):
        coeffs = [c % p for c in coeffs]
        return sum((ring.variable(i).scale(field.from_int(c)) for i, c in enumerate(coeffs) if c),
                   ring.zero())

    def cross(i, j, k):
        c = [0] * ring.nvars
        c[i], c[j], c[k] = (a[j] * b[k] - a[k] * b[j], a[k] * b[i] - a[i] * b[k],
                            a[i] * b[j] - a[j] * b[i])
        return c

    # h = a_j x_i - a_i x_j on the first pair with a_i, a_j and h(b) nonzero
    h = next(c for i in range(ring.nvars) for j in range(i + 1, ring.nvars)
             for c in [[a[j] if k == i else -a[i] if k == j else 0 for k in range(ring.nvars)]]
             if a[i] and a[j] and sum(ck * x for ck, x in zip(c, b)) % p)
    l1, l2 = cross(0, 1, 2), cross(1, 2, 3)
    assert any(c % p for c in l1) and any(c % p for c in l2)
    return form(h), form(l1), form(l2)


def _matrix(ring, rows, row_twists, col_twists):
    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, row_twists), GradedFreeModule(ring, col_twists), rows
    ))


@pytest.mark.parametrize("field", (QQ, GF(32003), GF(7), GF(5)), ids=("QQ", "F32003", "F7", "F5"))
def test_degenerate_points_and_lines_fall_back_to_the_groebner_height(field):
    ring = PolyRing(("x0", "x1", "x2", "x3"), field)
    x0, x1, x2, x3 = ring.gens()
    h, l1, l2 = _seeded_forms(ring)
    cases = {
        # shared factor: I_2 = (x3 - x2)(x0, x1), ht 1
        "shared factor": ([[x0, x1, x2], [x0, x1, x3]], (0, 0), (1, 1, 1), 2, False, 1),
        # minors x0*h and x1*h: coprime on the line, both vanish at infinity
        "at infinity": ([[x0, x1, x2], [x0, x1, x2 + h]], (0, 0), (1, 1, 1), 2, False, 1),
        # h*x1 and h*x3 vanish at infinity, x1*x2 keeps its degree: ht 2
        "one minor at infinity": (
            [[h, ring.zero(), x2], [ring.zero(), x1, x3]], (0, 0), (1, 1, 1), 2, True, 2),
        # I_2 = (L1, L2)^2: every minor is zero on the line
        "zero on the line": (
            [[l1, l2, ring.zero()], [ring.zero(), l1, l2]], (0, 0), (1, 1, 1), 2, False, 2),
        # det = h*x2 is zero at the point
        "rank drop": ([[h, ring.zero()], [ring.zero(), x2]], (0, 0), (1, 1), 1, False, 1),
        "nonsingular square": ([[x0, x1], [x2, x3]], (0, 0), (1, 1), 1, True, 1),
    }
    for name, (rows, row_tw, col_tw, upper, decided, ht) in cases.items():
        P = _matrix(ring, rows, row_tw, col_tw)
        got = determinantal._point_or_line(P.matrix, P.t, upper)
        # over F_7 and F_5 a seeded coordinate may vanish and undo a decision
        assert got is decided or (decided and field.characteristic in (5, 7)), name
        # undecided, QQ still has the mod-p basis, F_p only the full one
        assert _certified_height(P.matrix, P.t) in ((ht,) if got else (None, ht)), name
        assert _minors_height(P, P.t) == _full_height(P, P.t) == ht, name


# -- goodness by containment ----------------------------------------------------------------


def _full_verdict(P):
    """classify(P) from an empty verdict table: no parent, so no containment."""
    saved = determinantal._CLASSIFY_CACHE
    determinantal._CLASSIFY_CACHE = Memo(saved.budget)
    try:
        return classify(P)
    finally:
        determinantal._CLASSIFY_CACHE = saved


def _assert_certified_like_full(psi, report):
    """A containment-certified report equals the full verdict field for field,
    read lazily, and its full submaximal height meets r + 2."""
    assert report._contained and report.is_good
    assert "submaximal_height" not in vars(report)  # not computed yet
    full = _full_verdict(psi)
    assert not full._contained
    fields = [(getattr(report, f), getattr(full, f)) for f in determinantal._REPORT_FIELDS]
    assert all(a == b for a, b in fields), fields
    assert report == full and hash(report) == hash(full) and repr(report) == repr(full)
    assert full.submaximal_height >= psi.r + 2


def _random_presentation(rng, field, t, r):
    """A seeded t x (t+r) matrix of linear forms in r + 2 variables."""
    ring = PolyRing(tuple(f"x{i}" for i in range(r + 2)), field)
    rows = [[random_homogeneous(ring, 1, rng) for _ in range(t + r)] for _ in range(t)]
    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, (0,) * t), GradedFreeModule(ring, (1,) * (t + r)), rows
    ))


@pytest.mark.parametrize("field", (QQ, GF(32003)), ids=("QQ", "F32003"))
def test_containment_certified_verdicts_equal_the_full_verdict(field):
    rng = random.Random(20261017)
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            P = _random_presentation(rng, field, t, r)
            assert classify(P).is_standard, (t, r)
            psi, report = determinantal._augment(P, classify(P), seed=rng.randrange(2**32))
            _assert_certified_like_full(psi, report)
            assert classify(psi) is report
            for stage in build_flag(P, seed=rng.randrange(2**32)).stages[1:]:
                _assert_certified_like_full(stage.presentation, stage.report)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_containment_certified_verdicts_of_fixtures_and_their_flags(name):
    spec = parse_problem_text(fixture_path(name).read_text(), name)
    P = spec.presentation
    if P.r >= 1:
        _assert_certified_like_full(*determinantal._augment(P, classify(P), seed=spec.seed))
    if classify(P).is_good:
        for stage in build_flag(P, seed=spec.seed).stages[1:]:
            _assert_certified_like_full(stage.presentation, stage.report)


def test_augmenting_a_non_standard_parent_gets_the_full_verdict(ring, monkeypatch):
    # two equal linear columns: ht I_1 = 2, not the expected 3
    P = presentation_from_strings(ring, [["x0", "x0", "x1"]])
    parent = classify(P)
    assert not parent.is_standard and parent.actual_height == 2
    heights = []
    original = determinantal._minors_height
    monkeypatch.setattr(determinantal, "_minors_height",
                        lambda Q, s: heights.append((Q.t, s)) or original(Q, s))
    psi, report = determinantal._augment(P, parent, seed=3)
    assert not report._contained and report.is_good
    assert (2, 1) in heights  # goodness read the candidate's submaximal height
    assert "submaximal_height" in vars(report)
    assert report == _full_verdict(psi)
    assert augment_general_row(P, seed=3) == psi


class _ForgetfulMemo(Memo):
    def get(self, key):
        return None


def test_augmentation_and_flags_of_a_standard_parent_read_no_candidate_submaximal_height(
    monkeypatch,
):
    P = _random_presentation(random.Random(5), QQ, 2, 2)
    assert classify(P).is_good
    calls = []
    original = determinantal._minors_height
    monkeypatch.setattr(determinantal, "_minors_height",
                        lambda Q, s: calls.append((Q, s)) or original(Q, s))
    # a verdict table that has evicted every entry: each stage's verdict must
    # come from the augmentation that built it, not from a second lookup
    monkeypatch.setattr(determinantal, "_CLASSIFY_CACHE", _ForgetfulMemo(0))
    psi = augment_general_row(P, seed=4)
    flag = build_flag(P, seed=6)
    assert flag.all_good and flag.containments_ok and flag.codims == (3, 2, 1)
    candidates = [(Q, s) for Q, s in calls if Q.t > P.t]
    assert candidates and all(s == Q.t for Q, s in candidates)
    assert classify(psi).is_good


def test_section_sequence_refusal_builds_no_minors(double_point, monkeypatch):
    built = []
    original = determinantal.minors
    monkeypatch.setattr(determinantal, "minors", lambda *a, **k: built.append(a) or original(*a, **k))
    with pytest.raises(InputError):
        section_sequence(double_point, deleted_row=0, d_max=3)
    assert built == []
