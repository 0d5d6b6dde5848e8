import gc
import json
import random
import weakref
from math import comb
from pathlib import Path

import pytest

import annihilator_reference
import complexes_reference
import hilbert_reference
from detschemes import (
    GF,
    QQ,
    GradedFreeModule,
    HomogeneousMatrix,
    PolyRing,
    betti_table,
    buchsbaum_eisenbud,
    buchsbaum_rim,
    canonical_module,
    classify,
    cm_type,
    complexes,
    determinantal,
    eagon_northcott,
    ensure_gb,
    graded_exactness_check,
    grading,
    groebner,
    hilbert_function,
    ideal,
    koszul,
    matrix_from_strings,
    minors,
    normal_form,
    piece_rank,
    presentation_from_strings,
    quotient_hilbert_function,
    rank_of_map,
    verify_annihilator,
    verify_complex,
)
from detschemes.cli import FIXTURE_NAMES, fixture_path, load_problem, parse_problem_text, run
from detschemes.complexes import AnnihilatorReport
from detschemes.determinantal import DeterminantalPresentation, en_terms
from detschemes.errors import InputError, VerificationError
from detschemes.grading import Coker, matrix_piece, zero_matrix
from detschemes.memo import Memo
from detschemes.ring import random_homogeneous
from linalg_reference import image_membership, kernel_basis

SQUARE_DIAG = Path(__file__).parent / "square_diag.problem"


def _flip_sign_of_column(cpx, position, col):
    d = cpx.differentials[position - 1]
    entries = [list(row) for row in d.entries]
    for i in range(d.nrows):
        entries[i][col] = -entries[i][col]
    return cpx.replaced(position, HomogeneousMatrix(d.target, d.source, entries))


def test_en_is_koszul_for_one_row(ring):
    P = presentation_from_strings(ring, [["x0", "x1"]])
    cpx = eagon_northcott(P)
    assert cpx.ranks == (1, 2, 1)
    assert [m.twists for m in cpx.modules] == [(0,), (1, 1), (2,)]
    assert verify_complex(cpx)
    k = koszul([ring.parse("x0"), ring.parse("x1")])
    assert k.ranks == cpx.ranks


def test_en_koszul_binomial_ranks(ring):
    P = presentation_from_strings(ring, [["x0", "x1", "x2", "x3"]])
    cpx = eagon_northcott(P)
    assert cpx.ranks == tuple(comb(4, i) for i in range(5))


def test_en_double_point_shape(double_point):
    cpx = eagon_northcott(double_point)
    assert cpx.ranks == (1, 6, 8, 3)
    assert cpx.alternating_rank_sum() == 0
    assert cpx.modules[-1].rank == comb(2 + 2 - 1, 2)


def test_en_hilbert_burch_shape(cubic_curve):
    cpx = eagon_northcott(cubic_curve)
    assert cpx.ranks == (1, 3, 2)
    assert [m.twists for m in cpx.modules] == [(0,), (2, 2, 2), (3, 3)]


def test_br_double_point_shape(double_point):
    cpx = buchsbaum_rim(double_point)
    assert cpx.ranks == (2, 4, 4, 2)
    assert cpx.alternating_rank_sum() == 0


def test_br_map_entries_are_maximal_minors(double_point):
    cpx = buchsbaum_rim(double_point)
    I = minors(double_point, 2)
    gb = ensure_gb(I)
    d2 = cpx.differentials[1]
    seen_nonzero = False
    for row in d2.entries:
        for p in row:
            if not p.is_zero():
                seen_nonzero = True
                assert normal_form(p, gb).is_zero()
    assert seen_nonzero


def test_br_rank_zero_target(ring):
    target = GradedFreeModule(ring, ())
    source = GradedFreeModule(ring, (0, 0, 0))
    phi = HomogeneousMatrix(target, source, [])
    cpx = buchsbaum_rim(phi)
    assert cpx.ranks == (0, 3, 3)
    d2 = cpx.differentials[1]
    for i in range(3):
        for j in range(3):
            expected = "1" if i == j else "0"
            assert str(d2.entries[i][j]) == expected
    assert verify_complex(cpx)


def test_verify_complex_on_fixtures(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    for pres in (
        double_point,
        cubic_curve,
        coordinate_axes,
        ci_codim2,
        ci_codim3,
        generic_2x4,
    ):
        assert verify_complex(eagon_northcott(pres))
        assert verify_complex(buchsbaum_rim(pres))


def test_verify_complex_detects_sign_flip(double_point):
    cpx = eagon_northcott(double_point)
    assert verify_complex(cpx)  # the stored verdict must not reach the copy
    broken = _flip_sign_of_column(cpx, 2, 0)
    assert not verify_complex(broken)
    assert verify_complex(cpx)


def test_rank_of_map_examples(ring, double_point):
    tgt = GradedFreeModule(ring, (0, 0))
    src = GradedFreeModule(ring, (1, 1, 1))
    assert rank_of_map(zero_matrix(tgt, src)) == 0
    assert rank_of_map(double_point.matrix) == 2
    assert rank_of_map(matrix_from_strings(ring, [["x0", "x1"]])) == 1


def test_buchsbaum_eisenbud_double_point(double_point):
    report = buchsbaum_eisenbud(eagon_northcott(double_point))
    assert report.passed
    assert [e.expected_rank for e in report.entries] == [1, 5, 3]
    assert [e.minor_height for e in report.entries] == [3, 3, 3]


def test_buchsbaum_eisenbud_koszul(ring):
    cpx = koszul([ring.parse("x0"), ring.parse("x1"), ring.parse("x2")])
    assert buchsbaum_eisenbud(cpx).passed


def test_buchsbaum_eisenbud_height_deficient(ring):
    # minors have height 2 < 3: the EN complex cannot be acyclic
    P = presentation_from_strings(
        ring, [["x0", "x1", "0", "0"], ["0", "x0", "x1", "0"]]
    )
    assert classify(P).actual_height == 2
    report = buchsbaum_eisenbud(eagon_northcott(P))
    assert not report.passed
    assert any(not e.height_ok for e in report.entries)


def test_buchsbaum_eisenbud_zeroed_differential(ring):
    cpx = koszul([ring.parse("x0"), ring.parse("x1")])
    broken = cpx.replaced(2, zero_matrix(cpx.modules[1], cpx.modules[2]))
    report = buchsbaum_eisenbud(broken)
    assert not report.passed


def test_betti_tables(ring, double_point, cubic_curve):
    hb = betti_table(eagon_northcott(cubic_curve))
    assert hb.as_dict() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    dp = betti_table(eagon_northcott(double_point))
    assert dp.total_ranks() == (1, 6, 8, 3)
    assert dp.alternating_sum() == 0
    kz = betti_table(koszul([ring.parse("x0"), ring.parse("x1"), ring.parse("x2")]))
    assert kz.as_dict() == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}


def test_betti_rejects_non_minimal(ring):
    P = presentation_from_strings(ring, [["x0", "x1", "1"]], col_twists=[1, 1, 0])
    cpx = eagon_northcott(P)
    assert verify_complex(cpx)
    with pytest.raises(VerificationError):
        betti_table(cpx)


def test_betti_invariance_under_row_operations(ring, double_point):
    base = betti_table(eagon_northcott(double_point)).as_dict()
    # invertible row operation: add 3 * row 0 to row 1 (twists equal)
    m = double_point.matrix
    three = ring.constant(ring.field.from_int(3))
    new_rows = [
        list(m.entries[0]),
        [m.entries[1][j] + three * m.entries[0][j] for j in range(m.ncols)],
    ]
    moved = presentation_from_strings(
        ring, [[str(p) for p in row] for row in new_rows]
    )
    assert betti_table(eagon_northcott(moved)).as_dict() == base
    # and a row swap
    swapped = presentation_from_strings(
        ring, [[str(p) for p in m.entries[1]], [str(p) for p in m.entries[0]]]
    )
    assert betti_table(eagon_northcott(swapped)).as_dict() == base


def test_cm_type_examples(double_point, cubic_curve, ci_codim2, ci_codim3):
    assert cm_type(ci_codim2) == 1
    assert cm_type(ci_codim3) == 1
    assert cm_type(cubic_curve) == 2
    assert cm_type(double_point) == 3


def _mod_p_copy(P, p):
    """P over F_p: the same matrix, its coefficients reduced mod p."""
    m = P.matrix
    ring = PolyRing(m.ring.variables, GF(p), m.ring.order)
    field = ring.field

    def reduced(f):
        return ring.from_keys(
            {k: field.from_fraction(c.numerator, c.denominator) for k, c in f.terms}
        )

    return DeterminantalPresentation(HomogeneousMatrix(
        GradedFreeModule(ring, m.target.twists),
        GradedFreeModule(ring, m.source.twists),
        [[reduced(f) for f in row] for row in m.entries],
    ))


def test_cm_type_is_the_size_of_the_last_eagon_northcott_level():
    """C(r+t-1, r) counts the last level of `en_terms` on every fixture, on
    seeded shapes and on their F_2, F_3 and F_5 copies; `cm_type` returns it
    wherever the copy is standard and refuses it elsewhere."""
    rational = [parse_problem_text(fixture_path(n).read_text()).presentation for n in FIXTURE_NAMES]
    rational += [
        P for P in _seeded_presentations() + _twisted_presentations()
        if P.ring.field.characteristic == 0
    ]
    answered = refused = 0
    for P in rational:
        for Q in [P] + [_mod_p_copy(P, p) for p in (2, 3, 5)]:
            count = comb(Q.r + Q.t - 1, Q.r)
            assert len(en_terms(Q.matrix)[0][-1]) == count
            if classify(Q).is_standard:
                assert cm_type(Q) == count
                answered += 1
            else:
                with pytest.raises(InputError):
                    cm_type(Q)
                refused += 1
    assert answered > refused > 0


def test_cm_type_requires_standard(ring):
    P = presentation_from_strings(
        ring, [["x0", "x1", "0", "0"], ["0", "x0", "x1", "0"]]
    )
    with pytest.raises(InputError):
        cm_type(P)


def test_en_first_stage_matches_minimal_generators(
    double_point, cubic_curve, generic_2x4
):
    from detschemes import minimal_generator_count

    for pres in (double_point, cubic_curve, generic_2x4):
        cpx = eagon_northcott(pres)
        counts = minimal_generator_count(minors(pres, pres.t))
        assert cpx.modules[1].rank == sum(counts.values()) == comb(
            pres.t + pres.r, pres.r
        )


def test_verify_annihilator_fixtures(double_point, cubic_curve, coordinate_axes):
    for pres in (double_point, cubic_curve, coordinate_axes):
        report = verify_annihilator(pres, d_max=8)
        assert report.passed


def test_verify_annihilator_guard(ring):
    P = presentation_from_strings(
        ring, [["x0", "x1", "0", "0"], ["0", "x0", "x1", "0"]]
    )
    with pytest.raises(InputError):
        verify_annihilator(P, d_max=4)


def _reference_annihilator(P, d_max):
    """verify_annihilator as it was before the rank count: one image
    membership per (maximal minor, target generator), then the kernel of
    [Φ-piece blocks | monomial columns] in each degree, each kernel form
    reduced modulo the minor ideal."""
    minor_ideal = minors(P, P.t)
    gb = ensure_gb(minor_ideal)
    if not classify(P).is_standard:
        raise InputError("verify_annihilator requires a standard presentation")
    phi = P.matrix
    ring = phi.ring
    field = ring.field
    for gen in minor_ideal.generators:
        for j in range(phi.nrows):
            v = tuple(gen if i == j else ring.zero() for i in range(phi.nrows))
            ok, witness = image_membership(v, phi)
            if not ok or witness is None:
                return AnnihilatorReport(
                    False, d_max, gen.homogeneous_degree(), "minors-annihilate"
                )
    for d in range(d_max + 1):
        monos = ring.monomials_of_degree(d)
        columns = []
        rows = []
        offset = 0
        for j in range(phi.nrows):
            piece = matrix_piece(phi, d + phi.target.twists[j])
            columns.extend({offset + r: c for r, c in col.items()} for col in piece.cols)
            rows.append({item: offset + i for i, item in enumerate(piece.row_basis)})
            offset += piece.nrows
        first = len(columns)
        columns.extend(
            {rows[j][(j, mu)]: field.one for j in range(phi.nrows)} for mu in monos
        )
        for kern in kernel_basis(columns, field):
            f = ring.from_keys({monos[t - first]: c for t, c in kern.items() if t >= first})
            if not normal_form(f, gb).is_zero():
                return AnnihilatorReport(False, d_max, d, "annihilator-inside-minors")
    return AnnihilatorReport(True, d_max)


#: (rows, columns, entry degree) of the seeded annihilator presentations
_ANNIHILATOR_SHAPES = ((1, 3, 1), (2, 3, 1), (2, 4, 1), (1, 2, 2), (2, 3, 2))


def _seeded_presentations():
    """Every shape above over QQ and F_32003, on P^3 and P^4."""
    out = []
    rng = random.Random(20261018)
    for field in (QQ, GF(32003)):
        for n in (4, 5):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), field)
            for nrows, ncols, deg in _ANNIHILATOR_SHAPES:
                rows = [
                    [random_homogeneous(ring, deg, rng) for _ in range(ncols)]
                    for _ in range(nrows)
                ]
                target = GradedFreeModule(ring, (0,) * nrows)
                source = GradedFreeModule(ring, (deg,) * ncols)
                out.append(
                    DeterminantalPresentation(HomogeneousMatrix(target, source, rows))
                )
    return out


@pytest.fixture(scope="module")
def annihilator_cases(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    fixtures = [double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3]
    return fixtures + [generic_2x4] + _seeded_presentations()


def _on_p3(cases):
    """The mutation tests run on P^3 only, which keeps them quick."""
    return [P for P in cases if P.ring.nvars == 4]


def _with_en_count(monkeypatch, count):
    """verify_annihilator reads count(d) as dim (R/I_t)_d.  It reads that
    dimension off the Eagon-Northcott terms and nothing else, so a wrong
    count stands for a wrong minor ideal."""
    monkeypatch.setattr(complexes, "resolution_hilbert_function", lambda _, d: count(d))


def _count_of(P, gens):
    """d -> dim (R/(gens))_d: the EN count of a presentation whose minor
    ideal were generated by gens."""
    gb = ensure_gb(ideal(P.ring, *gens))
    return lambda d: quotient_hilbert_function(gb, d)


def _one_more_at(count, k):
    return lambda d: count(d) + (d == k)


def _lowest_wrong_degree(P, count, d_max):
    true = _count_of(P, minors(P, P.t).generators)
    return min((d for d in range(d_max + 1) if count(d) != true(d)), default=None)


def _assert_one_row_identity(P, monkeypatch, d_max=4):
    """t = 1: coker Φ = (R/I_1)(-a), so Ann = I_1 and the check passes
    reading no count, whatever count a mutation supplies; the idealization
    oracle, which ranks normal forms, agrees."""
    assert P.t == 1

    def unread(_, d):
        raise AssertionError(f"a one-row check read the count of degree {d}")

    with monkeypatch.context() as patch:
        patch.setattr(complexes, "resolution_hilbert_function", unread)
        report = verify_annihilator(P, d_max=d_max)
    assert report == AnnihilatorReport(True, d_max)
    assert report == annihilator_reference.idealization_verify_annihilator(P, d_max)


def test_verify_annihilator_matches_reference(annihilator_cases):
    for P in annihilator_cases:
        report = verify_annihilator(P, d_max=4)
        assert report == _reference_annihilator(P, 4)
        assert report.passed


def test_verify_annihilator_detects_a_dropped_minor(annihilator_cases, monkeypatch):
    for P in _on_p3(annihilator_cases):
        if P.t == 1:
            _assert_one_row_identity(P, monkeypatch)
            continue
        gens = minors(P, P.t).generators
        for k in (0, len(gens) - 1):
            rest = gens[:k] + gens[k + 1 :]
            outside = not normal_form(gens[k], ensure_gb(ideal(P.ring, *rest))).is_zero()
            assert outside  # maximal minors of these presentations are minimal
            count = _count_of(P, rest)
            _with_en_count(monkeypatch, count)
            report = verify_annihilator(P, d_max=4)
            degree = gens[k].homogeneous_degree()
            assert _lowest_wrong_degree(P, count, 4) == degree
            assert report == AnnihilatorReport(False, 4, degree, "annihilator-inside-minors")


def test_verify_annihilator_detects_a_non_annihilating_cube(
    annihilator_cases, monkeypatch
):
    for P in _on_p3(annihilator_cases):
        if P.t == 1:
            _assert_one_row_identity(P, monkeypatch)
            continue
        gens = minors(P, P.t).generators
        gb = ensure_gb(minors(P, P.t))
        for i in range(P.ring.nvars):
            cube = P.ring.parse(f"x{i}^3")
            outside = not normal_form(cube, gb).is_zero()
            # the per-minor normal forms name the cube's degree
            assert annihilator_reference.fitting_failure(P, gens + (cube,)) == (
                3 if outside else None
            )
            _with_en_count(monkeypatch, _count_of(P, gens + (cube,)))
            for d_max in (2, 4):  # the cube's degree lies past d_max 2
                report = verify_annihilator(P, d_max=d_max)
                if outside and d_max >= 3:
                    assert report == AnnihilatorReport(
                        False, d_max, 3, "annihilator-inside-minors"
                    )
                else:
                    assert report == AnnihilatorReport(True, d_max)


def test_verify_annihilator_checks_every_minor_of_a_degree(double_point, monkeypatch):
    # x0^2 does not annihilate and comes after the six quadrics of its degree
    gens = minors(double_point, 2).generators
    square = double_point.ring.parse("x0^2")
    assert annihilator_reference.fitting_failure(double_point, gens + (square,)) == 2
    _with_en_count(monkeypatch, _count_of(double_point, gens + (square,)))
    report = verify_annihilator(double_point, d_max=4)
    assert report == AnnihilatorReport(False, 4, 2, "annihilator-inside-minors")


def test_verify_annihilator_reports_the_lowest_failing_degree(
    double_point, monkeypatch
):
    # The minor ideal loses a quadric and gains x0^3: the count is too large
    # in degree 2 and may be wrong above; the lowest degree is reported.
    gens = minors(double_point, 2).generators
    cube = double_point.ring.parse("x0^3")
    count = _count_of(double_point, gens[1:] + (cube,))
    assert _lowest_wrong_degree(double_point, count, 4) == 2
    _with_en_count(monkeypatch, count)
    report = verify_annihilator(double_point, d_max=4)
    assert report == AnnihilatorReport(False, 4, 2, "annihilator-inside-minors")


def _twisted_presentations():
    """Seeded presentations with unequal row twists, and a 3x5 one.

    Entry (i, l) has degree b_l - a_i, so with row twists (0, 1) the first
    row is one degree above the second.
    """
    out = []
    rng = random.Random(20261019)
    shapes = (((0, 1), (2, 2, 2)), ((0, 1), (2, 2, 2, 2)), ((0, 0, 0), (1,) * 5))
    for field in (QQ, GF(32003)):
        for n in (4, 5):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), field)
            for row_twists, col_twists in shapes:
                rows = [
                    [random_homogeneous(ring, b - a, rng) for b in col_twists]
                    for a in row_twists
                ]
                target = GradedFreeModule(ring, row_twists)
                source = GradedFreeModule(ring, col_twists)
                out.append(
                    DeterminantalPresentation(HomogeneousMatrix(target, source, rows))
                )
    return out


def test_verify_annihilator_matches_the_block_echelon(
    annihilator_cases, monkeypatch
):
    fixtures, seeded = annihilator_cases[:6], annihilator_cases[6:]
    for P in fixtures:
        report = verify_annihilator(P, d_max=6)
        assert report == annihilator_reference.verify_annihilator(P, 6)
        assert report.passed
    twisted = _twisted_presentations()
    assert {P.matrix.target.twists for P in twisted} == {(0, 1), (0, 0, 0)}
    for P in seeded + twisted:
        report = verify_annihilator(P, d_max=4)
        assert report == annihilator_reference.verify_annihilator(P, 4)
        assert report.passed
    # EN counts off by one in a single degree, and those of a minor ideal
    # that lost a generator or gained x0^3: each is reported at its lowest
    # wrong degree, and one wrong only past d_max passes
    for P in _on_p3(seeded + twisted):
        if P.t == 1:
            _assert_one_row_identity(P, monkeypatch)
            continue
        true = _count_of(P, minors(P, P.t).generators)
        gens = minors(P, P.t).generators
        x0 = P.ring.parse("x0")
        counts = [_one_more_at(true, k) for k in range(6)] + [
            _count_of(P, gens[1:]),
            _count_of(P, gens + (x0**3,)),
        ]
        for count in counts:
            _with_en_count(monkeypatch, count)
            report = verify_annihilator(P, d_max=4)
            wrong = _lowest_wrong_degree(P, count, 4)
            if wrong is None:
                assert report == AnnihilatorReport(True, 4)
            else:
                assert report == AnnihilatorReport(False, 4, wrong, "annihilator-inside-minors")


@pytest.fixture(scope="module")
def square_diag():
    """diag(x0, x0) on P^3: standard, with Ann(coker) = (x0) ⊋ (x0^2) = I_2."""
    return load_problem(SQUARE_DIAG).presentation


def test_square_diag_is_standard_and_fails_the_annihilator_check(square_diag, capsys):
    assert classify(square_diag).is_standard
    for d_max in (1, 3, 4):
        report = verify_annihilator(square_diag, d_max=d_max)
        assert report == annihilator_reference.verify_annihilator(square_diag, d_max)
        assert report == AnnihilatorReport(False, d_max, 1, "annihilator-inside-minors")
    assert run(["annihilator", str(SQUARE_DIAG), "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == {"passed": False, "max_degree": 4, "failed_degree": 1,
                       "failed_direction": "annihilator-inside-minors"}


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_one_row_annihilators_equal_the_idealization_route(ci_codim2, ci_codim3, order):
    """On t = 1 the column module is the ideal of entries; the check's
    reports equal those of the idealization in R[e_1] that it replaced, on
    the one-row fixtures and seeded standard rows over QQ and F_32003."""
    cases = [ci_codim2, ci_codim3]
    rng = random.Random(20261020)
    for field in (QQ, GF(32003)):
        ring = PolyRing(("x0", "x1", "x2", "x3"), field)
        for degrees in ((1, 1), (1, 2, 2), (2, 1, 3), (1, 1, 1, 2)):
            row = [random_homogeneous(ring, e, rng, bound=5) for e in degrees]
            matrix = HomogeneousMatrix(
                GradedFreeModule(ring, (0,)), GradedFreeModule(ring, degrees), [row]
            )
            cases.append(DeterminantalPresentation(matrix))
    for P in cases:
        P = hilbert_reference.with_order(P, order)
        assert classify(P).is_standard
        for d_max in (2, 4):
            want = annihilator_reference.idealization_verify_annihilator(P, d_max)
            assert want == AnnihilatorReport(True, d_max)
            assert verify_annihilator(P, d_max) == want


def _fresh_presentation(P):
    """P on a new matrix, which carries no column module: a session fixture's
    matrix may carry one that an earlier test's piece rank kept."""
    m = P.matrix
    return DeterminantalPresentation(HomogeneousMatrix(m.target, m.source, m.entries))


def _past_the_switch(m):
    """The lowest degree whose piece `piece_rank` sends to the Groebner engine."""
    d = 0
    while m.source.dim(d) * m.target.dim(d) <= grading._PIECE_AUTO_LIMIT:
        d += 1
    return d


def test_verify_annihilator_builds_one_basis_and_no_minors(annihilator_cases, square_diag, monkeypatch):
    """With P's verdict stored, a check that the mod-p rank certificate
    decides runs no Buchberger and reads no minors.  A fallback, forced or
    from a failing certificate (square_diag), computes the column module's
    basis and nothing else: no minors, no basis of I_t; on a matrix that a
    Coker Hilbert function past the engine switch has given a module, it
    computes no basis at all.  A one-row check is the identity Ann = I_1 and
    runs no Buchberger in any ring."""
    for name in ("minors", "height", "hilbert_basis", "quotient_hilbert_function", "chain"):
        assert not hasattr(complexes, name)
    rings = []
    original = groebner._buchberger

    def spy(span, ring, *rest):
        rings.append(ring)
        return original(span, ring, *rest)

    def refuse(*_):
        raise AssertionError("verify_annihilator computed minors")

    def checked(Q, forced):
        rings.clear()
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_buchberger", spy)
            patch.setattr(determinantal, "minors", refuse)
            patch.setattr(determinantal, "_laplace_minors", refuse)
            if forced:
                patch.setattr(complexes, "_annihilator_rank_certificate", lambda *_: False)
            return verify_annihilator(Q, d_max=4)

    for case in annihilator_cases[:6] + [square_diag]:
        P, kept = _fresh_presentation(case), _fresh_presentation(case)
        classify(P)
        report = verify_annihilator(case, d_max=4)
        assert checked(P, forced=False) == report
        if P.t == 1:
            assert rings == []
            continue
        certified = case is not square_diag
        assert len(rings) == (0 if certified else 1)
        hilbert_function(Coker(kept.matrix), _past_the_switch(kept.matrix))
        assert kept.matrix.column_module is not None
        for Q, runs in ((_fresh_presentation(case), 1), (kept, 0)):
            classify(Q)
            assert checked(Q, forced=True) == report
            assert len(rings) == runs
            assert all(ring.nvars == P.ring.nvars + P.t for ring in rings)


def _spied_buchberger(patch):
    """The rings of every basis `_buchberger` computes while the patch lives."""
    rings = []
    original = groebner._buchberger

    def spy(span, ring, *rest):
        rings.append(ring)
        return original(span, ring, *rest)

    patch.setattr(groebner, "_buchberger", spy)
    return rings


def _certificate(P, d_max):
    return complexes._annihilator_rank_certificate(P.matrix, d_max, en_terms(P.matrix)[1])


def test_the_rank_certificate_decides_seeded_qq_checks(monkeypatch):
    """Over QQ the mod-p rank certificate alone decides every seeded standard
    check with two or three rows, twisted rows (0, 1) among them: it runs no
    Buchberger, and the reports equal the block-echelon oracle's (on P^3
    here; `test_verify_annihilator_matches_the_block_echelon` compares the
    rest).  Over F_p the certificate is never tried."""
    cases = [P for P in _seeded_presentations() + _twisted_presentations() if P.t >= 2]
    assert {P.matrix.target.twists for P in cases} >= {(0, 0), (0, 1), (0, 0, 0)}
    tried = []
    original = complexes._annihilator_rank_certificate
    for P in cases:
        assert classify(P).is_standard
        with monkeypatch.context() as patch:
            rings = _spied_buchberger(patch)
            patch.setattr(complexes, "_annihilator_rank_certificate",
                          lambda *args: tried.append(P) or original(*args))
            report = verify_annihilator(P, d_max=4)
        qq = P.ring.field.characteristic == 0
        assert (tried[-1:] == [P]) == qq
        assert (rings == []) == qq
        assert report == AnnihilatorReport(True, 4)
        if P.ring.nvars == 4:
            assert report == annihilator_reference.verify_annihilator(P, 4)


def _row_times(P, i, c):
    """P with row i multiplied by the integer c."""
    m = P.matrix
    c = m.ring.field.from_int(c)
    rows = [[f.scale(c) if k == i else f for f in row] for k, row in enumerate(m.entries)]
    return DeterminantalPresentation(HomogeneousMatrix(m.target, m.source, rows))


def test_the_rank_certificate_falls_back_to_the_column_module(square_diag, monkeypatch):
    """Where the certificate proves nothing, the column module decides from
    degree 0, and the report is the oracle's.  square_diag fails in degree
    1: the count mod p stays below the Eagon-Northcott count.  A standard
    matrix with one row times 32003 has that row vanish mod p, so its image
    pieces lose rank by degree 4 (in degree 1 already for
    diag(x0, 32003 x0), whose count there would otherwise reach EN(1)), and
    the image check refuses it; below that degree the ranks still hold and
    prove what they prove."""
    assert not _certificate(square_diag, 4)
    for d_max in (1, 4):
        report = verify_annihilator(square_diag, d_max)
        assert report == AnnihilatorReport(False, d_max, 1, "annihilator-inside-minors")
    scaled = [_row_times(square_diag, 1, 32003)]
    scaled += [_row_times(P, 0, 32003) for P in _seeded_presentations()[:10]
               if P.t >= 2 and P.ring.field.characteristic == 0]
    scaled += [_row_times(P, 1, 32003) for P in _twisted_presentations()[:3]]
    assert len(scaled) >= 6
    assert not _certificate(scaled[0], 1)
    for Q in scaled:
        assert classify(Q).is_standard
        assert not _certificate(Q, 4)
        with monkeypatch.context() as patch:
            rings = _spied_buchberger(patch)
            report = verify_annihilator(Q, 4)
        assert len(rings) == 1 and rings[0].nvars == Q.ring.nvars + Q.t
        assert report == annihilator_reference.verify_annihilator(Q, 4)
    assert verify_annihilator(scaled[0], 1) == AnnihilatorReport(
        False, 1, 1, "annihilator-inside-minors"
    )


def test_a_column_module_lives_as_long_as_its_matrix(generic_2x4):
    """The annihilator check keeps no module on its matrix, and the module a
    piece rank keeps goes with the last reference to its matrix."""
    P = _fresh_presentation(generic_2x4)
    verify_annihilator(P, d_max=4)
    assert P.matrix.column_module is None
    m = _fresh_presentation(generic_2x4).matrix
    hilbert_function(Coker(m), _past_the_switch(m))
    module = weakref.ref(m.column_module)
    del m
    gc.collect()
    assert module() is None


def test_maximal_minors_annihilate(annihilator_cases, square_diag):
    """The inclusion the package does not compute: Fitting's lemma, checked
    with one normal form per maximal minor and target generator."""
    for P in annihilator_cases + _twisted_presentations() + [square_diag]:
        assert annihilator_reference.fitting_failure(P) is None


def test_canonical_module_fixtures(cubic_curve, coordinate_axes, ci_codim2):
    for pres in (cubic_curve, coordinate_axes):
        result = canonical_module(pres, d_max=10)
        assert result.degrees == tuple(range(11))
    ci = canonical_module(ci_codim2, d_max=10)
    assert ci.cyclic
    assert ci.shift == -2  # sum of the two entry degrees minus (n+1)


def test_canonical_module_wrong_codimension(double_point):
    with pytest.raises(InputError):
        canonical_module(double_point)


def test_exactness_agrees_with_buchsbaum_eisenbud(
    double_point, cubic_curve, ci_codim2
):
    for pres in (double_point, cubic_curve, ci_codim2):
        for builder in (eagon_northcott, buchsbaum_rim):
            be = buchsbaum_eisenbud(builder(pres))
            # a fresh complex carries no verdict, so its pieces are ranked
            graded = graded_exactness_check(builder(pres), range(11))
            assert be.passed == graded.all_exact


def test_en_resolves_quotient_hilbert_function(double_point, cubic_curve):
    for pres in (double_point, cubic_curve):
        cpx = eagon_northcott(pres)
        I = minors(pres, pres.t)
        for d in range(11):
            alt = sum((-1) ** i * m.dim(d) for i, m in enumerate(cpx.modules))
            assert alt == quotient_hilbert_function(I, d)


def test_br_resolves_coker_hilbert_function(double_point):
    cpx = buchsbaum_rim(double_point)
    for d in range(9):
        alt = 0
        # modules are G, F, ...: alternating sum telescopes to HF(coker)
        for i, m in enumerate(cpx.modules):
            alt += (-1) ** i * m.dim(d)
        assert alt == double_point.matrix.target.dim(d) - piece_rank(double_point.matrix, d, "echelon")


def test_prime_field_characteristic_guard():
    from detschemes import GF, PolyRing

    # a 2x4 matrix has codimension f - g + 1 = 3, so p = 2 and p = 3 are
    # refused, with the bound that is enforced
    for p in (2, 3):
        small = PolyRing(("x0", "x1", "x2", "x3"), GF(p))
        P = presentation_from_strings(
            small, [["x1", "x2", "x3", "0"], ["0", "x1", "x2", "x3"]]
        )
        for build in (eagon_northcott, buchsbaum_rim):
            with pytest.raises(InputError, match=rf"characteristic {p} too small .*\(need p > 3\)"):
                build(P)
    big = PolyRing(("x0", "x1", "x2", "x3"), GF(32003))
    Q = presentation_from_strings(
        big, [["x1", "x2", "x3", "0"], ["0", "x1", "x2", "x3"]]
    )
    cpx = eagon_northcott(Q)
    assert verify_complex(cpx)
    assert cpx.ranks == (1, 6, 8, 3)


# -- ranks certified from d∘d = 0 against the reference -------------------------------


def _change_coordinates(phi, a):
    """phi with x_i replaced by sum_j a[i][j] x_j in every entry."""
    ring = phi.ring
    xs = ring.gens()
    images = [
        sum((xs[j].scale(ring.field.from_int(c)) for j, c in enumerate(row) if c), ring.zero())
        for row in a
    ]
    rows = []
    for row in phi.entries:
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
    return HomogeneousMatrix(phi.target, phi.source, rows)


def _invertible(rng, field, n):
    """Seeded n x n integer matrix with entries in [-2, 2], invertible over field."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        cols = [{i: field.from_int(a[i][j]) for i in range(n) if a[i][j]} for j in range(n)]
        if complexes.rank_of_columns(cols, field) == n:
            return a


def _reference_ranks(cpx, seed):
    return [complexes_reference.rank_of_map(d, seed) for d in cpx.differentials]


@pytest.fixture(scope="module")
def fixture_matrices(double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4):
    """Every fixture's matrix and two coordinate changes of each."""
    rng = random.Random(20261019)
    out = []
    for pres in (double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4):
        phi = pres.matrix
        out.append(phi)
        for _ in range(2):
            out.append(_change_coordinates(phi, _invertible(rng, phi.ring.field, phi.ring.nvars)))
    return out


def test_certified_ranks_match_rank_of_map_on_fixtures(fixture_matrices):
    for k, phi in enumerate(fixture_matrices):
        for builder in (eagon_northcott, buchsbaum_rim):
            cpx = builder(phi)
            assert verify_complex(cpx)
            for seed in (0, 42):
                assert complexes._certified_ranks(cpx, seed) == _reference_ranks(cpx, seed), (k, builder)
            if k % 3 == 0:  # the fixture itself: the whole report
                assert buchsbaum_eisenbud(cpx, 42) == complexes_reference.buchsbaum_eisenbud(cpx, 42)


def _seeded_cases(field, rng):
    """Seeded linear matrices over field: generic ones and ones whose ranks fall short."""
    ring = PolyRing(("x0", "x1", "x2", "x3"), field)
    xs = ring.gens()

    def form(nvars=4):
        return sum((xs[i].scale(field.from_int(rng.randint(-3, 3))) for i in range(nvars)), ring.zero())

    def matrix(rows):
        return HomogeneousMatrix(
            GradedFreeModule(ring, (0,) * len(rows)), GradedFreeModule(ring, (1,) * len(rows[0])), rows
        )

    cases = []
    for g, f in ((1, 2), (1, 3), (2, 3), (2, 4)):
        cases.append(("generic", matrix([[form() for _ in range(f)] for _ in range(g)])))
    top = [form() for _ in range(3)]
    two = ring.constant(field.from_int(2))
    cases.append(("proportional rows", matrix([top, [two * p for p in top]])))
    cases.append(("zero column", matrix([[form(), form(), ring.zero()], [form(), form(), ring.zero()]])))
    cases.append(("two variables", matrix([[form(2) for _ in range(4)] for _ in range(2)])))
    cases.append(("koszul, dependent forms", koszul([xs[0], xs[1], xs[0] + xs[1]])))
    cases.append(("koszul", koszul([form() for _ in range(3)])))
    return cases


def test_certified_ranks_match_rank_of_map_on_seeded_complexes():
    rng = random.Random(12)
    short = 0
    for field in (QQ, GF(5), GF(7), GF(32003)):
        for label, case in _seeded_cases(field, rng):
            if isinstance(case, HomogeneousMatrix):
                cpxs = [eagon_northcott(case), buchsbaum_rim(case)]
            else:
                cpxs = [case]
            for cpx in cpxs:
                assert verify_complex(cpx)
                for seed in (0, 3):
                    got = buchsbaum_eisenbud(cpx, seed)
                    assert got == complexes_reference.buchsbaum_eisenbud(cpx, seed), (field, label)
                    short += not all(e.rank_ok for e in got.entries)
    assert short  # some inputs have ranks that fall short of the expected ones


def _fixture_copies():
    """Every bundled fixture's matrix, its lex copy and its Fp:32003 copy."""
    out = []
    for name in FIXTURE_NAMES:
        text = fixture_path(name).read_text()
        assert "ring.order: grevlex" in text and "ring.field: QQ" in text
        for copy in (
            text,
            text.replace("ring.order: grevlex", "ring.order: lex"),
            text.replace("ring.field: QQ", "ring.field: Fp:32003"),
        ):
            out.append(parse_problem_text(copy).presentation.matrix)
    return out


def test_buchsbaum_eisenbud_heights_match_the_minors_route(fixture_matrices, monkeypatch):
    """Heights through `determinantal._minors_height` equal height(minors(d,
    r_i)), the route `complexes_reference.buchsbaum_eisenbud` keeps: on EN
    and BR of every fixture, its lex and F_p copies and two coordinate
    changes, and on seeded EN, BR and Koszul complexes, standard or not.
    Fresh tables make the package take its own route before the reference
    stores minors and bases."""
    cases = _fixture_copies() + [phi for k, phi in enumerate(fixture_matrices) if k % 3]
    cpxs = [builder(phi) for phi in cases for builder in (eagon_northcott, buchsbaum_rim)]
    rng = random.Random(22)
    for field in (QQ, GF(32003)):
        for _, case in _seeded_cases(field, rng):
            if isinstance(case, HomogeneousMatrix):
                cpxs += [eagon_northcott(case), buchsbaum_rim(case)]
            else:
                cpxs.append(case)
    certified = []
    original = determinantal._certified_height

    def spy(m, s):
        certified.append((m.ring.field, original(m, s)))
        return certified[-1][1]

    monkeypatch.setattr(determinantal, "_certified_height", spy)
    monkeypatch.setattr(determinantal, "_MINORS_CACHE", Memo(determinantal._MINORS_CACHE.budget))
    monkeypatch.setattr(groebner, "_GB_CACHE", Memo(groebner._GB_CACHE.budget))
    for cpx in cpxs:
        assert verify_complex(cpx)
        assert buchsbaum_eisenbud(cpx) == complexes_reference.buchsbaum_eisenbud(cpx)
    over_qq = [ht for field, ht in certified if field == QQ]
    # the mod-p certificate answers some QQ heights and falls back on others
    assert None in over_qq and any(ht is not None for ht in over_qq)


def test_certified_ranks_fall_back_when_the_seeded_point_is_special():
    """Over F_5 some seeds put the first point on a zero of the needed
    minors (the origin, or a point where the rows agree); the exact search
    then settles the rank, as the reference does."""
    ring = PolyRing(("x0", "x1", "x2"), GF(5))
    P = presentation_from_strings(ring, [["x0", "x1", "x2"], ["x1", "x2", "x0"]])
    for cpx in (eagon_northcott(P), buchsbaum_rim(P)):
        first_point_short = []
        for seed in range(300):
            rng = random.Random(seed)  # the first point the certificate evaluates at
            point = [ring.field.random(rng, 37) for _ in range(ring.nvars)]
            at_point = [
                complexes.rank_of_columns(
                    [
                        {i: v for i in range(d.nrows) if (v := d.entries[i][j].evaluate(point))}
                        for j in range(d.ncols)
                    ],
                    ring.field,
                )
                for d in cpx.differentials
            ]
            if at_point != _reference_ranks(cpx, seed):
                first_point_short.append(seed)
                want = complexes_reference.buchsbaum_eisenbud(cpx, seed)
                assert buchsbaum_eisenbud(cpx, seed) == want
                assert want.passed
        assert len(first_point_short) >= 4


def _short_evaluations(monkeypatch):
    """Every seeded evaluation reports one less than its rank; returns the
    (matrix, size) of every minor search that then runs."""
    rank_of_columns = complexes.rank_of_columns
    searched = []
    has_nonzero_minor = complexes._has_nonzero_minor

    def recorded(phi, s, laplace):
        searched.append((phi, s))
        return has_nonzero_minor(phi, s, laplace)

    monkeypatch.setattr(complexes, "rank_of_columns", lambda cols, field: max(0, rank_of_columns(cols, field) - 1))
    monkeypatch.setattr(complexes, "_has_nonzero_minor", recorded)
    return searched


def test_forced_fallback_reports_match_reference(monkeypatch, double_point, cubic_curve, ci_codim3):
    searched = _short_evaluations(monkeypatch)
    for pres in (double_point, cubic_curve, ci_codim3):
        for builder in (eagon_northcott, buchsbaum_rim):
            cpx = builder(pres)
            want = complexes_reference.buchsbaum_eisenbud(cpx, 42)
            del searched[:]
            assert buchsbaum_eisenbud(cpx, 42) == want
            assert want.passed
            # every differential took the fallback, which never tried a
            # minor larger than the upper bound d∘d = 0 certifies (here the
            # expected rank, the complexes being acyclic)
            sizes = {}
            for phi, s in searched:
                sizes[phi] = max(sizes.get(phi, 0), s)
            for d, e in zip(cpx.differentials, want.entries):
                assert sizes.get(d, 0) <= e.expected_rank
                assert (d in sizes) == (e.expected_rank > 0)


def test_rank_of_map_stops_evaluating_at_full_rank(monkeypatch, ring, double_point):
    rank_of_columns = complexes.rank_of_columns
    calls = []

    def counted(cols, field):
        calls.append(1)
        return rank_of_columns(cols, field)

    monkeypatch.setattr(complexes, "rank_of_columns", counted)
    assert rank_of_map(double_point.matrix) == 2
    assert len(calls) == 1
    del calls[:]
    deficient = matrix_from_strings(ring, [["x0", "x1", "x2"], ["x0", "x1", "x2"]])
    assert rank_of_map(deficient) == 1 == complexes_reference.rank_of_map(deficient)
    assert len(calls) == 3


def test_dd_verdict_is_stored_once_per_complex(monkeypatch, double_point):
    compose = HomogeneousMatrix.compose
    calls = []

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(HomogeneousMatrix, "compose", counted)
    cpx = eagon_northcott(double_point)
    assert verify_complex(cpx) and verify_complex(cpx)
    assert len(calls) == len(cpx.differentials) - 1
    assert buchsbaum_eisenbud(cpx).passed
    assert len(calls) == len(cpx.differentials) - 1
    # an equal complex is another object and checks afresh; the stored
    # verdict takes no part in equality or hashing
    twin = complexes.FreeComplex(cpx.modules, cpx.differentials, cpx.tag)
    assert twin == cpx and hash(twin) == hash(cpx)
    assert verify_complex(twin)
    assert len(calls) == 2 * (len(cpx.differentials) - 1)


# -- exactness read from the stored acyclicity verdict ---------------------------------


def _piece_calls(monkeypatch):
    """Every (matrix, degree) that grading.piece_rank is asked for."""
    calls = []
    piece_rank = grading.piece_rank

    def recorded(phi, d, engine="auto"):
        calls.append((phi, d))
        return piece_rank(phi, d, engine)

    monkeypatch.setattr(grading, "piece_rank", recorded)
    return calls


def _fresh(cpx):
    """An equal complex built anew: no verdict is stored on it."""
    return complexes.FreeComplex(cpx.modules, cpx.differentials, cpx.tag)


def _assert_certified_report_matches_pieces(cpx, calls, degrees=range(11)):
    """The report after buchsbaum_eisenbud equals the piece route's on a fresh
    copy; only a complex that failed its certificate ranks pieces."""
    passed = buchsbaum_eisenbud(cpx).passed
    del calls[:]
    got = graded_exactness_check(cpx, degrees)
    assert bool(calls) != passed
    fresh = _fresh(cpx)
    del calls[:]
    want = graded_exactness_check(fresh, degrees)
    assert len(calls) == len(fresh.differentials) * len(degrees)
    assert got == want
    assert got.all_exact == passed
    return passed


def test_certified_exactness_matches_the_piece_route_on_fixtures(monkeypatch, fixture_matrices):
    calls = _piece_calls(monkeypatch)
    verdicts = []
    for phi in fixture_matrices:
        for builder in (eagon_northcott, buchsbaum_rim):
            verdicts.append(_assert_certified_report_matches_pieces(builder(phi), calls))
    assert len(verdicts) == 36 and all(verdicts)


def test_certified_exactness_matches_the_piece_route_on_seeded_complexes(monkeypatch):
    calls = _piece_calls(monkeypatch)
    rng = random.Random(14)
    verdicts = []
    for field in (QQ, GF(32003)):
        for label, case in _seeded_cases(field, rng):
            if isinstance(case, HomogeneousMatrix):
                cpxs = [eagon_northcott(case), buchsbaum_rim(case)]
            else:
                cpxs = [case]
            for cpx in cpxs:
                verdicts.append(_assert_certified_report_matches_pieces(cpx, calls, range(8)))
    assert True in verdicts and False in verdicts


def test_failed_certificate_keeps_the_piece_route(monkeypatch, ring):
    calls = _piece_calls(monkeypatch)
    equal_rows = matrix_from_strings(ring, [["x0", "x1", "x2"], ["x0", "x1", "x2"]])
    cpx = eagon_northcott(equal_rows)
    assert not buchsbaum_eisenbud(cpx).passed
    report = graded_exactness_check(cpx, range(6))
    assert len(calls) == len(cpx.differentials) * 6
    assert report == graded_exactness_check(eagon_northcott(equal_rows), range(6))
    # the minors vanish, so d_1 = 0: (position, degree, kernel, image)
    assert [(e.position, e.degree, e.kernel_dim, e.image_dim) for e in report.failures()] == [
        (1, 2, 3, 0), (1, 3, 12, 1), (2, 3, 1, 0), (1, 4, 30, 4), (2, 4, 4, 0),
        (1, 5, 60, 10), (2, 5, 10, 0),
    ]


def test_replaced_copy_keeps_the_piece_route(monkeypatch, double_point):
    calls = _piece_calls(monkeypatch)
    cpx = eagon_northcott(double_point)
    assert buchsbaum_eisenbud(cpx).passed
    same = cpx.replaced(2, cpx.differentials[1])
    assert same == cpx and same._acyclic is None and same._dd_zero is None
    zeroed = cpx.replaced(2, zero_matrix(cpx.modules[1], cpx.modules[2]))
    del calls[:]
    report = graded_exactness_check(zeroed, range(6))
    assert len(calls) == len(zeroed.differentials) * 6
    assert not report.all_exact
    assert {e.position for e in report.failures()} == {1, 2}
    assert not buchsbaum_eisenbud(zeroed).passed
    del calls[:]
    assert graded_exactness_check(zeroed, range(6)) == report
    assert calls


def test_betti_table_reads_the_stored_verdict(monkeypatch, double_point, ring):
    runs = []
    certify = complexes.buchsbaum_eisenbud

    def counted(C, seed=0):
        runs.append(C)
        return certify(C, seed)

    monkeypatch.setattr(complexes, "buchsbaum_eisenbud", counted)
    cpx = eagon_northcott(double_point)
    table = betti_table(cpx)  # no verdict stored: the certificate runs once
    assert runs == [cpx] and cpx._acyclic is True
    assert betti_table(cpx) == table and len(runs) == 1
    failed = eagon_northcott(matrix_from_strings(ring, [["x0", "x1", "x2"], ["x0", "x1", "x2"]]))
    assert not counted(failed).passed
    with pytest.raises(VerificationError):
        betti_table(failed)
    assert len(runs) == 2
