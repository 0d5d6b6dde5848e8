import random
from fractions import Fraction

import pytest

import complexes_reference
import hilbert_reference
from detschemes import (
    GF,
    QQ,
    Coker,
    GradedFreeModule,
    HomogeneousMatrix,
    Ker,
    degree_basis,
    eagon_northcott,
    graded_exactness_check,
    grading,
    groebner,
    hilbert_function,
    classify,
    ideal,
    koszul,
    matrix_from_strings,
    matrix_piece,
    minors,
    normal_form,
    piece_rank,
    verify_complex,
)
from detschemes.cli import FIXTURE_NAMES, fixture_path, parse_problem_text
from detschemes.determinantal import DeterminantalPresentation
from detschemes.grading import GradingError, matrix_from_polys, zero_matrix
from detschemes.groebner import ensure_gb
from detschemes.ring import MAX_DEGREE, PolyRing, RingError, random_homogeneous
from linalg_reference import (
    FieldEchelon,
    image_membership,
    kernel_basis,
    piece_multiply,
    quotient_piece_hilbert,
)


def test_degree_basis_sizes(ring):
    assert len(degree_basis(GradedFreeModule(ring, (0,)), 1)) == 4
    assert len(degree_basis(GradedFreeModule(ring, (1, 1)), 1)) == 2
    assert len(degree_basis(GradedFreeModule(ring, (2,) * 6), 3)) == 24


def test_degree_basis_invariant_count(ring):
    F = GradedFreeModule(ring, (0, 1, 3))
    for d in range(5):
        expected = sum(ring.dim_of_degree(d - tw) for tw in F.twists)
        assert len(degree_basis(F, d)) == expected == F.dim(d)


def test_homogeneous_matrix_rejects_bad_degrees(ring):
    tgt = GradedFreeModule(ring, (0,))
    src = GradedFreeModule(ring, (2,))
    with pytest.raises(GradingError):
        HomogeneousMatrix(tgt, src, [[ring.parse("x0")]])  # needs degree 2


def test_matrix_piece_zero(ring):
    tgt = GradedFreeModule(ring, (0, 0))
    src = GradedFreeModule(ring, (1, 1, 1))
    piece = matrix_piece(zero_matrix(tgt, src), 2)
    assert piece.rank() == 0
    assert piece.nrows == 2 * ring.dim_of_degree(2)
    assert piece.ncols == 3 * ring.dim_of_degree(1)


def test_matrix_piece_row_of_variables(ring):
    phi = matrix_from_strings(ring, [["x0", "x1"]])
    piece = matrix_piece(phi, 1)
    assert piece.nrows == 4 and piece.ncols == 2
    assert piece.rank() == 2


def test_matrix_piece_rank_engines_agree(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    # Φ, every Eagon-Northcott differential (targets of rank up to 8 on
    # generic_2x4) and, in codimension 2, the presentation of ω
    for pres in (double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4):
        en = eagon_northcott(pres)
        maps = [pres.matrix, *en.differentials]
        if pres.r == 1:
            maps.append(en.differentials[-1].transpose_dual().shifted(pres.ring.nvars))
        for phi in maps:
            low = min(phi.target.twists)
            for d in range(low, low + 5):
                assert piece_rank(phi, d, "echelon") == piece_rank(phi, d, "groebner")


def _rational_form(ring, degree, rng):
    """Seeded form whose coefficients carry denominators such as 1/3 and 5/7."""
    p = random_homogeneous(ring, degree, rng, allow_zero=True)
    return ring.from_keys(
        {m: c * Fraction(rng.choice((1, 5)), rng.choice((1, 3, 7))) for m, c in p.terms}
    )


def _rational_matrix(ring, rng):
    nrows = rng.randint(1, 2)
    ncols = rng.randint(nrows, 3)
    degree = rng.randint(1, 2)
    rows = [[_rational_form(ring, degree, rng) for _ in range(ncols)] for _ in range(nrows)]
    target = GradedFreeModule(ring, (0,) * nrows)
    source = GradedFreeModule(ring, (degree,) * ncols)
    return HomogeneousMatrix(target, source, rows)


def test_integer_route_matches_fraction_echelon_on_rational_pieces(ring):
    rng = random.Random(31)
    for _ in range(8):
        phi = _rational_matrix(ring, rng)
        for d in range(4):
            piece = matrix_piece(phi, d)
            ech = FieldEchelon(QQ)
            dependent = sum(ech.insert(col) is not None for col in piece.cols)
            assert piece.rank() == ech.rank
            assert len(kernel_basis(piece.cols, QQ)) == dependent == piece.ncols - ech.rank


def test_image_membership_witness_with_denominators(ring):
    rng = random.Random(37)
    for _ in range(8):
        phi = _rational_matrix(ring, rng)
        x = [_rational_form(ring, 1, rng) for _ in range(phi.ncols)]
        v = tuple(
            sum((phi.entries[i][j] * x[j] for j in range(phi.ncols)), ring.zero())
            for i in range(phi.nrows)
        )
        ok, pre = image_membership(v, phi)
        assert ok and all(p.is_zero() or p.homogeneous_degree() == 1 for p in pre)
        applied = tuple(
            sum((phi.entries[i][j] * pre[j] for j in range(phi.ncols)), ring.zero())
            for i in range(phi.nrows)
        )
        assert applied == v


def test_piece_rank_engines_agree(ring):
    phi = matrix_from_strings(ring, [["1/3*x0^2 + x1*x3", "5/7*x2^2", "x0*x3 - x1^2"]])
    for d in range(2, 5):
        rank = piece_rank(phi, d, "echelon")
        assert piece_rank(phi, d, "groebner") == rank
        assert piece_rank(phi, d) == rank


def test_matrix_piece_functoriality(ring):
    # compose R(-2)^2 -> R(-1)^2 -> R and compare pieces degreewise
    a = matrix_from_strings(ring, [["x0", "x1"]])
    rows = [["x1", "0"], ["x2", "x3"]]
    b = matrix_from_strings(
        ring,
        rows,
        row_twists=[1, 1],
        col_twists=[2, 2],
    )
    comp = a.compose(b)
    for d in range(4):
        lhs = matrix_piece(comp, d)
        rhs = piece_multiply(matrix_piece(a, d), matrix_piece(b, d))
        assert lhs.cols == rhs.cols


def test_hilbert_function_quotient_examples(ring_p2, ring):
    assert hilbert_function(ideal(ring_p2, "x0", "x1"), 5) == 1
    # square of a point ideal: 1, 4, 4, 4, ... (degree-d piece spanned by
    # x0^d and the three x0^(d-1)*xi)
    J = ideal(ring, "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2")
    values = [hilbert_function(J, d) for d in range(8)]
    assert values == [1, 4, 4, 4, 4, 4, 4, 4]


def _assert_matches_piece_oracle(I, degrees=range(-2, 8)):
    for d in degrees:
        assert hilbert_function(I, d) == quotient_piece_hilbert(I, d), (I, d)


def test_hilbert_function_matches_the_matrix_piece_oracle(
    ring, double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    """R/I by standard monomials against the rank of the 1 x g matrix piece,
    on the fixtures' minor ideals in grevlex and in lex."""
    for pres in (double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4):
        for s in range(1, pres.t + 1):
            I = minors(pres, s)
            _assert_matches_piece_oracle(I)
            lex = I.ring.with_order("lex")
            _assert_matches_piece_oracle(
                ideal(lex, *(lex.from_keys(dict(g.terms)) for g in I))
            )


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(7)], ids=["QQ", "F32003", "F7"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_hilbert_function_of_seeded_ideals_matches_the_oracle(field, order):
    rng = random.Random(1301)
    ring = PolyRing(("x0", "x1", "x2", "x3"), field, order)
    for _ in range(6):
        gens = [
            random_homogeneous(ring, rng.choice((1, 2, 3)), rng, bound=5)
            for _ in range(rng.randint(1, 4))
        ]
        _assert_matches_piece_oracle(ideal(ring, *gens))


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_hilbert_function_of_the_zero_and_unit_ideals(order):
    ring = PolyRing(("x0", "x1", "x2", "x3"), QQ, order)
    zero, unit = ideal(ring), ideal(ring, "0", "3/2")
    _assert_matches_piece_oracle(zero)
    _assert_matches_piece_oracle(unit)
    assert [hilbert_function(zero, d) for d in range(-1, 4)] == [0, 1, 4, 10, 20]
    assert [hilbert_function(unit, d) for d in range(-1, 4)] == [0] * 5
    # a unit among other generators: its lead key 0 divides every monomial
    mixed = ideal(ring, "x0*x1", "x2 - x3", "5")
    assert [hilbert_function(mixed, d) for d in range(4)] == [0] * 4


def test_hilbert_function_rejects_inhomogeneous_generators(ring):
    I = ideal(ring, "x0^2", "x1 + x2^2")
    for d in (0, 3):
        with pytest.raises(GradingError):
            hilbert_function(I, d)
        with pytest.raises(GradingError):
            quotient_piece_hilbert(I, d)


def test_a_hilbert_table_past_the_switch_builds_one_column_module(generic_2x4, monkeypatch):
    """HF(coker Φ, d) for d = 0..30 runs the idealization's Buchberger once:
    the Groebner engine keeps the module on the matrix.  Wherever the piece
    has at most `_PIECE_AUTO_LIMIT` entries, the value is the echelon's, and
    the module kept on the matrix counts it too."""
    m = generic_2x4.matrix
    m = HomogeneousMatrix(m.target, m.source, m.entries)  # carries no module yet
    rings = []
    original = groebner._buchberger

    def spy(span, ring, *rest):
        rings.append(ring)
        return original(span, ring, *rest)

    monkeypatch.setattr(groebner, "_buchberger", spy)
    values = [hilbert_function(Coker(m), d) for d in range(31)]
    assert len(rings) == 1 and rings[0].nvars == m.ring.nvars + m.nrows
    small = [d for d in range(31) if m.source.dim(d) * m.target.dim(d) <= grading._PIECE_AUTO_LIMIT]
    assert small == list(range(6))  # d = 6..30 take the Groebner engine
    for d in small:
        assert values[d] == m.target.dim(d) - piece_rank(m, d, "echelon")
        assert values[d] == m.column_module.coker_dim(d)


def test_hilbert_function_coker_and_ker(ring):
    phi = matrix_from_strings(ring, [["x0", "x1"]])
    # coker is R/(x0, x1): 1, 2, 3, ... on P^3? no: R/(x0,x1) = k[x2,x3]
    assert [hilbert_function(Coker(phi), d) for d in range(5)] == [1, 2, 3, 4, 5]
    # kernel of (x0 x1) is the twisted Koszul syzygy, rank 1 in each degree >= 2
    assert hilbert_function(Ker(phi), 1) == 0
    assert hilbert_function(Ker(phi), 2) == 1  # the syzygy (x1, -x0)
    assert hilbert_function(Ker(phi), 3) == 4


def test_image_membership_witness(ring, double_point):
    phi = double_point.matrix
    rng = random.Random(5)
    # image of the first source generator
    v = phi.column(0)
    ok, pre = image_membership(v, phi)
    assert ok
    applied = [ring.zero() for _ in range(phi.nrows)]
    for j, q in enumerate(pre):
        for i in range(phi.nrows):
            applied[i] = applied[i] + phi.entries[i][j] * q
    assert tuple(applied) == tuple(v)
    # a target generator is not in the image of the zero matrix
    z = zero_matrix(phi.target, phi.source)
    ok, _ = image_membership((ring.one(), ring.zero()), z)
    assert not ok


def test_image_membership_minor_times_generator(ring, double_point):
    phi = double_point.matrix
    for gen in minors(double_point, 2).generators:
        for j in range(phi.nrows):
            v = tuple(gen if i == j else ring.zero() for i in range(phi.nrows))
            ok, pre = image_membership(v, phi)
            assert ok and pre is not None


def test_image_membership_agrees_with_normal_form_for_ideals(ring):
    # rank-1 target: membership in the column ideal
    phi = matrix_from_strings(ring, [["x0^2", "x1*x2"]])
    I = ideal(ring, "x0^2", "x1*x2")
    gb = ensure_gb(I)
    rng = random.Random(9)
    for _ in range(20):
        p = random_homogeneous(ring, rng.randint(2, 4), rng)
        ok, _ = image_membership((p,), phi)
        assert ok == normal_form(p, gb).is_zero()


def test_graded_exactness_koszul(ring_p2):
    cpx = koszul([ring_p2.parse("x0"), ring_p2.parse("x1")])
    assert verify_complex(cpx)
    report = graded_exactness_check(cpx, range(9))
    assert report.all_exact


def test_graded_exactness_detects_zeroed_differential(ring_p2):
    cpx = koszul([ring_p2.parse("x0"), ring_p2.parse("x1")])
    broken = cpx.replaced(2, zero_matrix(cpx.modules[1], cpx.modules[2]))
    assert verify_complex(broken)  # zero map still composes to zero
    report = graded_exactness_check(broken, range(6))
    assert not report.all_exact
    assert any(e.position == 2 for e in report.failures())


def test_image_membership_degree_mismatch(ring, double_point):
    phi = double_point.matrix
    with pytest.raises(GradingError):
        image_membership((ring.parse("x0"), ring.parse("x0^2")), phi)
    with pytest.raises(GradingError):
        image_membership((ring.parse("x0 + x1^2"), ring.zero()), phi)


def test_default_truncation_bound(ring):
    from detschemes.grading import default_truncation_bound

    # max entry degree 1 on P^3: 1 + 3 + 3
    assert default_truncation_bound(ring, 1) == 7
    from detschemes import canonical_module, presentation_from_strings

    pres = presentation_from_strings(ring, [["x0", "x1"]])
    result = canonical_module(pres)  # bound chosen by the policy
    assert result.degrees == tuple(range(8))


def test_shifted_module_dims(ring):
    F = GradedFreeModule(ring, (0, 1))
    G = F.shifted(2)
    for d in range(5):
        assert G.dim(d) == F.dim(d - 2)


def test_describe(ring):
    assert GradedFreeModule(ring, (2, 2, 0)).describe() == "R + R(-2)^2"
    assert GradedFreeModule(ring, ()).describe() == "0"


def _random_map(rng, target, source, scale):
    """Seeded map with homogeneous entries (about a quarter of them zero),
    each multiplied by scale()."""
    ring = target.ring
    rows = []
    for a in target.twists:
        row = []
        for b in source.twists:
            if b < a or rng.random() < 0.25:
                row.append(ring.zero())
            else:
                row.append(random_homogeneous(ring, b - a, rng, bound=5, allow_zero=True).scale(scale()))
        rows.append(row)
    return HomogeneousMatrix(target, source, rows)


def test_keyed_compose_matches_polynomial_product():
    rng = random.Random(20261019)
    nonzero = 0
    for field in (QQ, GF(7), GF(32003)):
        ring = PolyRing(("x0", "x1", "x2"), field)
        if field is QQ:  # Fraction entries, so the sums carry denominators
            def scale():
                return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
        else:
            def scale():
                return field.from_int(rng.randint(1, field.characteristic - 1))
        for _ in range(6):
            F = GradedFreeModule(ring, [rng.randint(0, 1) for _ in range(rng.randint(1, 3))])
            G = GradedFreeModule(ring, [rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
            H = GradedFreeModule(ring, [rng.randint(2, 4) for _ in range(rng.randint(1, 3))])
            a, b = _random_map(rng, F, G, scale), _random_map(rng, G, H, scale)
            got = a.compose(b)
            assert got == complexes_reference.compose(a, b)
            nonzero += not got.is_zero()
    assert nonzero >= 15
    # consecutive differentials compose to zero both ways
    cpx = eagon_northcott(matrix_from_strings(PolyRing(("x0", "x1", "x2", "x3")), [["x0", "x1", "x2"], ["x1", "x2", "x3"]]))
    for d, e in zip(cpx.differentials, cpx.differentials[1:]):
        assert d.compose(e) == complexes_reference.compose(d, e)
        assert d.compose(e).is_zero()
    with pytest.raises(GradingError):
        cpx.differentials[0].compose(cpx.differentials[0])


def test_keyed_compose_raises_above_max_degree():
    half = MAX_DEGREE // 2 + 1
    for field in (QQ, GF(32003)):
        ring = PolyRing(("x0", "x1", "x2"), field)
        a = matrix_from_strings(ring, [[f"x0^{half}", f"x1^{half}"]])
        b = matrix_from_strings(ring, [[f"x1^{half}"], [f"x0^{half}"]], row_twists=[half, half], col_twists=[2 * half])
        for compose in (HomogeneousMatrix.compose, complexes_reference.compose):
            with pytest.raises(RingError):
                compose(a, b)
        # at the limit itself both still compose
        c = matrix_from_strings(ring, [[f"x1^{MAX_DEGREE - half}"]], row_twists=[half], col_twists=[MAX_DEGREE])
        one = matrix_from_strings(ring, [[f"x0^{half}"]])
        assert one.compose(c) == complexes_reference.compose(one, c)
        assert one.compose(c).entries[0][0].homogeneous_degree() == MAX_DEGREE


def _one_row_cases(ring, rng):
    """Seeded 1 x n rows, each as (entries, column twists) for row twist 0:
    generic entries of mixed degrees, zero entries (one row all zero), a
    unit entry, and equal or proportional entries (ht I_1 < n)."""
    def form(deg):
        return random_homogeneous(ring, deg, rng, bound=5)

    f, g = form(1), form(1)
    q = form(2)
    return [
        ([form(1), form(2), form(2)], (1, 2, 2)),
        ([form(1), ring.zero(), form(2)], (1, 1, 2)),
        ([ring.zero(), ring.zero()], (1, 2)),
        ([form(1), ring.one().scale(ring.field.from_int(7)), form(2)], (1, 0, 2)),
        ([f, f, g], (1, 1, 1)),
        ([f, f.scale(ring.field.from_int(3)), q, f * g], (1, 1, 2, 2)),
    ]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "Fp"])
def test_one_row_piece_ranks_read_the_ideal_of_entries(field, order):
    """A one-row matrix's column module is its ideal of entries: `auto`,
    the Groebner engine and HF(coker) agree with the echelon of the piece
    in every degree up to 10, with the row twisted by 0 and by 2, and
    `auto` keeps the module on its matrix from degree 0 on."""
    ring = PolyRing(("x0", "x1", "x2", "x3"), field, order)
    rng = random.Random(2024)
    cases = _one_row_cases(ring, rng)
    for (entries, col_twists), a in [(case, a) for case in cases for a in (0, 2)]:
        def fresh():
            return matrix_from_polys(ring, [entries], (a,), tuple(b + a for b in col_twists))

        by_auto, by_groebner, by_coker = fresh(), fresh(), fresh()
        for d in range(11):
            want = matrix_piece(by_auto, d).rank()
            assert piece_rank(by_auto, d) == want
            assert by_auto.column_module is not None
            assert piece_rank(by_groebner, d, "groebner") == want
            assert hilbert_function(Coker(by_coker), d) == by_coker.target.dim(d) - want


def _fresh(P):
    """P's matrix as a new object: no verdict has marked it, no module rides on it."""
    m = P.matrix
    return HomogeneousMatrix(m.target, m.source, m.entries)


def _oracle_rank(m, d):
    """rank m_d by an explicit engine: the echelon of the assembled piece,
    or the Groebner engine past `_PIECE_AUTO_LIMIT` entries."""
    small = m.source.dim(d) * m.target.dim(d) <= grading._PIECE_AUTO_LIMIT
    return piece_rank(m, d, "echelon" if small else "groebner")


def _term_route_cases():
    """(presentation, d_max): every fixture at its own d_max, its lex copy
    and two coordinate changes, and seeded 1-, 2- and 3-row blocks over QQ,
    F_32003 and F_7 (twisted rows among them) at d_max 6."""
    rng = random.Random(2025)
    cases = []
    for name in FIXTURE_NAMES:
        spec = parse_problem_text(fixture_path(name).read_text(), name)
        P = spec.presentation
        cases += [(P, spec.d_max), (hilbert_reference.with_order(P, "lex"), spec.d_max)]
        for _ in range(2):
            a = hilbert_reference.coordinate_change(rng)
            cases.append((hilbert_reference.substitute(P, a), spec.d_max))
    shapes = (((0,), (1, 2, 2)), ((2,), (3, 3)), ((0, 0), (1, 1, 1)),
              ((0, 1), (2, 2, 2, 2)), ((0, 0, 0), (1, 1, 1, 1)))
    for field in (QQ, GF(32003), GF(7)):
        for row_twists, col_twists in shapes:
            P = hilbert_reference.generic_block(rng, field, 4, row_twists, col_twists)
            cases.append((P, 6))
    return cases


def test_certified_piece_ranks_are_read_off_the_buchsbaum_rim_terms(monkeypatch):
    """Once `classify` certifies Φ standard, "auto" ranks every piece off the
    Buchsbaum-Rim terms: it equals the explicit engines in every degree up
    to d_max, assembles no piece and builds no column module, and keeps the
    terms on the matrix.  A table hit marks a new matrix as well."""
    assembled = []
    original = grading.matrix_piece

    def spy(phi, d):
        assembled.append(phi)
        return original(phi, d)

    certified = 0
    for P, d_max in _term_route_cases():
        m = _fresh(P)
        oracle = [_oracle_rank(m, d) for d in range(-1, d_max + 1)]
        m = _fresh(P)
        Q = DeterminantalPresentation(m)
        verdict = classify(Q)
        assert m.standard == verdict.is_standard
        if not verdict.is_standard:
            continue
        certified += 1
        with monkeypatch.context() as patch:
            patch.setattr(grading, "matrix_piece", spy)
            got = [piece_rank(m, d) for d in range(-1, d_max + 1)]
            coker = [hilbert_function(Coker(m), d) for d in range(d_max + 1)]
        assert got == oracle
        assert coker == [m.target.dim(d) - oracle[d + 1] for d in range(d_max + 1)]
        assert assembled == [] and m.column_module is None
        assert m.coker_terms is not None
        again = _fresh(P)
        assert classify(DeterminantalPresentation(again)) is verdict and again.standard
    assert certified >= 30


def test_uncertified_piece_ranks_still_run_an_engine(monkeypatch):
    """Seeded inputs that are not standard (a row with two equal entries, a
    2 x 4 linear matrix in two variables) or were never classified keep
    today's engines: a one-row piece goes to the column module, a small
    multi-row piece is assembled."""
    rng = random.Random(2026)
    cases = []
    for field in (QQ, GF(32003)):
        ring = PolyRing(("x0", "x1", "x2", "x3"), field)
        f, g = (random_homogeneous(ring, 1, rng, bound=5) for _ in range(2))
        cases.append(matrix_from_polys(ring, [[f, f, g]], (0,), (1, 1, 1)))
        x0, x1 = ring.gens()[:2]
        rows = [[x0.scale(field.from_int(rng.randint(1, 5))) + x1.scale(field.from_int(rng.randint(1, 5)))
                 for _ in range(4)] for _ in range(2)]
        cases.append(matrix_from_polys(ring, rows, (0, 0), (1, 1, 1, 1)))
    assembled = []
    original = grading.matrix_piece

    def spy(phi, d):
        assembled.append((phi, d))
        return original(phi, d)

    for m in cases:
        assert not classify(DeterminantalPresentation(m)).is_standard
        assert not m.standard
        for d in range(5):
            assembled.clear()
            with monkeypatch.context() as patch:
                patch.setattr(grading, "matrix_piece", spy)
                got = piece_rank(m, d)
            assert got == original(m, d).rank()
            if m.nrows == 1:
                assert assembled == [] and m.column_module is not None
            else:
                assert assembled == [(m, d)]
