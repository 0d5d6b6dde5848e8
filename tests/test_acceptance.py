"""Acceptance suite: exact reproduction of the worked examples.

Each test prints one [PASS]/[FAIL] line; run with `pytest -v -s
tests/test_acceptance.py` to see them.  Stated time budgets are asserted.
"""

import random
import time
from contextlib import contextmanager
from math import comb

from detschemes import (
    GradedFreeModule,
    HomogeneousMatrix,
    augment_general_row,
    betti_table,
    buchsbaum_eisenbud,
    buchsbaum_rim,
    build_flag,
    canonical_module,
    classify,
    cm_type,
    delete_row,
    eagon_northcott,
    ensure_gb,
    find_generalized_row,
    graded_exactness_check,
    hilbert_function,
    ideal,
    matrix_piece,
    minimal_generator_count,
    minors,
    presentation_from_strings,
    quotient_hilbert_function,
    section_sequence,
    verify_annihilator,
    verify_complex,
)
from detschemes.determinantal import _verify_deletion
from detschemes.grading import zero_matrix
from detschemes.ring import random_homogeneous
from groebner_reference import ideal_contained, normal_form
from linalg_reference import piece_multiply


@contextmanager
def criterion(number, description, limit_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    if limit_seconds is not None and elapsed > limit_seconds:
        print(f"[FAIL] criterion {number}: {description} (over {limit_seconds}s)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s > {limit_seconds}s"
        )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def _all_fixtures(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    return {
        "double_point": double_point,
        "cubic_curve": cubic_curve,
        "coordinate_axes": coordinate_axes,
        "ci_codim2": ci_codim2,
        "ci_codim3": ci_codim3,
        "generic_2x4": generic_2x4,
    }


def test_criterion_1_double_point(ring, double_point):
    with criterion(1, "standard-not-good double point", limit_seconds=1.0):
        rep = classify(double_point)
        assert rep.is_standard is True and rep.is_good is False
        I = minors(double_point, 2)
        square = ideal(
            ring,
            "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2",
        )
        gb_i, gb_sq = ensure_gb(I), ensure_gb(square)
        for g in I.generators:
            assert normal_form(g, gb_sq).is_zero()
        for g in square.generators:
            assert normal_form(g, gb_i).is_zero()
        counts = minimal_generator_count(I)
        assert counts == {2: 6}
        assert sum(counts.values()) == comb(4, 2)


def test_criterion_2_good_curves(ring, cubic_curve, coordinate_axes):
    with criterion(2, "good cubic curve (literal row)", limit_seconds=1.0):
        rep = classify(cubic_curve)
        assert rep.is_good
        assert rep.actual_height == 2 and rep.submaximal_height == 4
    with criterion(2, "coordinate axes need a generalized row", limit_seconds=1.0):
        rep = classify(coordinate_axes)
        assert rep.is_good
        assert ensure_gb(minors(coordinate_axes, 2)).generators == ensure_gb(
            ideal(ring, "x1*x2", "x1*x3", "x2*x3")
        ).generators
        for i in (0, 1):
            ok, _ = _verify_deletion(
                coordinate_axes, delete_row(coordinate_axes, i)
            )
            assert not ok  # every literal deletion fails
        witness = find_generalized_row(coordinate_axes, seed=42)
        assert witness is not None and witness.verified
        assert witness.literal_row is None


def test_criterion_3_cm_type(double_point, cubic_curve, ci_codim2, ci_codim3):
    with criterion(3, "Cohen-Macaulay types match C(r+t-1, r)"):
        cases = [
            (ci_codim2, 1, 1, 1),
            (ci_codim3, 1, 2, 1),
            (cubic_curve, 2, 1, 2),
            (double_point, 2, 2, 3),
        ]
        for pres, t, r, expected in cases:
            assert (pres.t, pres.r) == (t, r)
            assert cm_type(pres) == expected == comb(r + t - 1, r)
            assert eagon_northcott(pres).modules[-1].rank == expected


def test_criterion_4_complex_soundness(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    fixtures = _all_fixtures(
        double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
    )
    with criterion(4, "EN/BR complexes: dd = 0 and Buchsbaum-Eisenbud", 5.0):
        for name, pres in fixtures.items():
            en, br = eagon_northcott(pres), buchsbaum_rim(pres)
            assert verify_complex(en), name
            assert verify_complex(br), name
            assert buchsbaum_eisenbud(en).passed, name
            assert buchsbaum_eisenbud(br).passed, name
            assert sum((-1) ** i * r for i, r in enumerate(en.ranks)) == 0, name
            assert sum((-1) ** i * r for i, r in enumerate(br.ranks)) == 0, name
        assert eagon_northcott(double_point).ranks == (1, 6, 8, 3)
        assert buchsbaum_rim(double_point).ranks == (2, 4, 4, 2)


def test_criterion_5_oracle_agreement(
    double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    fixtures = _all_fixtures(
        double_point, cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
    )
    with criterion(5, "graded exactness 0..10 agrees with Buchsbaum-Eisenbud"):
        degrees = range(11)
        for name, pres in fixtures.items():
            for builder in (eagon_northcott, buchsbaum_rim):
                be = buchsbaum_eisenbud(builder(pres))
                # a fresh complex carries no verdict, so its pieces are ranked
                graded = graded_exactness_check(builder(pres), degrees)
                assert be.passed == graded.all_exact, name
            en = eagon_northcott(pres)
            I = minors(pres, pres.t)
            for d in degrees:
                alt = sum((-1) ** i * m.dim(d) for i, m in enumerate(en.modules))
                assert alt == hilbert_function(I, d), (name, d)
                assert alt == quotient_hilbert_function(I, d), (name, d)


def test_criterion_6_annihilator(double_point, cubic_curve, coordinate_axes):
    with criterion(6, "annihilator of coker equals the minor ideal to degree 8", 10.0):
        for pres in (double_point, cubic_curve, coordinate_axes):
            assert verify_annihilator(pres, d_max=8).passed


def test_criterion_7_section_sequences(
    cubic_curve, coordinate_axes, ci_codim2, ci_codim3, generic_2x4
):
    good = {
        "cubic_curve": cubic_curve,
        "coordinate_axes": coordinate_axes,
        "ci_codim2": ci_codim2,
        "ci_codim3": ci_codim3,
        "generic_2x4": generic_2x4,
    }
    with criterion(7, "row augmentation and Hilbert additivity to degree 10", 10.0):
        for name, pres in good.items():
            psi = augment_general_row(pres, seed=42)
            rep = classify(psi)
            assert rep.is_good and rep.expected_codim == pres.r, name
            seq = section_sequence(psi, deleted_row=pres.t, d_max=10)
            assert seq.additivity_ok, name
            for d, hs, hq, hx in seq.hf_rows:
                assert hs == hq + hx, (name, d)


def test_criterion_8_flags(cubic_curve, ci_codim3):
    with criterion(8, "flags of good subschemes with verified containments", 30.0):
        flag1 = build_flag(cubic_curve, seed=42)
        assert flag1.codims == (2, 1)
        flag2 = build_flag(ci_codim3, seed=42)
        assert flag2.codims == (3, 2, 1)
        for flag in (flag1, flag2):
            assert flag.all_good
            assert flag.containments_ok
            steps = list(flag.codims)
            assert steps == list(range(steps[0], 0, -1))


def test_criterion_9_canonical_module(cubic_curve, coordinate_axes, ci_codim2):
    with criterion(9, "codimension-2 canonical module alignment"):
        for pres in (cubic_curve, coordinate_axes):
            result = canonical_module(pres, d_max=10)
            assert result.degrees == tuple(range(11))
        ci = canonical_module(ci_codim2, d_max=10)
        assert ci.cyclic and ci.shift == -2


def test_criterion_10_property_suites(ring, double_point, cubic_curve, generic_2x4):
    with criterion(10, "property suites and mutation detection"):
        rng = random.Random(42)
        # Groebner invariants
        I = minors(double_point, 2)
        gb = ensure_gb(I)
        for _ in range(10):
            p = random_homogeneous(ring, rng.randint(1, 4), rng)
            r1 = normal_form(p, gb)
            assert normal_form(r1, gb) == r1
        for g in I.generators:
            assert normal_form(g, gb).is_zero()
        from detschemes import dimension_report

        for pres in (double_point, cubic_curve, generic_2x4):
            rep = dimension_report(minors(pres, pres.t))
            assert rep.height + rep.krull_dim == ring.nvars
        # graded-piece functoriality
        a = cubic_curve.matrix
        b_entries = [[ring.parse("x1")], [ring.parse("x2")], [ring.parse("x3")]]
        b = HomogeneousMatrix(
            a.source, GradedFreeModule(ring, (2,)), b_entries
        )
        for d in range(5):
            assert matrix_piece(a.compose(b), d).cols == (
                piece_multiply(matrix_piece(a, d), matrix_piece(b, d)).cols
            )
        # minor containment
        for pres in (double_point, generic_2x4):
            assert ideal_contained(minors(pres, 2), minors(pres, 1))
        # syzygy-entry membership: the map into F has entries in the minors
        br = buchsbaum_rim(double_point)
        for row in br.differentials[1].entries:
            for p in row:
                if not p.is_zero():
                    assert normal_form(p, gb).is_zero()
        # Betti invariance under an invertible row operation
        base = betti_table(eagon_northcott(double_point)).as_dict()
        m = double_point.matrix
        two = ring.constant(ring.field.from_int(2))
        moved_rows = [
            [str(p) for p in m.entries[0]],
            [str(m.entries[1][j] + two * m.entries[0][j]) for j in range(m.ncols)],
        ]
        moved = presentation_from_strings(ring, moved_rows)
        assert betti_table(eagon_northcott(moved)).as_dict() == base
        # mutations are detected
        en = eagon_northcott(double_point)
        d2 = en.differentials[1]
        flipped_entries = [
            [-p if j == 0 else p for j, p in enumerate(row)] for row in d2.entries
        ]
        flipped = en.replaced(
            2, HomogeneousMatrix(d2.target, d2.source, flipped_entries)
        )
        assert not verify_complex(flipped)
        zeroed = en.replaced(2, zero_matrix(en.modules[1], en.modules[2]))
        assert verify_complex(zeroed)
        assert not buchsbaum_eisenbud(zeroed).passed
        assert not graded_exactness_check(zeroed, range(5)).all_exact
        deficient = presentation_from_strings(
            ring, [["x0", "x1", "0", "0"], ["0", "x0", "x1", "0"]]
        )
        assert not buchsbaum_eisenbud(eagon_northcott(deficient)).passed
