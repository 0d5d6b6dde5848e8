"""Hilbert functions read off Eagon-Northcott and Buchsbaum-Rim terms.

Once a verdict certifies ht I_t(Φ) = r + 1, EN(Φ) resolves R/I_t, BR(Φ)
resolves coker Φ and the dual EN complex resolves ω, so each Hilbert
function is an alternating sum over term twists.  These tests compare the
sums, and the section sequences and canonical modules built on them, with
the piece-rank and standard-monomial oracles of `hilbert_reference`.
"""

import random

import pytest

from detschemes import GF, QQ, determinantal, grading, groebner
from detschemes.cli import FIXTURE_NAMES, fixture_path, parse_problem_text
from detschemes.complexes import canonical_module, eagon_northcott
from detschemes.determinantal import (
    DeterminantalPresentation,
    _laplace_minors,
    augment_general_row,
    br_terms,
    classify,
    delete_row,
    en_terms,
    find_generalized_row,
    resolution_hilbert_function,
    section_sequence,
)
from detschemes.errors import InputError, VerificationError
from detschemes.groebner import quotient_hilbert_function
from detschemes.memo import Memo

import hilbert_reference as ref


def _fixture(name):
    spec = parse_problem_text(fixture_path(name).read_text(), name)
    return spec.presentation, spec.d_max


def _assert_sums_match(P, d_max):
    """The twist sums of a certified presentation equal the oracles."""
    assert classify(P).is_standard
    m = P.matrix
    ideal = _laplace_minors(m, P.t)
    br, en = br_terms(m)[1], en_terms(m)[1]
    for d in range(-1, d_max + 1):
        assert resolution_hilbert_function(br, d) == ref.coker_hf(m, d), d
        assert resolution_hilbert_function(en, d) == quotient_hilbert_function(ideal, d), d
    if P.r == 1:
        omega, *_ = ref.canonical(P, 0)
        dual = [F.dual().shifted(P.ring.nvars) for F in reversed(eagon_northcott(P).modules)]
        for d in range(d_max + 1):
            assert resolution_hilbert_function(dual, d) == ref.coker_hf(omega, d), d


def _assert_certificates_match(P, d_max, seed=42, every_row=False):
    """section_sequence and canonical_module equal the oracle routes.

    The section sequence deletes the appended row, or with `every_row` each
    row in turn, so that rows of other twists are deleted too.
    """
    psi = augment_general_row(P, seed=seed)
    for row in range(psi.t) if every_row else [psi.t - 1]:
        seq = section_sequence(psi, row, d_max=d_max)
        twist = psi.matrix.target.twists[row]
        assert seq.twist == twist and seq.additivity_ok
        assert seq.hf_rows == ref.section_rows(psi, delete_row(psi, row), twist, d_max)
    if P.r == 1:
        got = canonical_module(P, d_max=d_max)
        omega, shift, cyclic, degrees = ref.canonical(P, d_max)
        assert (got.presentation, got.shift, got.cyclic, got.degrees) == (
            omega, shift, cyclic, degrees
        )


def _variants(P, rng):
    """P, its lex copy and two seeded coordinate changes."""
    return [P, ref.with_order(P, "lex")] + [
        ref.substitute(P, ref.coordinate_change(rng)) for _ in range(2)
    ]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_sums_match_the_oracles(name):
    P, d_max = _fixture(name)
    for Q in _variants(P, random.Random(name)):
        _assert_sums_match(Q, d_max)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_section_sequences_and_canonical_modules_match_the_oracles(name):
    P, d_max = _fixture(name)
    for Q in _variants(P, random.Random(name)):
        _assert_certificates_match(Q, d_max)


#: (nvars, row twists, column twists, d_max), row-surgery's shapes among them
_SEEDED_SHAPES = (
    (4, (0,), (1, 3, 3), 3),
    (4, (0, 0), (1, 1, 1), 7),
    (4, (0, 0), (2, 2, 2), 4),
    (5, (0, 0), (1, 1, 1), 4),
    (4, (0, 0, 0), (1, 1, 1, 1), 3),
    (4, (0, 0), (1, 1, 2), 3),
    (5, (0, 0), (1, 1, 1, 1), 3),
    (4, (0, 1), (2, 2, 2), 4),
    (4, (0, 1), (1, 2, 2), 4),
    (5, (0, 2), (2, 3, 3, 3), 3),
)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_seeded_standard_inputs_match_the_oracles(field):
    rng = random.Random(20261017)
    for nvars, rows, cols, d_max in _SEEDED_SHAPES:
        P = ref.generic_block(rng, field, nvars, rows, cols)
        _assert_sums_match(P, d_max)
        _assert_certificates_match(P, d_max, seed=rng.randrange(2**32), every_row=True)


#: (nvars, row twists, column twists, d_max) of presentations P with r >= 2:
#: their augmented matrices psi have codimension r(psi) + 1 = r >= p
_SMALL_P_SHAPES = (
    (4, (0,), (1, 3, 3), 3),
    (5, (0,), (1, 1, 1), 4),
    (4, (0,), (1, 1, 1, 1), 3),
    (5, (0,), (1, 1, 1, 1), 3),
    (5, (0, 0), (1, 1, 1, 1), 3),
    (4, (0, 1), (1, 2, 2, 2), 3),
    (4, (0,), (1, 1, 2, 2), 3),
    (5, (0,), (1, 2, 2, 2), 3),
    (5, (0,), (1, 1, 1, 1, 1), 3),
)


@pytest.mark.parametrize("p", [2, 3])
def test_small_characteristic_section_sequences_match_the_oracle(p):
    # Eagon-Northcott and Buchsbaum-Rim resolve in every characteristic, so
    # the twist sums hold where the complex builders refuse: r(psi) + 1 >= p
    rng = random.Random(20261017 + p)
    checked = 0
    for nvars, rows, cols, d_max in _SMALL_P_SHAPES:
        if len(cols) - len(rows) < p:
            continue
        # small fields often draw special matrices: take the first good one
        P = next(P for P in (ref.generic_block(rng, GF(p), nvars, rows, cols)
                             for _ in range(20)) if classify(P).is_good)
        psi = augment_general_row(P, seed=rng.randrange(2**32))
        for row in range(psi.t):
            deleted = delete_row(psi, row)
            if not classify(DeterminantalPresentation(deleted)).is_standard:
                with pytest.raises(VerificationError):
                    section_sequence(psi, row, d_max=d_max)
                continue
            seq = section_sequence(psi, row, d_max=d_max)
            twist = psi.matrix.target.twists[row]
            assert seq.twist == twist and seq.additivity_ok
            assert seq.hf_rows == ref.section_rows(psi, deleted, twist, d_max)
            checked += 1
    assert checked >= 6
    # ω needs the Eagon-Northcott complex, which is refused as before
    Q = ref.generic_block(rng, GF(2), 4, (0, 0), (1, 1, 1))
    with pytest.raises(InputError):
        canonical_module(Q)


def _spied(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_a_section_sequence_builds_no_minors_basis_or_piece(monkeypatch, generic_2x4):
    psi = augment_general_row(generic_2x4, seed=3)
    calls = []
    _spied(monkeypatch, determinantal, "minors", calls)
    _spied(monkeypatch, groebner, "hilbert_basis", calls)
    _spied(monkeypatch, grading, "piece_rank", calls)
    seq = section_sequence(psi, 2, d_max=6)
    assert seq.additivity_ok and calls == []
    assert seq.hf_rows == ref.section_rows(psi, delete_row(psi, 2), 0, 6)


def test_an_allowed_small_characteristic_takes_the_twist_route(monkeypatch):
    rng = random.Random(5)
    P = ref.generic_block(rng, GF(5), 4, (0, 0), (1, 1, 1, 1))
    assert classify(P).is_good
    calls = []

    def counted(modules, d):
        calls.append(d)
        return resolution_hilbert_function(modules, d)

    monkeypatch.setattr(determinantal, "resolution_hilbert_function", counted)
    seq = section_sequence(P, 1, d_max=5)
    assert len(calls) == 3 * 6
    assert seq.hf_rows == ref.section_rows(P, delete_row(P, 1), 0, 5)


def test_a_generalized_row_section_sequence_pins_no_minors(monkeypatch, coordinate_axes):
    witness = find_generalized_row(coordinate_axes)
    assert witness.literal_row is None
    # the witness search stored the deleted matrix's minors; start empty, so
    # a lookup that stores shows
    table = Memo(determinantal._MINORS_CACHE.budget)
    monkeypatch.setattr(determinantal, "_MINORS_CACHE", table)
    seq = section_sequence(coordinate_axes, witness, d_max=6)
    assert seq.additivity_ok
    assert len(table) == 0 and table.load == 0
