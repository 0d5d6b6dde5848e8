"""The integer Buchberger kernel against the Fraction-based reference.

`groebner_reference` keeps the Buchberger, normal form and S-polynomial
that ran on field arithmetic before the kernel.  Every basis here must equal
the reference's byte for byte: the same monomial keys, the same
coefficients and the same coefficient types.  Every basis is a grevlex one:
a lex ring reaches the kernel only through its grevlex copy.
"""

import random
from fractions import Fraction

import pytest

import groebner_reference as ref
from detschemes import (
    GF,
    QQ,
    PolyRing,
    buchsbaum_rim,
    classify,
    complexes,
    eagon_northcott,
    groebner,
    ideal,
    minors,
)
from detschemes.cli import FIXTURE_NAMES, fixture_path, parse_problem_text
from detschemes.complexes import betti_table, buchsbaum_eisenbud, verify_annihilator, verify_complex
from detschemes.determinantal import DeterminantalPresentation, section_sequence
from detschemes.field import RationalField
from detschemes.groebner import (
    ColumnModuleGB,
    GroebnerError,
    buchberger,
    ensure_gb,
    grevlex_ideal,
    hilbert_basis,
)
from detschemes.grading import hilbert_function, matrix_from_polys
from detschemes.memo import Memo
from detschemes.ring import MAX_DEGREE, NOT_HOMOGENEOUS, RingError, random_homogeneous
from linalg_reference import quotient_piece_hilbert

VARS3 = ("x0", "x1", "x2")
VARS4 = ("x0", "x1", "x2", "x3")


def _signature(polys):
    return [tuple((k, type(c), c) for k, c in p.terms) for p in polys]


def _assert_same_basis(gens, ring=None):
    got, want = buchberger(gens, ring), ref.buchberger(gens, ring)
    assert (got.ring, got.is_reduced_gb, got.order) == (want.ring, want.is_reduced_gb, want.order)
    assert _signature(got.generators) == _signature(want.generators)
    return got


def _form(ring, d, rng, coeff, size=4):
    monos = ring.monomials_of_degree(d)
    picks = rng.sample(monos, min(len(monos), rng.randint(2, size)))
    return ring.from_keys({m: coeff(rng) for m in picks})


def _with_denominators(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))


def _near_2_64(rng):
    return Fraction(rng.choice([-1, 1]) * (2**64 + rng.randint(-9, 9)), rng.randint(1, 3))


def _system(ring, rng, coeff, count, degrees=(1, 2, 3)):
    return [_form(ring, rng.choice(degrees), rng, coeff) for _ in range(count)]


def _fresh_gb_cache(patch):
    """An empty Groebner table for the patch's lifetime, so no basis is read."""
    table = groebner._GB_CACHE
    patch.setattr(groebner, "_GB_CACHE", Memo(table.budget))


def _recorded(monkeypatch, action, check=None):
    """The generators of every canonical span `action` hands to
    `_buchberger`, which computes every basis, with its ring; `check(gens,
    ring)` runs on each before the basis is built."""
    seen = []
    original = groebner._buchberger

    def record(span, ring, *rest):
        seen.append(([groebner._polynomial(ring, poly, 1) for poly in span], ring))
        if check is not None:
            check(*seen[-1])
        return original(span, ring, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_buchberger", record)
        _fresh_gb_cache(patch)
        action()
    return seen


@pytest.mark.parametrize(
    "coeff", [_with_denominators, _near_2_64], ids=["denominators", "near_2_64"]
)
def test_qq_bases_match_the_reference(coeff):
    rng = random.Random(701)
    ring = PolyRing(VARS4)
    for _ in range(6):
        _assert_same_basis(_system(ring, rng, coeff, rng.randint(2, 4), (1, 2)), ring)
    # many same-degree forms go through the fraction-free linear preprocess
    _assert_same_basis(_system(ring, rng, coeff, 8, (2,)), ring)


@pytest.mark.parametrize("p", [32003, 7])
def test_prime_field_bases_match_the_reference(p):
    rng = random.Random(702 + p)
    ring = PolyRing(VARS4, GF(p))
    residue = ring.field.random
    for _ in range(8):
        _assert_same_basis(_system(ring, rng, residue, rng.randint(2, 4), (1, 2)), ring)
    _assert_same_basis(_system(ring, rng, residue, 8, (2,)), ring)


def _random_exponents(n, d, rng):
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


def _sum_of_terms(ring, pairs):
    """The polynomial sum of c * x^e over (exponent tuple e, c) pairs."""
    acc = {}
    for exps, c in pairs:
        k = ring.monomial(exps)
        acc[k] = acc[k] + c if k in acc else c
    return ring.from_keys(acc)


def test_packed_lifts_match_the_exponent_tuples():
    """Lifts by tails of 1-4 variables, at degrees up to the limit; a lift
    past it raises as `PolyRing.monomial` does."""
    rng = random.Random(811)
    raised = 0
    for n in range(3, 8):
        for field in (QQ, GF(32003)):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), field)
            coeff = _with_denominators if field is QQ else field.random
            for _ in range(12):
                extra = rng.randint(1, 4)
                aux, _ = groebner._aux_ring(ring, extra)
                degrees = (0, 1, rng.randint(2, 40), MAX_DEGREE - 1, MAX_DEGREE)
                p = _sum_of_terms(ring, (
                    (_random_exponents(n, rng.choice(degrees), rng), coeff(rng))
                    for _ in range(rng.randint(1, 4))
                ))
                entries = (0, 1, rng.randint(2, 9), rng.randint(0, MAX_DEGREE))
                tail = rng.choice((None, tuple(rng.choice(entries) for _ in range(extra))))
                try:
                    want = ref.lift(p, aux, tail)
                except RingError:
                    raised += 1
                    with pytest.raises(RingError):
                        groebner._lift(p, aux, tail)
                else:
                    got = groebner._lift(p, aux, tail)
                    assert got.ring == want.ring and _signature([got]) == _signature([want])
    assert raised


def _fixture(name, field=None):
    text = fixture_path(name).read_text()
    if field is not None:
        text = text.replace("ring.field: QQ", f"ring.field: {field}")
    return parse_problem_text(text, name).presentation


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_minor_ideals_and_idealizations_match_the_reference(name, monkeypatch):
    P = _fixture(name)
    for s in {P.t, P.t - 1} - {0}:
        _assert_same_basis(minors(P, s))
    phi = P.matrix
    seen = _recorded(
        monkeypatch, lambda: ColumnModuleGB(phi.ring, phi.target.twists, phi.columns())
    )
    assert len(seen) == 1
    for gens, r in seen:
        _assert_same_basis(gens, r)
    if name == "generic_2x4":  # an F_p idealization with more rows: EN's first differential
        d = eagon_northcott(_fixture(name, "Fp:32003")).differentials[0]
        seen = _recorded(
            monkeypatch, lambda: ColumnModuleGB(d.ring, d.target.twists, d.columns())
        )
        for gens, r in seen:
            _assert_same_basis(gens, r)


def _multi_row_matrices():
    """Every fixture's matrix and Eagon-Northcott differentials with two or
    more rows, and seeded 2- and 3-row matrices over QQ and F_32003 (an
    entry of negative degree is zero)."""
    out = []
    for name in FIXTURE_NAMES:
        P = _fixture(name)
        out += [m for m in (P.matrix, *eagon_northcott(P).differentials) if m.nrows >= 2]
    rng = random.Random(20261020)
    shapes = (((0, 0), (1, 1, 2)), ((0, 1), (1, 2, 2, 3)), ((0, 0, 0), (1, 1, 1, 1)),
              ((0, 0, 1), (1, 1, 2, 2, 2)))
    for field in (QQ, GF(32003)):
        ring = PolyRing(VARS4, field)
        for row_twists, col_twists in shapes:
            rows = [
                [random_homogeneous(ring, b - a, rng, bound=5) if b >= a else ring.zero()
                 for b in col_twists]
                for a in row_twists
            ]
            out.append(matrix_from_polys(ring, rows, row_twists, col_twists))
    return out


def test_idealizations_skip_dead_pairs_and_keep_their_bases(monkeypatch):
    """A multi-row column module queues no pair whose lcm has e-degree 2 or
    more: its basis equals the one Buchberger computes with every pair
    queued, and it reduces fewer S-polynomials."""
    original, reduce = groebner._buchberger, groebner._reduce
    reductions = []

    def counted(*args):
        reductions[-1] += 1
        return reduce(*args)

    fewer = more = 0  # reductions over all matrices, with and without the skip
    for m in _multi_row_matrices():
        runs = []

        def record(span, ring, e_first=None):
            runs.append((span, ring, e_first))
            return original(span, ring, e_first)

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_buchberger", record)
            ColumnModuleGB(m.ring, m.target.twists, m.columns())
        [(span, ring, e_first)] = runs
        assert e_first == m.ring.nvars
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_reduce", counted)
            reductions.append(0)
            with_skip = original(span, ring, e_first)
            reductions.append(0)
            without = original(span, ring)
        assert with_skip == without
        assert _signature(with_skip.generators) == _signature(without.generators)
        fewer, more = fewer + reductions[-2], more + reductions[-1]
    assert fewer < more


def _entries(polys):
    """The kernel's reducer entries of nonzero polynomials."""
    return [groebner._entry(groebner._basis_poly(g), g.ring.nvars) for g in polys]


def _kernel_spoly(f, g):
    """The S-polynomial of f / lc(f) and g / lc(g), from the kernel's `_spair`."""
    s, scale = groebner._spair(*_entries([f, g]), f.ring)
    return groebner._polynomial(f.ring, sorted(s.items(), reverse=True), scale)


def test_normal_forms_and_spolys_match_the_reference():
    rng = random.Random(705)
    for field in (None, GF(32003), GF(7)):
        ring = PolyRing(VARS4) if field is None else PolyRing(VARS4, field)
        coeff = _with_denominators if field is None else ring.field.random
        gens = _system(ring, rng, coeff, 3, (1, 2))
        gb = buchberger(gens, ring)
        for _ in range(6):
            p = _form(ring, rng.randint(1, 3), rng, coeff, 6)
            got = groebner._reduce_poly(p, _entries(gb))
            assert _signature([got]) == _signature([ref.normal_form(p, gb)])
            # reducers that are neither monic nor a basis
            got = groebner._reduce_poly(p, _entries(gens))
            assert _signature([got]) == _signature([ref.reduce_full(p, gens)])
        for f in gens:
            for g in gens:
                if f is not g:
                    assert _signature([_kernel_spoly(f, g)]) == _signature([ref.spoly(f, g)])


_FIELD_ARITHMETIC = ("add", "sub", "mul", "div", "inv", "neg")
_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__", "__neg__",
)


def _count_fractions(patch):
    """The argument tuples of every Fraction built for the patch's lifetime."""
    built = []
    construct = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return construct(cls, *args, **kwargs)

    patch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def test_qq_buchberger_runs_no_fraction_arithmetic(monkeypatch):
    """Only the final monic step builds Fractions, one per output term."""
    rng = random.Random(706)
    ring = PolyRing(VARS4)
    inputs = [_system(ring, rng, _with_denominators, 4, (1, 2)) for _ in range(4)]
    inputs.append(list(minors(_fixture("generic_2x4"), 2)))
    want = [_signature(ref.buchberger(gens, ring).generators) for gens in inputs]

    def forbidden(*args, **kwargs):
        raise AssertionError("field arithmetic inside the integer kernel")

    for gens, expected in zip(inputs, want):
        with monkeypatch.context() as patch:
            for name in _FIELD_ARITHMETIC:
                patch.setattr(RationalField, name, forbidden)
            for name in _FRACTION_ARITHMETIC:
                patch.setattr(Fraction, name, forbidden)
            built = _count_fractions(patch)
            gb = buchberger(gens, ring)
        assert _signature(gb.generators) == expected
        assert len(built) == sum(len(g.terms) for g in gb.generators)


def test_prime_field_certificates_build_no_fraction(monkeypatch):
    """Eagon-Northcott and Buchsbaum-Rim certificates over F_p stay on
    residues, Groebner bases of the differentials' minors included."""
    P = _fixture("generic_2x4", "Fp:32003")
    with monkeypatch.context() as patch:
        built = _count_fractions(patch)
        _fresh_gb_cache(patch)
        for cpx in (eagon_northcott(P), buchsbaum_rim(P)):
            assert verify_complex(cpx)
            be = buchsbaum_eisenbud(cpx)
            assert be.passed
        betti_table(eagon_northcott(P), buchsbaum_eisenbud(eagon_northcott(P)))
    assert built == []


def test_degree_growth_in_a_tail_term_is_rejected():
    """Under lex the S-polynomial's multiple of a tail term can pass the
    degree limit although the lcm of the leading terms does not: the kernel
    refuses lex.  In grevlex that term leads, so the lcm check rejects the
    S-pair, and Buchberger, which skips the coprime pair, gets the
    reference's basis."""
    grevlex = PolyRing(VARS4)
    lex = grevlex.with_order("lex")
    f, g = lex.parse(f"x0 + x1^{MAX_DEGREE}"), lex.parse("x0*x2")
    with pytest.raises(RingError):
        ref.spoly(f, g)
    with pytest.raises(RingError):
        ref.buchberger([f, g], lex)
    with pytest.raises(GroebnerError):
        buchberger([f, g], lex)
    f, g = grevlex.parse(f"x0 + x1^{MAX_DEGREE}"), grevlex.parse("x0*x2")
    for build in (_kernel_spoly, ref.spoly):
        with pytest.raises(RingError):
            build(f, g)
    _assert_same_basis([f, g], grevlex)


def _seeded_lex_2x3():
    """A seeded 2x3 QQ matrix in lex order, row twists (0, 0) and column
    twists (1, 2, 2).  A lex basis of its 2x2 minors takes more than 20 s,
    the grevlex one milliseconds."""
    lex = PolyRing(VARS4).with_order("lex")
    rng = random.Random(1)
    rows = [[random_homogeneous(lex, tw, rng) for tw in (1, 2, 2)] for _ in range(2)]
    return DeterminantalPresentation(matrix_from_polys(lex, rows, (0, 0), (1, 2, 2)))


def _rings(seen):
    return [ring for _, ring in seen]


def _no_lex(gens, ring):
    # fail at once: the lex basis itself may take minutes
    assert ring.order != "lex", "a lex basis was started"


def test_hilbert_functions_in_lex_build_no_lex_basis(monkeypatch):
    I = minors(_seeded_lex_2x3(), 2)
    values = []
    seen = _recorded(
        monkeypatch, lambda: values.extend(hilbert_function(I, d) for d in range(8)), _no_lex
    )
    assert seen and {ring.order for ring in _rings(seen)} == {"grevlex"}
    assert values == [quotient_piece_hilbert(I, d) for d in range(8)]
    assert values == [1, 4, 10, 18, 26, 34, 42, 50]


@pytest.mark.parametrize("row", [0, 1])
def test_section_sequences_in_lex_build_no_lex_basis_and_store_none(monkeypatch, row):
    P = _seeded_lex_2x3()
    seqs = []

    def action():
        seqs.append(section_sequence(P, row))
        # the basis of I_S is stored nowhere, nor is any other
        assert len(groebner._GB_CACHE) == 0

    seen = _recorded(monkeypatch, action, _no_lex)
    assert {ring.order for ring in _rings(seen)} == {"grevlex"}
    # I_S's Hilbert function comes from the Eagon-Northcott terms: no basis
    assert _rings(seen).count(P.ring.with_order("grevlex")) == 0
    seq = seqs[0]
    assert seq.additivity_ok
    assert all(
        hq == quotient_piece_hilbert(minors(P, P.t), d - seq.twist) for d, _, hq, _ in seq.hf_rows
    )


def _seeded_lex_fp_2x3():
    """A seeded 2x3 matrix over F_32003 in lex order, row twists (1, 0) and
    column twists (2, 2, 3).  Heights read off lex bases kept `classify`
    on it running past 60 s; in grevlex it takes milliseconds."""
    lex = PolyRing(VARS4, GF(32003), "lex")
    rng = random.Random(5)
    rows = [[random_homogeneous(lex, b - a, rng) for b in (2, 2, 3)] for a in (1, 0)]
    return DeterminantalPresentation(matrix_from_polys(lex, rows, (1, 0), (2, 2, 3)))


def test_heights_in_lex_build_no_lex_basis(monkeypatch):
    P = _seeded_lex_fp_2x3()
    grevlex = P.ring.with_order("grevlex")
    Q = DeterminantalPresentation(matrix_from_polys(
        grevlex,
        [[grevlex.from_keys(dict(f.terms)) for f in row] for row in P.matrix.entries],
        P.matrix.target.twists,
        P.matrix.source.twists,
    ))

    def reports(pres):
        out = [classify(pres)]
        for builder in (eagon_northcott, buchsbaum_rim):
            cpx = builder(pres)
            assert verify_complex(cpx)
            out.append(buchsbaum_eisenbud(cpx))
        return out

    got = []
    seen = _recorded(monkeypatch, lambda: got.extend(reports(P)), _no_lex)
    assert seen and {ring.order for ring in _rings(seen)} == {"grevlex"}
    verdict = got[0]
    assert (verdict.actual_height, verdict.submaximal_height, verdict.is_good) == (2, 4, True)
    assert all(be.passed for be in got[1:])
    assert got == reports(Q)


def test_annihilator_in_lex_builds_no_lex_basis(monkeypatch):
    """With the verdict stored, the deletion certificate decides the check:
    its only bases are grevlex ones of a deletion's entries (degrees 1 and
    2), for the height of that deletion, and none of the 2x2 minors
    (degrees 3 and 4).  A forced fallback runs exactly one Buchberger, the
    column module's, in a grevlex auxiliary ring, and no lex basis."""
    P = _seeded_lex_2x3()
    assert classify(P).is_standard
    reports = []
    seen = _recorded(monkeypatch, lambda: reports.append(verify_annihilator(P, 4)), _no_lex)
    assert seen and reports[0].passed
    assert {(ring.order, ring.nvars) for ring in _rings(seen)} == {("grevlex", P.ring.nvars)}
    assert {g.homogeneous_degree() for gens, _ in seen for g in gens} <= {1, 2}
    monkeypatch.setattr(complexes, "_deletion_certificate", lambda *_: False)
    seen = _recorded(monkeypatch, lambda: reports.append(verify_annihilator(P, 4)), _no_lex)
    assert [(ring.order, ring.nvars) for ring in _rings(seen)] == [("grevlex", P.ring.nvars + 2)]
    assert reports[1] == reports[0]


# -- the Groebner table's span keys --------------------------------------------------


def _unit(ring, rng):
    """A random nonzero scalar of the ring's field."""
    p = ring.field.characteristic
    return rng.randint(1, p - 1) if p else _with_denominators(rng)


def _same_span(gens, rng):
    """Lists whose homogeneous generators span what those of `gens` span in
    each degree, with the same inhomogeneous generators up to scale:
    permuted, rescaled and padded with zeros, and with a combination of the
    homogeneous generators of each degree appended."""
    ring = gens[0].ring
    rescaled = [g.scale(_unit(ring, rng)) for g in gens]
    padded = rng.sample(gens + [ring.zero()] * 2, len(gens) + 2)
    combined = list(gens)
    for d in {g.homogeneous_degree() for g in gens}:
        if isinstance(d, int):
            same = [g for g in gens if g.homogeneous_degree() == d]
            combined.append(sum((g.scale(_unit(ring, rng)) for g in same), ring.zero()))
    return [rng.sample(gens, len(gens)), rescaled, padded, combined]


def _counted_runs(patch):
    """The rings of every basis `_buchberger` computes for the patch's lifetime."""
    runs = []
    original = groebner._buchberger

    def counted(span, ring, *rest):
        runs.append(ring)
        return original(span, ring, *rest)

    patch.setattr(groebner, "_buchberger", counted)
    return runs


def _span_cases(ring, rng, coeff):
    """Seeded generator lists: homogeneous forms, the zero and unit ideals,
    and inhomogeneous generators."""
    cases = [_system(ring, rng, coeff, rng.randint(2, 5), (1, 2)) for _ in range(3)]
    # two forms of degree 2 and their sum: a degree with a dependent generator
    f, g = _form(ring, 2, rng, coeff), _form(ring, 2, rng, coeff)
    cases.append([f, g, f + g, _form(ring, 1, rng, coeff)])
    cases.append([ring.zero()])
    cases.append([ring.constant(_unit(ring, rng)), ring.constant(_unit(ring, rng))])
    x = [ring.variable(i) for i in range(ring.nvars)]
    cases.append([x[0] * x[1] - x[2], x[1] * x[1] - ring.one(), x[2] * x[2]])
    return cases


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [None, GF(32003)], ids=["QQ", "F32003"])
def test_lists_with_one_span_share_one_table_entry(order, field, monkeypatch, fresh_gb_table):
    """hilbert_basis, the grevlex basis that `ensure_gb` stores, against the
    reference on seeded lists and their variants: one basis run and one
    table entry per span.  A lex list is keyed by its grevlex copy."""
    rng = random.Random(901)
    base = PolyRing(VARS3) if field is None else PolyRing(VARS3, field)
    ring = base.with_order(order)
    coeff = _with_denominators if field is None else ring.field.random
    entries = 0
    for gens in _span_cases(ring, rng, coeff):
        copy = [base.from_keys(dict(g.terms)) for g in gens]
        want = _signature(ref.buchberger(copy, base).generators)
        lists = [gens] + _same_span(gens, rng)
        inhomogeneous = [g for g in gens if g.homogeneous_degree() is NOT_HOMOGENEOUS]
        if inhomogeneous:
            # inhomogeneous generators pass through: a combination of them
            # is another key for the same ideal
            combination = sum((g.scale(_unit(ring, rng)) for g in inhomogeneous), ring.zero())
            lists.append(gens + [combination])
        with monkeypatch.context() as patch:
            runs = _counted_runs(patch)
            for variant in lists:
                I = ideal(ring, *variant)
                assert _signature(hilbert_basis(I).generators) == want
                assert groebner.stored_basis(grevlex_ideal(I)) is not None
        assert runs == [base] * (1 + bool(inhomogeneous))
        entries += len(runs)
        assert len(fresh_gb_table) == entries


def test_span_keys_are_exact_and_decode_to_the_span():
    rng = random.Random(902)
    for field, coeff in ((QQ, _near_2_64), (QQ, _with_denominators), (GF(7), None)):
        ring = PolyRing(VARS4, field)
        coeff = coeff or field.random
        for _ in range(6):
            gens = _system(ring, rng, coeff, rng.randint(1, 6), (0, 1, 2))
            I = ideal(ring, *gens)
            span = groebner._canonical_span([g for g in gens if not g.is_zero()], ring)
            key = I._span_key()
            assert key == (ring, groebner._encode_span(span, ring))
            assert groebner._decode_span(key[1], ring) == span
            # a generator outside the span of the others changes the key
            extra = _form(ring, 3, rng, coeff)
            assert ideal(ring, *gens, extra)._span_key() != key
            assert ideal(ring, *gens, extra.scale(_unit(ring, rng)) + gens[0])._span_key() != key
    assert ideal(PolyRing(VARS4))._span_key() != ideal(PolyRing(VARS4, GF(7)))._span_key()


def test_buchberger_writes_no_entry_that_ensure_gb_reads(ring, fresh_gb_table):
    gens = [ring.parse(g) for g in ("x0^2 - 3/2*x1*x2", "x1*x3 + x2^2", "x0*x3")]
    I = ideal(ring, *gens)
    gb = buchberger(I)
    assert gb == buchberger(gens, ring)
    assert len(fresh_gb_table) == 0 and groebner.stored_basis(I) is None
    J = ideal(ring, *reversed(gens), gens[0] + gens[1])
    assert ensure_gb(J) == gb and len(fresh_gb_table) == 1
    assert groebner.stored_basis(I) is ensure_gb(J) and len(fresh_gb_table) == 1
    assert ensure_gb(I) is ensure_gb(J) and len(fresh_gb_table) == 1
    # the entry weighs the generator list that stored it, and its basis
    assert fresh_gb_table.load == sum(len(p.terms) for p in (*J, *gb))


def test_a_lex_hilbert_table_lifts_each_ideal_once(monkeypatch, fresh_gb_table):
    P = _fixture("generic_2x4")
    lex = P.ring.with_order("lex")
    I = ideal(lex, *(lex.from_keys(dict(g.terms)) for g in minors(P, P.t)))
    lifts, spans = [], []
    lift, canonical = groebner._lift, groebner._canonical_span

    def counted_lift(*args):
        lifts.append(args[0])
        return lift(*args)

    def counted_span(*args):
        spans.append(args)
        return canonical(*args)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_lift", counted_lift)
        patch.setattr(groebner, "_canonical_span", counted_span)
        values = [hilbert_function(I, d) for d in range(11)]
    assert len(lifts) == len(I.generators) and len(spans) == 1
    assert values == [hilbert_function(minors(P, P.t), d) for d in range(11)]


def _differential_minor_ideals(P):
    """The minor ideal I_{r_i}(d_i) of every Eagon-Northcott and
    Buchsbaum-Rim differential, r_i the expected rank, and I_t, I_{t-1}."""
    ideals = [minors(P, s) for s in {P.t, P.t - 1} - {0}]
    for cpx in (eagon_northcott(P), buchsbaum_rim(P)):
        ranks, expected = [m.rank for m in cpx.modules], 0
        for i in range(len(ranks) - 1, 0, -1):
            expected = ranks[i] - expected
            d = cpx.differentials[i - 1]
            if 0 < expected <= min(d.nrows, d.ncols):
                ideals.append(minors(d, expected))
    return ideals


def _seeded_fp(row_twists, col_twists, seed):
    """A seeded matrix over F_32003 with the given twists."""
    ring = PolyRing(VARS4, GF(32003))
    rng = random.Random(seed)
    grid = [[random_homogeneous(ring, b - a, rng) for b in col_twists] for a in row_twists]
    return DeterminantalPresentation(matrix_from_polys(ring, grid, row_twists, col_twists))


_SEEDED_FP = {
    "2x4-linear": ((0, 0), (1, 1, 1, 1), 21),
    "2x3-linear": ((0, 0), (1, 1, 1), 5),
    "2x3-mixed": ((1, 0), (2, 2, 3), 8),
    "1x3-quadrics": ((0,), (2, 2, 2), 13),
    "3x4-linear": ((0, 0, 0), (1, 1, 1, 1), 34),
}


@pytest.mark.parametrize(
    "name, field",
    [(name, None) for name in _SEEDED_FP]
    + [(name, field) for name in FIXTURE_NAMES for field in ("Fp:32003", "QQ")],
)
def test_span_keys_equal_the_two_pass_route(name, field):
    """The reduced rows that the echelons keep or back-substitute give the
    span-key bytes that an echelon followed by a back-substituting second
    echelon gave, on the minor ideals that certify EN and BR acyclicity
    (the 2x4 linear I_5(d_2): 288 nonzero quintics spanning 40 of 56)."""
    P = _seeded_fp(*_SEEDED_FP[name]) if field is None else _fixture(name, field)
    for I in _differential_minor_ideals(P):
        span = ref.two_pass_span([g for g in I.generators if not g.is_zero()], I.ring)
        assert I._span_key() == (I.ring, groebner._encode_span(span, I.ring))
