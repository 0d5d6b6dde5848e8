"""The integer Buchberger kernel against the Fraction-based reference.

`groebner_reference` keeps the Buchberger, normal form and S-polynomial
that ran on field arithmetic before the kernel.  Every basis here must equal
the reference's byte for byte: the same monomial keys, the same
coefficients and the same coefficient types.
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
    buchberger,
    ensure_gb,
    ideal_quotient,
    intersect,
    normal_form,
    reduce_full,
    saturate,
    spoly,
)
from detschemes.grading import hilbert_function, matrix_from_polys
from detschemes.memo import Memo
from detschemes.ring import MAX_DEGREE, NOT_HOMOGENEOUS, Monomial, RingError, random_homogeneous
from linalg_reference import quotient_piece_hilbert

VARS3 = ("x0", "x1", "x2")
VARS4 = ("x0", "x1", "x2", "x3")


def _signature(polys):
    return [tuple((m.key, type(c), c) for m, c in p.terms) for p in polys]


def _assert_same_basis(gens, ring=None):
    got, want = buchberger(gens, ring), ref.buchberger(gens, ring)
    assert (got.ring, got.is_reduced_gb, got.order) == (want.ring, want.is_reduced_gb, want.order)
    assert _signature(got.generators) == _signature(want.generators)
    return got


def _form(ring, d, rng, coeff, size=4):
    monos = ring.monomials_of_degree(d)
    picks = rng.sample(monos, min(len(monos), rng.randint(2, size)))
    return ring.from_terms((m, coeff(rng)) for m in picks)


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

    def record(span, ring):
        seen.append(([groebner._polynomial(ring, poly, 1) for poly in span], ring))
        if check is not None:
            check(*seen[-1])
        return original(span, ring)

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


@pytest.mark.parametrize("order", ["lex", "elim_last"])
@pytest.mark.parametrize("field", [None, GF(32003)], ids=["QQ", "F32003"])
def test_other_orders_match_the_reference(order, field):
    rng = random.Random(703)
    base = PolyRing(VARS3) if field is None else PolyRing(VARS3, field)
    ring = base.with_order(order)
    coeff = _with_denominators if field is None else ring.field.random
    for _ in range(5):
        _assert_same_basis(_system(ring, rng, coeff, rng.randint(2, 3), (1, 2)), ring)
    # inhomogeneous generators pass the linear preprocess untouched
    for _ in range(3):
        gens = [
            _form(ring, 2, rng, coeff) + _form(ring, 1, rng, coeff, 2)
            for _ in range(rng.randint(2, 3))
        ]
        _assert_same_basis(gens, ring)


def test_elimination_ideals_match_the_reference(monkeypatch):
    rng = random.Random(704)
    for field in (None, GF(32003), GF(7)):
        ring = PolyRing(VARS4) if field is None else PolyRing(VARS4, field)
        coeff = _with_denominators if field is None else ring.field.random
        I = ideal(ring, "x0*x1", "x1*x2", "x0^2*x3")
        J = ideal(ring, "x1", "x2 + x3")
        K = ideal(ring, *_system(ring, rng, coeff, 3, (2,)))
        L = ideal(ring, *_system(ring, rng, coeff, 2, (1,)))

        def action():
            intersect(I, J)
            intersect(K, L)
            ideal_quotient(I, J)
            ideal_quotient(K, L)
            saturate(I, J)
            saturate(K, ideal(ring, "x0"))

        seen = _recorded(monkeypatch, action)
        # the auxiliary-variable ideals are inhomogeneous, in elim_last order
        assert any(r is not None and r.order == "elim_last" for _, r in seen)
        for gens, r in seen:
            _assert_same_basis(gens, r)


def _random_exponents(n, d, rng):
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


def test_packed_lift_and_project_match_the_exponent_tuples():
    """Lifts by tails of 1-4 variables and projections, at degrees up to
    the limit; a lift past it raises as Monomial() does."""
    rng = random.Random(811)
    raised = 0
    for n in range(3, 8):
        for field in (QQ, GF(32003)):
            ring = PolyRing(tuple(f"x{i}" for i in range(n)), field)
            coeff = _with_denominators if field is QQ else field.random
            for _ in range(12):
                extra = rng.randint(1, 4)
                aux, _ = groebner._aux_ring(ring, extra, rng.choice(("grevlex", "elim_last")))
                degrees = (0, 1, rng.randint(2, 40), MAX_DEGREE - 1, MAX_DEGREE)
                p = ring.from_terms(
                    (Monomial(_random_exponents(n, rng.choice(degrees), rng)), coeff(rng))
                    for _ in range(rng.randint(1, 4))
                )
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
            # projections drop the last variable; terms that differ only
            # there add up, and may cancel
            aux, _ = groebner._aux_ring(ring, 1, "elim_last")
            for _ in range(12):
                terms = []
                for _ in range(rng.randint(1, 4)):
                    exps, c = _random_exponents(n + 1, rng.choice(degrees), rng), coeff(rng)
                    terms.append((Monomial(exps), c))
                    if exps[-1] and rng.random() < 0.5:
                        terms.append((Monomial(exps[:-1] + (exps[-1] - 1,)), -c))
                q = aux.from_terms(terms)
                got, want = groebner._project(q, ring), ref.project(q, ring)
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


def test_normal_forms_and_spolys_match_the_reference():
    rng = random.Random(705)
    for field in (None, GF(32003), GF(7)):
        ring = PolyRing(VARS4) if field is None else PolyRing(VARS4, field)
        coeff = _with_denominators if field is None else ring.field.random
        gens = _system(ring, rng, coeff, 3, (1, 2))
        gb = buchberger(gens, ring)
        for _ in range(6):
            p = _form(ring, rng.randint(1, 3), rng, coeff, 6)
            assert _signature([normal_form(p, gb)]) == _signature([ref.reduce_full(p, list(gb))])
            # reducers that are neither monic nor a basis
            assert _signature([reduce_full(p, gens)]) == _signature([ref.reduce_full(p, gens)])
        for f in gens:
            for g in gens:
                if f is not g:
                    assert _signature([spoly(f, g)]) == _signature([ref.spoly(f, g)])


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
    degree limit although the lcm of the leading terms does not."""
    lex = PolyRing(VARS4).with_order("lex")
    f, g = lex.parse(f"x0 + x1^{MAX_DEGREE}"), lex.parse("x0*x2")
    for build in (spoly, ref.spoly):
        with pytest.raises(RingError):
            build(f, g)
    for basis in (buchberger, ref.buchberger):
        with pytest.raises(RingError):
            basis([f, g], lex)


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
    # I_S's own basis: once per call, in the grevlex copy of the ring
    assert _rings(seen).count(P.ring.with_order("grevlex")) == 1
    seq = seqs[0]
    assert seq.additivity_ok
    assert all(
        hq == quotient_piece_hilbert(seq.ideal_s, d - seq.twist) for d, _, hq, _ in seq.hf_rows
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
        [[grevlex.from_keys({m.key: c for m, c in f.terms}) for f in row] for row in P.matrix.entries],
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
    P = _seeded_lex_2x3()
    reports = []
    seen = _recorded(monkeypatch, lambda: reports.append(verify_annihilator(P, 4)), _no_lex)
    assert seen and reports[0].passed


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

    def counted(span, ring):
        runs.append(ring)
        return original(span, ring)

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


@pytest.mark.parametrize("order", ["grevlex", "lex", "elim_last"])
@pytest.mark.parametrize("field", [None, GF(32003)], ids=["QQ", "F32003"])
def test_lists_with_one_span_share_one_table_entry(order, field, monkeypatch, fresh_gb_table):
    """ensure_gb against the reference on seeded lists and their variants:
    one basis run and one table entry per span."""
    rng = random.Random(901)
    base = PolyRing(VARS3) if field is None else PolyRing(VARS3, field)
    ring = base.with_order(order)
    coeff = _with_denominators if field is None else ring.field.random
    entries = 0
    for gens in _span_cases(ring, rng, coeff):
        want = _signature(ref.buchberger(gens, ring).generators)
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
                assert _signature(ensure_gb(I).generators) == want
                assert groebner.stored_basis(I) is not None
        assert runs == [ring] * (1 + bool(inhomogeneous))
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


def test_memo_false_reads_the_table_and_writes_no_entry(ring, fresh_gb_table):
    gens = [ring.parse(g) for g in ("x0^2 - 3/2*x1*x2", "x1*x3 + x2^2", "x0*x3")]
    I = ideal(ring, *gens)
    gb = ensure_gb(I, memo=False)
    assert len(fresh_gb_table) == 0 and groebner.stored_basis(I) is None
    J = ideal(ring, *reversed(gens), gens[0] + gens[1])
    assert ensure_gb(J) == gb and len(fresh_gb_table) == 1
    assert ensure_gb(I, memo=False) is ensure_gb(J) and len(fresh_gb_table) == 1
    # the entry weighs the generator list that stored it, and its basis
    assert fresh_gb_table.load == sum(len(p.terms) for p in (*J, *gb))


def test_a_lex_hilbert_table_lifts_each_ideal_once(monkeypatch, fresh_gb_table):
    P = _fixture("generic_2x4")
    lex = P.ring.with_order("lex")
    I = ideal(lex, *(lex.from_keys({m.key: c for m, c in g.terms}) for g in minors(P, P.t)))
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
