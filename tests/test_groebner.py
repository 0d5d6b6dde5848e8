import math
import random

import pytest

from detschemes import (
    PolyRing,
    buchberger,
    dimension_report,
    ensure_gb,
    height,
    ideal,
    ideal_quotient,
    ideals_equal,
    is_member,
    krull_dim,
    minimal_generator_count,
    minors,
    normal_form,
    quotient_hilbert_function,
    saturate,
)
from detschemes.groebner import GroebnerError, IdealBasis, spoly, reduce_full
from detschemes.ring import random_homogeneous
from linalg_reference import FieldEchelon


def _linear_membership(p, gens):
    """Degree-piece membership oracle: no Groebner machinery involved.

    For homogeneous p of degree d, reduce against the echelon span of all
    monomial multiples of the generators in degree d.
    """
    ring = p.ring
    d = p.homogeneous_degree()
    assert isinstance(d, int)
    monomials = ring.monomials_of_degree(d)
    index = {m: i for i, m in enumerate(monomials)}
    ech = FieldEchelon(ring.field)
    for g in gens:
        dg = g.homogeneous_degree()
        if not isinstance(dg, int) or dg > d:
            continue
        for mu in ring.monomials_of_degree(d - dg):
            prod = g.mul_term(mu, ring.field.one)
            ech.insert({index[m]: c for m, c in prod.terms})
    return ech.contains({index[m]: c for m, c in p.terms})


def test_buchberger_already_reduced(ring):
    I = ideal(ring, "x0", "x1")
    gb = buchberger(I)
    assert gb.is_reduced_gb
    assert [str(g) for g in gb.generators] == ["x0", "x1"]


def test_buchberger_double_point_minors(ring, double_point):
    gb = buchberger(minors(double_point, 2))
    expected = {"x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"}
    assert {str(g) for g in gb.generators} == expected
    square = ideal(
        ring,
        *[
            f"{a}*{b}"
            for i, a in enumerate(("x1", "x2", "x3"))
            for b in ("x1", "x2", "x3")[i:]
        ],
    )
    assert ideals_equal(gb, square)


def test_buchberger_elements_lie_in_ideal(ring):
    gens = [ring.parse("x1*x3 - x0*x2"), ring.parse("x0^2")]
    gb = buchberger(gens, ring)
    # every GB element must pass the linear-algebra membership oracle
    for g in gb.generators:
        assert _linear_membership(g, gens)
    # and every generator must reduce to zero
    for g in gens:
        assert normal_form(g, gb).is_zero()
    # GB property: all S-polynomials reduce to zero
    basis = list(gb.generators)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce_full(spoly(basis[i], basis[j]), basis).is_zero()


def test_normal_form_examples(ring, double_point):
    gb = buchberger(ideal(ring, "x1", "x2", "x3"))
    assert normal_form(ring.parse("x1^2 + x0"), gb) == ring.parse("x0")
    gb2 = buchberger(minors(double_point, 2))
    for g in gb2.generators:
        assert normal_form(g, gb2).is_zero()
    assert normal_form(ring.parse("x2^2"), gb2).is_zero()


def test_normal_form_requires_certified_basis(ring):
    I = ideal(ring, "x0^2", "x1")
    with pytest.raises(GroebnerError):
        normal_form(ring.parse("x0"), I)


def test_height_examples(ring, double_point):
    assert height(ideal(ring, "x0")) == 1
    assert height(ideal(ring, "1")) == math.inf
    assert height(minors(double_point, 2)) == 3


def test_dimension_report_unit_and_zero(ring):
    unit = dimension_report(ideal(ring, "1"))
    assert unit.krull_dim == -1 and unit.height == math.inf
    zero = dimension_report(ideal(ring))
    assert zero.krull_dim == 4 and zero.height == 0


def test_ideal_quotient_examples(ring):
    q = ideal_quotient(ideal(ring, "x0*x1"), ideal(ring, "x0"))
    assert ideals_equal(q, ideal(ring, "x1"))
    I = ideal(ring, "x0^2", "x0*x3", "x1*x3 - x0*x2")
    assert ideals_equal(ideal_quotient(I, ideal(ring, "1")), I)


def test_ideal_quotient_contains_input(ring):
    # here (I : J) = I on the nose: x1*x3^2 already lies in I, e.g.
    # x3*(x1*x3 - x0*x2) + x2*(x0*x3); the degree-piece dimensions of both
    # sides agree through degree 6
    I = ideal(ring, "x0^2", "x0*x3", "x1*x3 - x0*x2")
    J = ideal(ring, "x0", "x1", "x2")
    Q = ideal_quotient(I, J)
    gbI = ensure_gb(I)
    for g in gbI.generators:
        assert is_member(g, Q)
    for d in range(7):
        dim_q = ring.dim_of_degree(d) - quotient_hilbert_function(Q, d)
        dim_i = ring.dim_of_degree(d) - quotient_hilbert_function(I, d)
        assert dim_q == dim_i
    assert ideals_equal(Q, I)


def test_ideal_quotient_strictly_grows(ring):
    I = ideal(ring, "x0^2", "x0*x1")
    J = ideal(ring, "x0", "x1")
    Q = ideal_quotient(I, J)
    assert ideals_equal(Q, ideal(ring, "x0"))
    assert is_member(ring.parse("x0"), Q)
    assert not is_member(ring.parse("x0"), I)


def test_quotient_law(ring):
    rng = random.Random(23)
    for _ in range(6):
        I = ideal(
            ring,
            random_homogeneous(ring, rng.randint(1, 2), rng),
            random_homogeneous(ring, rng.randint(1, 3), rng),
        )
        J = ideal(ring, random_homogeneous(ring, 1, rng))
        Q = ideal_quotient(I, J)
        for q in Q.generators:
            for j in J.generators:
                assert is_member(q * j, I)


def test_saturate_examples(ring, double_point):
    S = saturate(ideal(ring, "x0^2", "x0*x1"), ideal(ring, "x0"))
    assert ideals_equal(S, ideal(ring, "1"))
    # saturating by the ideal the generator chain ends in: (x0^2, x0*x1) : x0^inf
    S2 = saturate(ideal(ring, "x0^2", "x0*x1"), ideal(ring, "x0", "x1"))
    assert ideals_equal(S2, ideal(ring, "x0"))
    I = ideal(ring, "x0^2", "x0*x1")
    assert ideals_equal(saturate(I, ideal(ring, "1")), I)
    irrelevant = ideal(ring, "x0", "x1", "x2", "x3")
    J = minors(double_point, 2)
    assert ideals_equal(saturate(J, irrelevant), J)


def test_saturate_fixed_point(ring):
    I = ideal(ring, "x0^2", "x0*x1", "x1^2*x2")
    J = ideal(ring, "x0", "x1")
    S = saturate(I, J)
    assert ideals_equal(saturate(S, J), S)


def test_minimal_generator_count_examples(ring, double_point, cubic_curve):
    assert minimal_generator_count(ideal(ring, "x0", "x1")) == {1: 2}
    assert minimal_generator_count(minors(double_point, 2)) == {2: 6}
    assert minimal_generator_count(minors(cubic_curve, 2)) == {2: 3}


def test_minimal_generator_count_requires_homogeneous(ring):
    with pytest.raises(GroebnerError):
        minimal_generator_count(ideal(ring, "x0 + x1^2"))


def test_normal_form_idempotent(ring):
    rng = random.Random(31)
    gb = buchberger(ideal(ring, "x1*x3 - x0*x2", "x0^2 - x1*x2"))
    for _ in range(15):
        p = random_homogeneous(ring, rng.randint(1, 4), rng)
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r


def test_membership_soundness(ring, double_point, cubic_curve):
    for pres in (double_point, cubic_curve):
        I = minors(pres, 2)
        gb = ensure_gb(I)
        for g in I.generators:
            assert normal_form(g, gb).is_zero()


def test_dimension_consistency(ring, double_point, cubic_curve, coordinate_axes):
    nvars = ring.nvars
    corpus = [
        ideal(ring, "x0"),
        ideal(ring, "x0", "x1"),
        minors(double_point, 2),
        minors(cubic_curve, 2),
        minors(coordinate_axes, 2),
        ideal(ring, "x0*x1", "x2*x3"),
    ]
    for I in corpus:
        rep = dimension_report(I)
        assert rep.height + rep.krull_dim == nvars
        assert krull_dim(I) == rep.krull_dim


def test_invariants_order_independent(double_point, cubic_curve):
    grevlex = PolyRing(("x0", "x1", "x2", "x3"), order="grevlex")
    lex = PolyRing(("x0", "x1", "x2", "x3"), order="lex")
    for pres in (double_point, cubic_curve):
        rows = [[str(p) for p in row] for row in pres.matrix.entries]
        from detschemes import presentation_from_strings

        for s in (1, 2):
            a = minors(presentation_from_strings(grevlex, rows), s)
            b = minors(presentation_from_strings(lex, rows), s)
            assert height(a) == height(b)
            assert minimal_generator_count(a) == minimal_generator_count(b)


def test_quotient_hilbert_function_known(ring_p2, ring):
    I = ideal(ring_p2, "x0", "x1")
    assert quotient_hilbert_function(I, 5) == 1
    # square of a point ideal: 1, 4, 4, 4, ... (four standard monomials
    # per degree >= 2: x0^d and x0^(d-1)*xi)
    J = ideal(
        ring, "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"
    )
    assert [quotient_hilbert_function(J, d) for d in range(6)] == [1, 4, 4, 4, 4, 4]


def test_equal_ideals_hash_equal_and_share_memo_entries(ring):
    from detschemes.groebner import _GB_CACHE

    gens = ("x0^2 - 3/2*x1*x2", "x1*x3 + x2^2", "x0*x3")
    a = ideal(ring, *gens)
    b = ideal(ring, *(ring.parse(str(g)) for g in a.generators))
    assert a == b and a.generators[0] is not b.generators[0]
    assert hash(a) == hash(b)
    assert all(hash(f) == hash(g) for f, g in zip(a.generators, b.generators))
    assert "_hash" not in repr(a)
    gb = ensure_gb(a)
    assert b in _GB_CACHE and ensure_gb(b) is gb
    # the cached hash takes no part in equality, which still sees every field
    assert IdealBasis(ring, a.generators, True) != a


def test_ideal_basis_order_is_its_rings(ring):
    lex = ring.with_order("lex")
    I = ideal(lex, "x0*x1 - x2^2", "x3")
    assert I.order == "lex" and ensure_gb(I).order == "lex"
    assert ideal(ring, "x0").order == "grevlex"
    with pytest.raises(TypeError):
        IdealBasis(ring, (), False, "lex")


def test_equal_matrices_share_their_minors_entry(ring):
    from detschemes import presentation_from_strings

    rows = [["x0", "x1 + x3", "x2"], ["x1", "x2", "x3 - 2*x0"]]
    P, Q = (presentation_from_strings(ring, rows) for _ in range(2))
    assert P.matrix is not Q.matrix and hash(P.matrix) == hash(Q.matrix)
    assert minors(Q, 2) is minors(P, 2)
