import random
import time

import pytest

from detschemes import GF, NOT_HOMOGENEOUS, QQ, ZERO, PolyRing
from detschemes.field import FieldError, _is_prime
from detschemes.linalg import Laplace
from detschemes.ring import MAX_DEGREE, ParseError, RingError, lcm_key, random_homogeneous


def rational_point(values):
    return [QQ.from_int(v) for v in values]


def test_parse_two_term_quadric(ring):
    p = ring.parse("x1*x3 - x0*x2")
    assert len(p.terms) == 2
    assert p.homogeneous_degree() == 2


def test_parse_zero(ring):
    p = ring.parse("0")
    assert p.is_zero()
    assert p.terms == ()


def test_parse_matches_laplace_minor(ring):
    # the (2,3)-column minor of the double-point matrix, expanded exactly
    grid = [
        [ring.parse("x2"), ring.parse("x3")],
        [ring.parse("x1"), ring.parse("x2")],
    ]
    assert Laplace(grid, ring).det((0, 1), (0, 1)) == ring.parse("x2^2 - x1*x3")


def test_parse_rejects_unknown_variable(ring):
    with pytest.raises(ParseError):
        ring.parse("x9 + x0")


def test_parse_rejects_malformed(ring):
    # every term after the first needs its sign
    assert ring.parse("2 + x0") == ring.parse("x0 + 2")
    for text in ("x0 + * x1", "2 x0", "x0 x1", "2x0", "x0^2 3", "1/2 3/4", "- x0 x1"):
        with pytest.raises(ParseError):
            ring.parse(text)


def test_parse_rational_coefficients(ring):
    p = ring.parse("1/2*x0 + 3/4*x1")
    assert str(p) == "1/2*x0 + 3/4*x1"
    assert ring.parse(str(p)) == p


def test_modular_coefficient_denominator_zero():
    ring = PolyRing(("x0", "x1", "x2"), GF(5))
    with pytest.raises(ParseError):
        ring.parse("1/5*x0")


def test_prime_moduli_by_deterministic_miller_rabin():
    start = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert GF(2**31 - 1).p == 2**31 - 1
    assert time.perf_counter() - start < 0.5
    # a Carmichael number, and strong pseudoprimes to base 2, to 2..7 and to
    # 2..37 (psi_12, which only the base 41 rejects)
    for n in (561, 2047, 3215031751, 318665857834031151167461, 1, 0, 4, 2**61 + 1):
        with pytest.raises(FieldError, match="not prime"):
            GF(n)
    assert [n for n in range(2000) if _is_prime(n)] == [
        n for n in range(2000) if n > 1 and all(n % d for d in range(2, n))
    ]
    with pytest.raises(FieldError, match="too large"):
        GF(2**89 - 1)  # prime, but past the proven range of the bases


def test_add_inverse(ring):
    x0 = ring.variable(0)
    assert (x0 + (-x0)).is_zero()


def test_difference_of_squares(ring):
    x0, x1 = ring.variable(0), ring.variable(1)
    assert (x0 + x1) * (x0 - x1) == ring.parse("x0^2 - x1^2")


def test_scale_over_prime_field():
    ring = PolyRing(("x0", "x1", "x2"), GF(5))
    p = ring.parse("4*x0")
    assert p.scale(ring.field.from_int(3)) == ring.parse("2*x0")  # 12 mod 5


def test_homogeneous_degree_cases(ring):
    assert ring.parse("x1*x3 - x0*x2").homogeneous_degree() == 2
    assert ring.parse("x0 + x1^2").homogeneous_degree() is NOT_HOMOGENEOUS
    assert ring.parse("0").homogeneous_degree() is ZERO


def test_evaluate_examples(ring):
    assert ring.parse("x1*x3 - x0*x2").evaluate(rational_point((1, 1, 1, 1))) == 0
    assert ring.parse("x0^2").evaluate(rational_point((3, 0, 0, 0))) == 9
    # by hand: 1*1 - 2*3 = -5
    assert ring.parse("x2^2 - x1*x3").evaluate(rational_point((0, 2, 1, 3))) == -5


def test_evaluate_length_mismatch(ring):
    with pytest.raises(RingError):
        ring.parse("x0").evaluate(rational_point((1, 2)))


def test_ring_rejects_duplicate_variables():
    with pytest.raises(RingError):
        PolyRing(("x0", "x0", "x1"))


def test_ring_rejects_too_few_variables():
    with pytest.raises(RingError):
        PolyRing(("x0", "x1"))


def _random_poly(ring, rng, max_degree=3):
    acc = {}  # a monomial drawn twice adds up
    for _ in range(rng.randint(0, 6)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        k = ring.monomial(exps)
        acc[k] = acc.get(k, 0) + QQ.from_int(rng.randint(-5, 5))
    return ring.from_keys(acc)


def test_ring_laws_on_random_samples(ring):
    rng = random.Random(7)
    for _ in range(40):
        p, q, r = (_random_poly(ring, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_parse_print_roundtrip_on_random_samples(ring):
    rng = random.Random(11)
    for _ in range(40):
        p = _random_poly(ring, rng)
        assert ring.parse(str(p)) == p


def test_evaluate_is_ring_homomorphism(ring):
    rng = random.Random(13)
    for _ in range(25):
        p, q = _random_poly(ring, rng), _random_poly(ring, rng)
        point = rational_point([rng.randint(-4, 4) for _ in range(4)])
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_homogeneous_scaling_law(ring):
    rng = random.Random(17)
    for _ in range(20):
        d = rng.randint(1, 4)
        p = random_homogeneous(ring, d, rng)
        v = [rng.randint(-3, 3) for _ in range(4)]
        lam = rng.randint(-3, 3)
        lhs = p.evaluate(rational_point([lam * x for x in v]))
        rhs = QQ.from_int(lam) ** d * p.evaluate(rational_point(v))
        assert lhs == rhs


def test_monomial_enumeration_counts(ring):
    for d in range(6):
        assert len(ring.monomials_of_degree(d)) == ring.dim_of_degree(d)


def test_ring_mismatch_rejected(ring, ring_p2):
    with pytest.raises(RingError):
        ring.variable(0) + ring_p2.variable(0)
    with pytest.raises(RingError):
        ring.variable(0) * ring_p2.variable(1)


def test_whitespace_insignificant(ring):
    assert ring.parse("x0+x1") == ring.parse("  x0  +  x1 ")
    assert ring.parse("2*x0^2-x1*x2") == ring.parse("2 * x0 ^ 2 - x1 * x2")


def test_polynomial_arithmetic_methods(ring):
    p = ring.parse("x0 + x1")
    q = ring.parse("x0 - x1")
    assert p + q == ring.parse("2*x0")
    assert p * q == ring.parse("x0^2 - x1^2")
    assert p.scale(QQ.from_int(3)) == ring.parse("3*x0 + 3*x1")
    assert p.homogeneous_degree() == 1
    assert p.evaluate(rational_point((2, 3, 0, 0))) == 5


# -- packed monomials against the exponent-tuple reference ---------------------------
#
# The reference functions are the exponent-tuple operations that packed keys
# replace: the grevlex key as a tuple, and componentwise mul/div/divides/lcm.
# On keys a product is a sum, a quotient a difference, the lcm `lcm_key`, and
# a divides b exactly when their lcm is b.


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _tuple_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _tuple_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _tuple_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _composition(rng, n, degree):
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(y - x for x, y in zip([0] + cuts, cuts + [degree]))


def _exponent_pair(rng, n):
    """Seeded (a, b): small or up to the degree limit, b often a multiple of a."""
    top = rng.choice((4, 40, MAX_DEGREE))
    a = _composition(rng, n, rng.randint(0, top))
    if rng.random() < 0.4:
        b = _tuple_mul(a, _composition(rng, n, rng.randint(0, top - sum(a))))
    else:
        b = _composition(rng, n, rng.randint(0, top))
    return a, b


def _sign(x, y):
    return (x > y) - (x < y)


def _kernel_spair(f, g):
    """The Groebner kernel's S-polynomial of f and g, a {key: int} dict."""
    from detschemes.groebner import _basis_poly, _entry, _spair

    n = f.ring.nvars
    return _spair(_entry(_basis_poly(f), n), _entry(_basis_poly(g), n), f.ring)[0]


def test_packed_monomials_match_tuple_reference():
    rng = random.Random(20261017)
    for n in range(3, 8):  # up to 6 ring variables plus the auxiliary one
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        for _ in range(400):
            a, b = _exponent_pair(rng, n)
            ka, kb = ring.monomial(a), ring.monomial(b)
            xa, xb = ring.from_keys({ka: QQ.one}), ring.from_keys({kb: QQ.one})
            assert ring.exponents(ka) == a and xa.homogeneous_degree() == sum(a)
            assert _sign(ka, kb) == _sign(_grevlex_key(a), _grevlex_key(b))
            assert (ka == kb) == (a == b)
            lcm = lcm_key(ka, kb, n)
            assert lcm == lcm_key(kb, ka, n)
            assert ring.exponents(lcm) == _tuple_lcm(a, b)  # fits past MAX_DEGREE too
            assert (lcm == kb) == _tuple_divides(a, b)
            assert (lcm == ka) == _tuple_divides(b, a)
            if _tuple_divides(a, b):
                assert ring.exponents(kb - ka) == _tuple_div(b, a)
            want = _tuple_mul(a, b)
            if sum(want) <= MAX_DEGREE:
                assert ring.exponents(ka + kb) == want
                assert (xa * xb).terms == ((ka + kb, QQ.one),)
            else:
                with pytest.raises(RingError):
                    xa * xb
            # an S-polynomial checks the lcm's degree before forming a product
            if sum(_tuple_lcm(a, b)) <= MAX_DEGREE:
                assert _kernel_spair(xa, xb) == {}
            else:
                with pytest.raises(RingError):
                    _kernel_spair(xa, xb)


def test_order_keys_match_tuple_reference():
    rng = random.Random(5)
    for n in range(3, 8):
        names = tuple(f"x{i}" for i in range(n))
        for order, ref in (("grevlex", _grevlex_key), ("lex", tuple)):
            ring = PolyRing(names, QQ, order, _allow_small=True)
            for _ in range(200):
                a, b = _exponent_pair(rng, n)
                ka, kb = ring.monomial_key(ring.monomial(a)), ring.monomial_key(ring.monomial(b))
                assert type(ka) is int and type(kb) is int
                assert _sign(ka, kb) == _sign(ref(a), ref(b))


def test_monomials_of_degree_match_tuple_reference():
    for n in range(3, 6):
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        for d in range(5):
            got = [ring.exponents(k) for k in ring.monomials_of_degree(d)]
            assert len(got) == len(set(got)) == ring.dim_of_degree(d)
            assert all(sum(e) == d for e in got)
            assert got == sorted(got, key=_grevlex_key, reverse=True)


def test_degree_past_the_packed_field_is_rejected(ring):
    with pytest.raises(RingError):
        ring.monomial((MAX_DEGREE + 1, 0, 0, 0))
    with pytest.raises(RingError):
        ring.monomial((MAX_DEGREE, 1, 0, 0))
    assert ring.exponents(ring.monomial((MAX_DEGREE, 0, 0, 0))) == (MAX_DEGREE, 0, 0, 0)
    with pytest.raises(RingError):
        ring.monomial((1, -1, 0, 0))
    with pytest.raises(RingError):
        ring.monomial((1, 0, 0))  # one exponent per variable
    with pytest.raises(RingError):
        ring.parse("x0^40000")
    with pytest.raises(RingError):
        ring.parse(f"x0^{MAX_DEGREE} * x1")
    big = ring.parse("x0^20000")
    assert big ** 1 == big  # powers square only as far as needed
    with pytest.raises(RingError):
        big * big
    with pytest.raises(RingError):
        big ** 2
    with pytest.raises(RingError):
        ring.monomials_of_degree(MAX_DEGREE + 1)
    top = ring.parse(f"x0^{MAX_DEGREE - 1}") * ring.parse("x3")
    assert top.homogeneous_degree() == MAX_DEGREE
    assert ring.parse(f"x0^{MAX_DEGREE - 1}*x1 + x2^{MAX_DEGREE}") == ring.parse(
        f"x0^{MAX_DEGREE - 1}*x1"
    ) + ring.parse(f"x2^{MAX_DEGREE}")
    with pytest.raises(RingError):
        ring.parse(f"x0^{MAX_DEGREE - 1}*x1*x2")


def test_degree_growth_in_terms_and_reductions_is_rejected(ring):
    from detschemes.groebner import _basis_poly, _entry, _reduce_poly

    m, m2 = ring.monomial((20000, 0, 0, 0)), ring.monomial((0, 20000, 0, 0))
    xm, xm2 = ring.from_keys({m: QQ.one}), ring.from_keys({m2: QQ.one})
    with pytest.raises(RingError):
        xm * xm2
    with pytest.raises(RingError):
        _kernel_spair(xm, xm2)  # their lcm is past the limit
    big = ring.parse("x0^20000")
    with pytest.raises(RingError):
        big.mul_term(m2, QQ.one)
    with pytest.raises(RingError):
        _kernel_spair(ring.parse("x0^20000 * x1"), ring.parse("x1^20000 * x2"))
    # in grevlex a reducer's leading term carries its largest degree, so a
    # reduction step stays within the degree of the term it cancels
    g = _entry(_basis_poly(ring.parse("x1^30000 + x0")), ring.nvars)
    assert _reduce_poly(ring.parse("x1^30000*x2^2000"), [g]) == ring.parse("-x0*x2^2000")


def test_parse_many_terms_matches_the_term_by_term_sum(ring):
    from fractions import Fraction

    rng = random.Random(11)
    monos = ring.monomials_of_degree(9)  # 220 monomials in 4 variables
    chunks, want = [], ring.zero()
    for k in range(200):
        mono = monos[rng.randrange(len(monos))]  # repeats add up
        c = Fraction(rng.randint(1, 30), rng.randint(1, 4))
        neg = rng.random() < 0.5
        body = "*".join(
            f"x{i}^{e}" for i, e in enumerate(ring.exponents(mono)) if e
        )
        chunks.append(("- " if neg else ("+ " if k else "")) + f"{c}*{body}")
        term = ring.from_keys({mono: -c if neg else c})
        want = want + term
    p = ring.parse(" ".join(chunks))
    assert p == want and len(p.terms) > 100
    assert p.homogeneous_degree() == 9
    assert ring.parse("x0*x1 - x1*x0 + 2*x0*3*x1 - 6*x1*x0").is_zero()
    gf = PolyRing(ring.variables, GF(7))
    assert gf.parse("3*x0 + 4*x0 + 5*x1*2") == gf.parse("3*x1")


def test_every_monomial_is_a_plain_int_key(ring):
    """Parsing, products, `from_keys`, Laplace minors, Groebner bases,
    monomial enumeration and degree bases all hold packed int keys."""
    from detschemes import buchberger, degree_basis, minors, presentation_from_strings
    from detschemes.grading import GradedFreeModule

    def all_int(polys):
        return all(type(k) is int for p in polys for k, _ in p.terms)

    p, q = ring.parse("x0^2 - 3*x1*x2 + x3^2"), ring.parse("x1 + 2*x3")
    assert all_int([p, q, p * q, p + q, p.mul_term(ring.monomial((0, 1, 0, 2)), QQ.one)])
    assert all_int([ring.from_keys({ring.monomial((1, 1, 0, 0)): QQ.one})])
    assert type(p.leading_monomial()) is int
    P = presentation_from_strings(ring, [["x0", "x1", "x2"], ["x1", "x2", "x3"]])
    I = minors(P, 2)
    assert all_int(I.generators) and all_int(buchberger(I).generators)
    assert all(type(k) is int for k in ring.monomials_of_degree(3))
    basis = degree_basis(GradedFreeModule(ring, (0, 1)), 2)
    assert all(type(j) is int and type(k) is int for j, k in basis.items)
    rng = random.Random(3)
    for _ in range(50):
        e = tuple(rng.randint(0, 30) for _ in range(ring.nvars))
        assert ring.exponents(ring.monomial(e)) == e
