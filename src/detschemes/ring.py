"""Sparse homogeneous multivariate polynomials over an exact field.

The ring R = k[x_0, ..., x_n] carries the standard grading.  Polynomials are
immutable term sequences kept strictly decreasing in the ring's monomial
order, with no zero coefficients, so equal polynomials compare equal
structurally.

A monomial is one packed int, its key, and nothing else (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): field i, FIELD_BITS wide, holds the prefix
sum e_0 + ... + e_i, so the top field is the total degree.  Then int
comparison is the grevlex order, multiplying monomials adds their keys, and
the exponents come back as key - ((key << FIELD_BITS) & mask), on which
divisibility is one test of the fields' guard bits.  A polynomial's terms
are (key, coefficient) pairs; `PolyRing.monomial` and `PolyRing.exponents`
convert at the boundary.  A ring in lex order, a printing and parsing order
(every Groebner basis is a grevlex one), sorts by an int key computed from
the packed one.

A total degree above MAX_DEGREE raises RingError wherever degrees are made
or grow: `PolyRing.monomial`, parsing, `from_keys` (and so products, powers
and determinants), `mul_term`, and the lcm of each S-pair in the Groebner
kernel.  Fields are wide enough for the sum of two keys in
range, so that check is sound on such a sum; past it, fields would carry
into each other and divisibility tests would silently go wrong.
"""

from __future__ import annotations

import functools
import re
from math import comb

from .field import QQ


class RingError(ValueError):
    pass


class ParseError(RingError):
    pass


class _Sentinel:
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


#: homogeneous_degree sentinels: the zero polynomial has no degree, and a
#: mixed-degree polynomial has none either.
ZERO = _Sentinel("ZERO")
NOT_HOMOGENEOUS = _Sentinel("NOT_HOMOGENEOUS")


#: bits per packed field of a monomial key
FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
#: largest total degree: the top bit of every field stays free as a guard,
#: and the sum of two such degrees still fits its field
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1


def _integer(digits, error):
    """The int of a digit string, or `error` where the string is longer
    than the interpreter converts (`sys.get_int_max_str_digits`): for an
    exponent, RingError, as it is past MAX_DEGREE."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"a number of {len(digits)} digits is too long to read") from None


@functools.cache
def _masks(n):
    """(all n fields, guard bits of the n fields) for n variables."""
    guard = 0
    for i in range(n):
        guard |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
    return (1 << (FIELD_BITS * n)) - 1, guard


def _check_degree(key, n):
    """The key, after checking that its total degree fits the fields."""
    if n and key >> (FIELD_BITS * (n - 1)) > MAX_DEGREE:
        raise RingError(f"total degree above the limit {MAX_DEGREE}")
    return key


def _unpack(key, n):
    """Packed exponents (field i holds e_i) of a packed key."""
    return key - ((key << FIELD_BITS) & _masks(n)[0])


def _pack(exps, n):
    """Packed key (field i holds e_0 + ... + e_i) of packed exponents."""
    shift = FIELD_BITS
    while shift < FIELD_BITS * n:
        exps += exps << shift
        shift <<= 1
    return exps & _masks(n)[0]


def lcm_key(a, b, n):
    """Packed key of the lcm of the monomials with keys a and b.

    On packed exponents, (A | guard) - B borrows from no field and leaves a
    field's guard bit set exactly where a_i >= b_i; that selects the field
    of A or of B.  The lcm's total degree may reach 2 * MAX_DEGREE, which
    still fits a field, so the key orders and unpacks correctly; it is not
    checked here (the S-pair checks it before a product is formed).
    """
    _, guard = _masks(n)
    ea, eb = _unpack(a, n), _unpack(b, n)
    ge = ((ea | guard) - eb) & guard
    pick_a = ge - (ge >> (FIELD_BITS - 1))
    return _pack((ea & pick_a) | (eb & ~pick_a), n)


def _lex_key(key, n):
    # fields reversed, e_0 on top: prefix sums compare in lex as exponents do
    out = 0
    for _ in range(n):
        out = (out << FIELD_BITS) | (key & _FIELD)
        key >>= FIELD_BITS
    return out


#: int order key of a packed key; None for grevlex, where it is the key itself
_ORDER_KEYS = {
    "grevlex": None,
    "lex": _lex_key,
}


class PolyRing:
    """k[x_0,...,x_n] with a fixed monomial order, "grevlex" or "lex".

    The order sorts terms and prints them.  Groebner bases are grevlex
    only: `groebner.ensure_gb` raises on a lex ring, whose ideals reach a
    basis through `groebner.grevlex_ideal` or `groebner.hilbert_basis`."""

    def __init__(self, variables, field=QQ, order="grevlex", _allow_small=False):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise RingError("variable names must be distinct")
        if len(variables) < 3 and not _allow_small:
            raise RingError("need at least 3 variables (projective space of dim >= 2)")
        if order not in _ORDER_KEYS:
            raise RingError(f"unknown monomial order {order!r}")
        self.variables = variables
        self.field = field
        self.order = order
        self.nvars = n = len(variables)
        okey = _ORDER_KEYS[order]
        self._okey = None if okey is None else (lambda key: okey(key, n))
        self._top = FIELD_BITS * (n - 1)  # shift of the total-degree field
        self._modulus = field.characteristic
        self._var_index = {v: i for i, v in enumerate(variables)}
        # the parser's key of x_i; x_i^e has e times that key
        self._var_keys = tuple(
            self.monomial([int(j == i) for j in range(n)]) for i in range(n)
        )

    def __repr__(self):
        return f"PolyRing({','.join(self.variables)}; {self.field.name}; {self.order})"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.variables, self.field, self.order))

    def monomial_key(self, key):
        """Int sort key of a packed key in the ring order."""
        return key if self._okey is None else self._okey(key)

    def monomial(self, exponents):
        """Packed key of an exponent vector."""
        if len(exponents) != self.nvars:
            raise RingError("exponent vector length must match variable count")
        key = shift = total = 0
        for e in exponents:
            if e < 0:
                raise RingError("negative exponent")
            total += e
            key |= total << shift
            shift += FIELD_BITS
        if total > MAX_DEGREE:
            raise RingError(f"total degree {total} above the limit {MAX_DEGREE}")
        return key

    def exponents(self, key):
        """Exponent vector of a packed key."""
        out, prev = [], 0
        for _ in range(self.nvars):
            s = key & _FIELD
            out.append(s - prev)
            prev = s
            key >>= FIELD_BITS
        return tuple(out)

    def with_order(self, order):
        return PolyRing(self.variables, self.field, order, _allow_small=True)

    # -- construction ----------------------------------------------------

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.constant(self.field.one)

    def constant(self, c):
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, ((0, c),))

    def variable(self, i):
        return Polynomial(self, ((self._var_keys[i], self.field.one),))

    def gens(self):
        return tuple(self.variable(i) for i in range(self.nvars))

    def from_keys(self, acc):
        """Polynomial of a {packed key: coefficient} dict.

        Coefficients may be unreduced ints over F_p; zero ones are dropped.
        Every key must be a monomial key or the sum of two: then a total
        degree past MAX_DEGREE still shows in the top field, and raises.
        """
        p = self._modulus
        if p:
            acc = {k: c % p for k, c in acc.items()}
        keys = [k for k, c in acc.items() if c]
        if keys:
            _check_degree(max(keys), self.nvars)
        keys.sort(key=self._okey, reverse=True)
        return Polynomial(self, tuple((k, acc[k]) for k in keys))

    def monomials_of_degree(self, d):
        """Keys of all monomials of total degree d, decreasing in the ring order."""
        if d < 0:
            return []
        if d > MAX_DEGREE:
            raise RingError(f"total degree {d} above the limit {MAX_DEGREE}")
        n = self.nvars
        keys = []

        def rec(key, total, pos):
            # total = e_0 + ... + e_{pos-1}; field pos gets total + e_pos
            if pos == n - 1:
                keys.append(key | d << (FIELD_BITS * pos))
                return
            for s in range(d, total - 1, -1):
                rec(key | s << (FIELD_BITS * pos), s, pos + 1)

        rec(0, 0, 0)
        keys.sort(key=self._okey, reverse=True)
        return keys

    def dim_of_degree(self, d):
        """dim_k R_d = C(d + n, n)."""
        if d < 0:
            return 0
        return comb(d + self.nvars - 1, self.nvars - 1)

    # -- parsing ---------------------------------------------------------

    #: one factor: a variable power x^e, or a coefficient a or a/b, as the
    #: groups (variable, exponent, numerator, denominator)
    _FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+))?|(\d+)(?:\s*/\s*(\d+))?")
    #: one term: its sign (optional on the first term only), then its factors
    #: joined by '*'
    _TERM = re.compile(
        rf"\s*(?:([+-])\s*)?((?:{_FACTOR.pattern})(?:\s*\*\s*(?:{_FACTOR.pattern}))*)"
    )

    def parse(self, text):
        """Parse `expr := term (('+'|'-') term)*` with `a/b` coefficients.

        Terms are products of coefficients and variable powers; a leading
        sign on the first term is accepted so printed output parses back.
        The whole text is matched before any term is evaluated; then the
        first unknown variable, zero denominator or number too long to
        convert raises ParseError, and the first factor that takes the
        degree past MAX_DEGREE raises RingError.
        """
        terms, pos, end = [], 0, len(text.rstrip())
        while pos < end:
            m = self._TERM.match(text, pos, end)
            if m is None or (pos and not m.group(1)):
                raise ParseError(f"malformed polynomial at {text[pos:]!r}")
            terms.append(m.group(1, 2))
            pos = m.end()
        if not terms:
            raise ParseError("empty polynomial text")
        field, var_index, var_keys = self.field, self._var_index, self._var_keys
        acc = {}
        for sign, body in terms:
            key = degree = 0
            num = den = 1
            for var, exp, a, b in self._FACTOR.findall(body):
                if var:
                    i = var_index.get(var)
                    if i is None:
                        raise ParseError(f"unknown variable {var!r}")
                    e = _integer(exp, RingError) if exp else 1
                    if e > MAX_DEGREE:
                        raise RingError(f"exponent above the limit {MAX_DEGREE}")
                    degree += e
                    if degree > MAX_DEGREE:
                        raise RingError(f"total degree {degree} above the limit {MAX_DEGREE}")
                    key += e * var_keys[i]
                else:
                    num *= _integer(a, ParseError)
                    if b:
                        b = _integer(b, ParseError)
                        if field.is_zero(field.from_int(b)):
                            raise ParseError(f"zero denominator {b}")
                        den *= b
            if sign == "-":
                num = -num
            c = field.from_int(num) if den == 1 else field.from_fraction(num, den)
            acc[key] = acc[key] + c if key in acc else c
        return self.from_keys(acc)

    # -- printing ---------------------------------------------------------

    def format_monomial(self, key):
        parts = [
            self.variables[i] if e == 1 else f"{self.variables[i]}^{e}"
            for i, e in enumerate(self.exponents(key))
            if e > 0
        ]
        return "*".join(parts)

    def format_poly(self, p):
        if not p.terms:
            return "0"
        field = self.field
        chunks = []
        for idx, (m, c) in enumerate(p.terms):
            neg = self._coeff_is_negative(c)
            mag = field.neg(c) if neg else c
            body = self._format_term(m, mag)
            if idx == 0:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append((" - " if neg else " + ") + body)
        return "".join(chunks)

    def _coeff_is_negative(self, c):
        if self.field.characteristic == 0:
            return c < 0
        return False

    def _format_term(self, m, coeff):
        if not m:
            return self.field.to_str(coeff)
        if self.field.eq(coeff, self.field.one):
            return self.format_monomial(m)
        return f"{self.field.to_str(coeff)}*{self.format_monomial(m)}"


class Polynomial:
    """Immutable sparse polynomial; terms sorted decreasing in ring order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None  # computed on first use: polynomials key memo tables

    # -- basics -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def leading_term(self):
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if self.ring.field.eq(lc, self.ring.field.one):
            return self
        inv = self.ring.field.inv(lc)
        return Polynomial(
            self.ring,
            tuple((m, self.ring.field.mul(c, inv)) for m, c in self.terms),
        )

    def homogeneous_degree(self):
        """Total degree if homogeneous, else NOT_HOMOGENEOUS; ZERO for 0."""
        if not self.terms:
            return ZERO
        top = self.ring._top
        d = self.terms[0][0] >> top
        for k, _ in self.terms:
            if k >> top != d:
                return NOT_HOMOGENEOUS
        return d

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingError("ring mismatch")

    def __add__(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        get = acc.get
        for k, c in other.terms:
            acc[k] = get(k, 0) + c
        return self.ring.from_keys(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((m, neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        self._check_ring(other)
        ring = self.ring
        if not self.terms or not other.terms:
            return ring.zero()
        right = other.terms
        acc = {}
        get = acc.get
        for k1, c1 in self.terms:
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return ring.from_keys(acc)

    def scale(self, c):
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return Polynomial(
            self.ring, tuple((m, field.mul(cc, c)) for m, cc in self.terms)
        )

    def mul_term(self, m, c):
        """Multiply by the single term c*m, m a packed key (order is preserved)."""
        ring = self.ring
        field = ring.field
        if field.is_zero(c):
            return ring.zero()
        mul = field.mul
        if self.terms:
            # the largest key carries the largest total degree
            _check_degree(max(k for k, _ in self.terms) + m, ring.nvars)
        return Polynomial(ring, tuple((k + m, mul(cc, c)) for k, cc in self.terms))

    def __pow__(self, k):
        if k < 0:
            raise RingError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # square only when needed, so no degree past the result's
                base = base * base
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __repr__(self):
        return self.ring.format_poly(self)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point):
        """Exact substitution at a vector of field elements."""
        if len(point) != self.ring.nvars:
            raise RingError("point length must match variable count")
        field = self.ring.field
        total = field.zero
        for k, c in self.terms:
            val = c
            for e, x in zip(self.ring.exponents(k), point):
                for _ in range(e):
                    val = field.mul(val, x)
            total = field.add(total, val)
        return total


def random_homogeneous(ring, degree, rng, bound=10, allow_zero=False):
    """Random homogeneous form of the given degree with seeded coefficients."""
    while True:
        p = ring.from_keys(
            {k: ring.field.random(rng, bound) for k in ring.monomials_of_degree(degree)}
        )
        if allow_zero or not p.is_zero() or degree < 0:
            return p
