"""Exact coefficient fields: the rationals and prime fields F_p.

Field elements are plain Python values (Fraction for QQ, int in [0, p) for
F_p); the field object owns the arithmetic.  Keeping elements unboxed makes
the polynomial and linear-algebra layers cheap.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


#: Miller-Rabin on the first 13 primes, 2..41, as bases decides primality
#: exactly below this bound, the least strong pseudoprime to all of them
#: (psi_13, Sorenson and Webster, Math. Comp. 86, 2017; the first 12 primes
#: stop at psi_12 = 318665857834031151167461 = 399165290221 * 798330580441)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin for 0 <= p < _PRIME_BOUND."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field QQ; elements are Fraction values in lowest terms."""

    name = "QQ"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, num, den):
        if den == 0:
            raise FieldError("zero denominator")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero")
        return Fraction(a) / b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def random(self, rng, bound=10):
        return Fraction(rng.randint(-bound, bound))

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The field F_p for a prime p; elements are ints in [0, p)."""

    characteristic = None  # set per instance

    def __init__(self, p):
        if p >= _PRIME_BOUND:
            raise FieldError(f"modulus {p} is too large: moduli must be below {_PRIME_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den):
        d = den % self.p
        if d == 0:
            raise FieldError(f"denominator {den} is zero modulo {self.p}")
        return (num % self.p) * pow(d, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def random(self, rng, bound=None):
        return rng.randrange(self.p)

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def field_from_descriptor(text):
    """Parse a field descriptor: "QQ" or "Fp:<prime>"."""
    text = text.strip()
    if text == "QQ":
        return QQ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise FieldError(f"bad prime in field descriptor {text!r}")
        return PrimeField(p)
    raise FieldError(f"unknown field descriptor {text!r}")
