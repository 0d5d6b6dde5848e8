"""The polynomial parser against its reference oracle.

`tests/ring_reference.py` keeps the tokenizer and recursive-descent parser
that `PolyRing.parse` replaced.  Over QQ, F_32003 and F_5, seeded random
token strings, well-formed sums and single-fault strings must give the same
polynomial, or an error of the same class.  The one allowed difference: a
text outside the grammar whose evaluation would overflow the degree first
(`x0^40000 +`) raises ParseError in the package and RingError in the oracle.
"""

import random
import re
import time

import pytest

from detschemes import GF, QQ, PolyRing
from detschemes.ring import ParseError, RingError

import ring_reference

FIELDS = [QQ, GF(32003), GF(5)]

#: x0..x3, then names that only a non-ASCII identifier class would read
VARIABLES = ("x0", "x1", "x2", "x3", "é", "x٣")

ALPHABET = (
    "x0", "x1", "x3", "x", "y", "_a", "é", "٣", "0", "2", "7", "40000", "99999",
    "/", "^", "*", "+", "-", " ", "\t", "$",
)


def outcome(parse, ring, text):
    """("ok", polynomial) or ("error", exception class)."""
    try:
        return "ok", parse(ring, text)
    except (ParseError, RingError) as e:
        return "error", type(e)


def neutral(text):
    """The text with every identifier read as x0 and every number as 1: the
    same tokens, so the same grammar, but no unknown variable, zero
    denominator or degree overflow left."""
    return re.sub(
        r"[A-Za-z_][A-Za-z_0-9]*|\d+", lambda m: "1" if m[0][0].isdigit() else "x0", text
    )


def assert_same(ring, text):
    """Package and oracle agree on the text, up to the allowed difference."""
    got = outcome(PolyRing.parse, ring, text)
    want = outcome(ring_reference.parse, ring, text)
    if got == want:
        return got
    assert got == ("error", ParseError) and want == ("error", RingError), text
    assert outcome(ring_reference.parse, ring, neutral(text)) == ("error", ParseError), text
    return got


def random_term(rng, first):
    factors = [f"x{rng.randrange(4)}^{rng.randint(0, 4)}" for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(0, 2)):
        c = str(rng.randint(0, 60))
        den = rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 11, 12])  # a unit in every field
        factors.append(f"{c}/{den}" if rng.random() < 0.4 else c)
    rng.shuffle(factors)
    sep = rng.choice(["*", " * ", "\t*  "])
    body = sep.join(factors) or rng.choice(["x1", "3"])
    sign = rng.choice(["+", "-", ""] if first else ["+", "-"])
    return sign + rng.choice(["", " "]) + body


def well_formed(rng):
    terms = [random_term(rng, k == 0) for k in range(rng.randint(1, 6))]
    return rng.choice(["", " "]) + rng.choice([" ", ""]).join(terms) + rng.choice(["", "  "])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_random_token_strings_match_the_oracle(field):
    ring = PolyRing(VARIABLES, field)
    rng = random.Random(2027)
    verdicts = set()
    for _ in range(4000):
        tokens = rng.choices(ALPHABET, k=rng.randint(1, 9))
        text = "".join(t + rng.choice(["", "", " "]) for t in tokens)
        verdicts.add(assert_same(ring, text)[0])
    assert verdicts == {"ok", "error"}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_well_formed_sums_match_the_oracle(field):
    ring = PolyRing(VARIABLES, field)
    rng = random.Random(2028)
    parsed = 0
    for _ in range(600):
        verdict, p = assert_same(ring, well_formed(rng))
        parsed += verdict == "ok"
    assert parsed > 400


FAULTS = [
    ("y", ParseError),
    ("2x0", ParseError),
    ("x0^^2", ParseError),
    ("3/", ParseError),
    ("1/0*x1", ParseError),
    ("1/5*x2", None),  # a zero denominator over F_5 only
    ("x0^40000", RingError),
    ("x0^20000*x1^20000", RingError),
    ("", ParseError),  # a trailing '+'
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("fault, error", FAULTS, ids=[f or "trailing +" for f, _ in FAULTS])
def test_single_fault_strings_match_the_oracle(field, fault, error):
    ring = PolyRing(VARIABLES, field)
    if error is None:
        error = ParseError if field.characteristic == 5 else None
    rng = random.Random(2029)
    for _ in range(40):
        terms = [random_term(rng, k == 0) for k in range(rng.randint(1, 4))]
        if fault:
            k = rng.randint(0, len(terms))
            terms.insert(k, ("" if k == 0 else "+ ") + fault)
            if k == 0:
                terms[1] = terms[1] if terms[1][:1] in "+-" else "+" + terms[1]
        else:
            terms.append("+")
        text = " ".join(terms)
        got = assert_same(ring, text)
        assert got[0] == "ok" if error is None else got == ("error", error), text


def test_identifiers_and_numbers_keep_their_character_classes():
    ring = PolyRing(VARIABLES)
    for text in ("é", "x٣", "x0 + é", "2*x٣"):
        with pytest.raises(ParseError):
            ring.parse(text)
    assert ring.parse("٣*x0") == ring.parse("3*x0")  # \d reads Unicode digits
    assert ring.parse("x0^٢") == ring.parse("x0^2")


def test_a_grammar_error_is_raised_before_any_term_is_evaluated(ring):
    for text in ("x0^40000 +", "x0^40000*x1 x2", "x0^20000*x1^20000 $"):
        with pytest.raises(ParseError):
            ring.parse(text)
        with pytest.raises(RingError):
            ring_reference.parse(ring, text)
    # within the grammar, the first faulty factor decides
    with pytest.raises(RingError):
        ring.parse("x0^40000*y")
    with pytest.raises(ParseError):
        ring.parse("y*x0^40000")
    with pytest.raises(ParseError):
        ring.parse("1/0*x0^40000")


def test_numbers_too_long_to_read_are_input_errors(ring):
    # 5000 digits is past the interpreter's limit on integer string conversion
    long = "1" * 5000
    for text, error in ((f"{long}*x0", ParseError), (f"1/{long}*x0", ParseError),
                        (f"x0^{long}", RingError), (f"x0^2*x1^{'9' * 4300}", RingError)):
        with pytest.raises(error):
            ring.parse(text)
    assert ring.parse(f"{'9' * 4300}*x0").terms[0][1] == int("9" * 4300)


LONG_INPUTS = [
    " " * 20000 + "x0",
    "x0" + " " * 20000 + "+ x1",
    "x0" + " " * 20000,
    "x0" + " " * 20000 + "$",
    "x0 *" + " " * 20000 + "$",
    "x0 ^" + " " * 20000 + "2",
    "x0 ^" + " " * 20000 + "$",
    "3 /" + " " * 20000 + "$",
    "-" + " " * 20000 + "$",
    " " * 20000 + "- $",
    "\t" * 20000,
    "x0 + " + "\n" * 20000 + "x1 x2",
    "x0" + " * x1" * 5000,
    "x0" + " * x1" * 5000 + " $",
    "x0" + " * x1" * 5000 + " *",
    "x0" + "*x1" * 5000 + " + 2*" + "x2*" * 5000 + "x3",
]


@pytest.mark.parametrize("text", LONG_INPUTS, ids=range(len(LONG_INPUTS)))
def test_long_inputs_parse_in_linear_time(ring, text):
    start = time.perf_counter()
    try:
        ring.parse(text)
    except ParseError:
        pass
    assert time.perf_counter() - start < 1.0
