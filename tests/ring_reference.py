"""Reference oracle for the polynomial parser.

`parse` is the tokenizer and recursive-descent parser that the package's
two-pattern `PolyRing.parse` replaced, kept verbatim from before that
change: the text is cut into a token list first, and `_PolyParser` walks
it, evaluating each factor as it reads it.  The differential tests assert
that both accept the same texts and give the same polynomials.

The one intended difference lies in the errors: the package matches the
whole text before it evaluates a term, so a grammar error after an
overflowing exponent (`x0^40000 +`) raises ParseError there, where this
oracle raises RingError at the exponent.
"""

from __future__ import annotations

import re

from detschemes.field import FieldError
from detschemes.ring import MAX_DEGREE, ParseError, RingError, _check_degree

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|\+|-|/)")


def parse(ring, text):
    """Parse `expr := term (('+'|'-') term)*` with `a/b` coefficients.

    Terms are products of an optional coefficient and variable powers;
    a leading sign on the first term is accepted so printed output
    parses back.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"malformed token at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial text")
    return _PolyParser(ring, tokens).parse()


class _PolyParser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        """Every term is one coefficient times one monomial, so the terms
        add up in one {packed key: coefficient} dict."""
        acc = {}
        self.parse_term(acc, allow_sign=True)
        while self.peek() in ("+", "-"):
            self.parse_term(acc, negate=self.next() == "-")
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}")
        return self.ring.from_keys(acc)

    def parse_term(self, acc, allow_sign=False, negate=False):
        field, n = self.ring.field, self.ring.nvars
        if allow_sign and self.peek() in ("+", "-"):
            negate = self.next() == "-"
        key, coeff = self.parse_factor()
        while self.peek() == "*":
            self.next()
            k, c = self.parse_factor()
            if k:  # a variable power, whose coefficient is one
                key = _check_degree(key + k, n)
            else:
                coeff = field.mul(coeff, c)
        if negate:
            coeff = field.neg(coeff)
        acc[key] = acc[key] + coeff if key in acc else coeff

    def parse_factor(self):
        """(packed key, coefficient) of one constant or variable power."""
        tok = self.next()
        field = self.ring.field
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok.isdigit() or (tok.startswith("-") and tok[1:].isdigit()):
            num = int(tok)
            if self.peek() == "/":
                self.next()
                den_tok = self.next()
                if den_tok is None or not den_tok.isdigit():
                    raise ParseError("malformed rational coefficient")
                try:
                    return 0, field.from_fraction(num, int(den_tok))
                except FieldError as e:
                    raise ParseError(str(e))
            return 0, field.from_int(num)
        if tok in self.ring._var_index:
            i = self.ring._var_index[tok]
            exp = 1
            if self.peek() == "^":
                self.next()
                e_tok = self.next()
                if e_tok is None or not e_tok.isdigit():
                    raise ParseError("malformed exponent")
                exp = int(e_tok)
                if exp > MAX_DEGREE:
                    raise RingError(f"total degree {exp} above the limit {MAX_DEGREE}")
            return exp * self.ring._var_keys[i], field.one
        if tok.isidentifier():
            raise ParseError(f"unknown variable {tok!r}")
        raise ParseError(f"malformed token {tok!r}")
