"""Reduced Groebner bases and the ideal-theoretic toolkit.

Buchberger's algorithm with the two classical pair-elimination criteria
(coprime leading terms, chain) and the normal selection strategy; on top of
it: membership, Krull dimension and height via independent variable sets,
ideal quotient and saturation through a single auxiliary elimination
variable, and minimal generator counts by degreewise linear algebra.

Buchberger runs on one integer kernel over packed monomial keys, the
monomials that polynomials hold: a polynomial enters the kernel with its
own keys, scaled to integer coefficients over QQ.  A basis element is a
list of (key, int) terms: monic residues over F_p, and over QQ a primitive
integer polynomial with a positive leading coefficient.  Its
reducer entry is built once, when it joins the basis.  S-polynomials and
reductions work on {key: int} dicts: over F_p with one `% p` per term, over
QQ fraction-free (cancelling lc against gc multiplies the working dict by
gc/gcd(lc, gc), and each remainder is made primitive).  Only the finished,
minimalized and interreduced basis is made monic as Polynomials; no
`Fraction` arithmetic runs before that.  `reduce_full`, `spoly` and
`normal_form` are thin wrappers over the same kernel.

Buchberger starts from the generators' canonical span: in each degree the
reduced row echelon form of the homogeneous generators' span, read off the
exact echelon of their kind (`reduced_rows`), each row normalized as a basis
element is.
That form depends only on the span, and its bytes key the one Groebner
table (`ensure_gb`), so an ideal reached through other generators with the
same span in each degree (other signs, order, scale or redundant
combinations) reuses its basis.  The key is exact: it decodes back to the
span, which is what Buchberger runs on after a miss.

Column modules of homogeneous matrices run on the same Buchberger: the
column span of one row is its ideal of entries, whose basis comes from the
Groebner table; for more rows Nagata's idealization turns the span in R^g
into an ideal of R[e_1..e_g], and the standard monomials of its reduced
basis in e-degree 1 count the cokernel degree by degree.  The grading layer
uses those counts as the rank engine for one-row matrices and large degree
pieces, and the test suite pins them against the echelon.
Normal forms of p e_j against that basis certify the annihilator.  R/I is
counted by the same counter, on one grevlex basis in every ring order.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import echelon
from .memo import GB_BUDGET, Memo, terms
from .ring import (
    FIELD_BITS,
    Polynomial,
    PolyRing,
    _FIELD,
    _check_degree,
    _masks,
    _unpack,
    lcm_key,
)


class GroebnerError(ValueError):
    pass


@dataclass(frozen=True)
class IdealBasis:
    """Generator set for a homogeneous ideal, optionally a certified reduced GB."""

    ring: PolyRing
    generators: tuple
    is_reduced_gb: bool = False
    # computed on first use: ideals key the minors table, and their spans
    # (`_span_key`) the Groebner table
    _hash: int = dataclasses.field(default=None, init=False, repr=False, compare=False)
    _span: bytes = dataclasses.field(default=None, init=False, repr=False, compare=False)
    # the ideal in the grevlex copy of a non-grevlex ring (`grevlex_ideal`)
    _grevlex: object = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.ring, self.generators, self.is_reduced_gb))
            )
        return self._hash

    def _span_key(self):
        """(ring, bytes of `_canonical_span`): equal for generator lists that
        span the same space in each degree, and exact, since the bytes decode
        back to the span (`_decode_span`)."""
        if self._span is None:
            span = _canonical_span(self.generators, self.ring)
            object.__setattr__(self, "_span", _encode_span(span, self.ring))
        return self.ring, self._span

    @property
    def order(self):
        return self.ring.order

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def ideal(ring, *gens):
    """Convenience constructor accepting polynomials or strings."""
    polys = tuple(ring.parse(g) if isinstance(g, str) else g for g in gens)
    return IdealBasis(ring, polys)


# -- the integer kernel ------------------------------------------------------------
#
# A kernel polynomial is a list of (packed key, int) terms, decreasing in the
# ring order.  Normalized means monic residues over F_p and, over QQ,
# content-free with a positive leading coefficient.


def _scaled(p):
    """(int terms, scale) of a nonzero polynomial: over QQ the terms of
    scale * p, scale the lcm of its denominators; over F_p its residues and 1."""
    if p.ring._modulus:
        return list(p.terms), 1
    den = math.lcm(*[c.denominator for _, c in p.terms])
    return [(k, c.numerator * (den // c.denominator)) for k, c in p.terms], den


def _normalized(poly, mod):
    """The normalized scalar multiple of a nonzero kernel polynomial."""
    lc = poly[0][1]
    if mod:
        if lc == 1:
            return poly
        inv = pow(lc, mod - 2, mod)
        return [(k, c * inv % mod) for k, c in poly]
    g = math.gcd(*[c for _, c in poly])
    if lc < 0:
        g = -g
    return poly if g == 1 else [(k, c // g) for k, c in poly]


def _basis_poly(p):
    """The normalized kernel polynomial of a nonzero polynomial."""
    return _normalized(_scaled(p)[0], p.ring._modulus)


def _entry(poly, n):
    """Reducer entry of a normalized kernel polynomial."""
    k = poly[0][0]
    # the largest key carries the largest total degree
    return _unpack(k, n), k, poly[0][1], poly, max(k for k, _ in poly)


def _polynomial(ring, poly, scale):
    """The Polynomial poly / scale; over F_p scale is always 1."""
    if ring._modulus:
        return Polynomial(ring, tuple(poly))
    return Polynomial(ring, tuple((k, Fraction(c, scale)) for k, c in poly))


def _spair(f, g, ring):
    """{key: int} S-polynomial of two reducer entries, and its scale: it is
    scale times the S-polynomial of the monic f and g."""
    n, mod = ring.nvars, ring._modulus
    _, kf, cf, tf, mf = f
    _, kg, cg, tg, mg = g
    lcm = _check_degree(lcm_key(kf, kg, n), n)
    qf, qg = lcm - kf, lcm - kg
    _check_degree(qf + mf, n)
    _check_degree(qg + mg, n)
    if mod:  # monic entries
        a = b = scale = 1
    else:
        h = math.gcd(cf, cg)
        a, b = cg // h, cf // h
        scale = cf * a
    cur = {qf + k: a * c for k, c in tf}
    get = cur.get
    for k, c in tg:
        k2 = qg + k
        nc = get(k2, 0) - b * c
        if mod:
            nc %= mod
        if nc:
            cur[k2] = nc
        else:
            cur.pop(k2, None)
    return cur, scale


def _reduce(cur, table, ring):
    """Full reduction of the {key: int} dict `cur` against reducer entries.

    Each step cancels the largest term against the first entry whose leading
    monomial divides it.  Over F_p that is one `% p` per term.  Over QQ it
    is fraction-free: cancelling lc against the entry's gc multiplies the
    working dict and the remainder by gc/gcd(lc, gc).  Returns the remainder
    terms, in decreasing order, and their scale over the exact remainder
    (the product of those multipliers; 1 over F_p).
    """
    n = ring.nvars
    okey = ring._okey
    mod = ring._modulus
    guard = _masks(n)[1]
    get = cur.get
    remainder = []
    scale = 1
    while cur:
        k = max(cur, key=okey)
        lc = cur[k]
        le = _unpack(k, n)
        for ge, gk, gc, gterms, gmax in table:
            if not (le - ge) & guard:
                break
        else:
            remainder.append((k, lc))
            del cur[k]
            continue
        qk = k - gk
        # outside grevlex a tail term of g can outweigh its leading one
        _check_degree(qk + gmax, n)
        if mod:  # monic entries
            for mk, c in gterms:
                k2 = qk + mk
                nc = (get(k2, 0) - lc * c) % mod
                if nc:
                    cur[k2] = nc
                else:
                    cur.pop(k2, None)
            continue
        h = math.gcd(lc, gc)
        a, b = gc // h, lc // h
        if a != 1:
            for k2 in cur:
                cur[k2] *= a
            remainder = [(k2, c * a) for k2, c in remainder]
            scale *= a
        for mk, c in gterms:
            k2 = qk + mk
            nc = get(k2, 0) - b * c
            if nc:
                cur[k2] = nc
            else:
                cur.pop(k2, None)
    return remainder, scale


def spoly(f, g):
    """S-polynomial of f / lc(f) and g / lc(g)."""
    ring, n = f.ring, f.ring.nvars
    s, scale = _spair(_entry(_basis_poly(f), n), _entry(_basis_poly(g), n), ring)
    if not ring._modulus:
        s = {k: Fraction(c, scale) for k, c in s.items()}
    return ring.from_keys(s)


def reduce_full(p, reducers):
    """Full normal form of p against a list of nonzero polynomials."""
    return _reduce_poly(p, [_entry(_basis_poly(g), p.ring.nvars) for g in reducers])


def _reduce_poly(p, table):
    """Full normal form of the Polynomial p against reducer entries."""
    terms, den = _scaled(p)
    remainder, scale = _reduce(dict(terms), table, p.ring)
    return _polynomial(p.ring, remainder, den * scale)


def _canonical_span(polys, ring):
    """The span of the generators as normalized kernel polynomials, in
    the order Buchberger adds them: in each degree the reduced row echelon
    form of the homogeneous generators' span, and each inhomogeneous
    generator once.

    The echelon form depends only on the span, so generator lists that span
    the same space in each degree give the same list, which keys the
    Groebner table.  Large minor sets are linearly very redundant; the
    distinct leading monomials also shrink Buchberger's pair queue.  Over QQ
    the elimination runs fraction-free on the integer terms.
    """
    mod, top = ring._modulus, ring._top
    by_degree = {}
    out = []  # inhomogeneous generators pass through
    for p in polys:
        if p.is_zero():
            continue
        poly = _scaled(p)[0]
        # a key's top bits hold its total degree, so int order ranks degrees
        d = min(poly)[0] >> top
        if max(poly)[0] >> top == d:
            by_degree.setdefault(d, []).append(poly)
        else:
            out.append(_normalized(poly, mod))
    for group in by_degree.values():
        if len(group) == 1:
            out.append(_normalized(group[0], mod))
            continue
        keys = {k for poly in group for k, _ in poly}
        keys = sorted(keys, key=ring._okey, reverse=True)
        index = {k: i for i, k in enumerate(keys)}
        ech = echelon(ring.field)
        for poly in group:
            ech.insert({index[k]: c for k, c in poly})
        # a row's smallest index is its leading monomial
        for row in ech.reduced_rows():
            out.append(_normalized([(keys[i], c) for i, c in row], mod))
    order = ring._okey or int  # sort key of a packed key; grevlex: the key itself
    out.sort(key=lambda poly: [(order(k), c) for k, c in poly])
    return [poly for i, poly in enumerate(out) if not i or out[i - 1] != poly]


def _encode_span(span, ring):
    """Bytes of a list of kernel polynomials: the width of a coefficient,
    then per polynomial its length and its (key, coefficient) terms."""
    kw = FIELD_BITS // 8 * ring.nvars
    cw = 1 + max((abs(c).bit_length() for poly in span for _, c in poly), default=0) // 8
    out = [cw.to_bytes(4, "little")]
    for poly in span:
        out.append(len(poly).to_bytes(4, "little"))
        for k, c in poly:
            out.append(k.to_bytes(kw, "little"))
            out.append(c.to_bytes(cw, "little", signed=True))
    return b"".join(out)


def _decode_span(data, ring):
    """The list of kernel polynomials that `_encode_span` wrote as data."""
    kw = FIELD_BITS // 8 * ring.nvars
    cw = int.from_bytes(data[:4], "little")
    span, i = [], 4
    while i < len(data):
        i, end = i + 4, i + 4 + int.from_bytes(data[i : i + 4], "little") * (kw + cw)
        span.append([
            (int.from_bytes(data[j : j + kw], "little"),
             int.from_bytes(data[j + kw : j + kw + cw], "little", signed=True))
            for j in range(i, end, kw + cw)
        ])
        i = end
    return span


def buchberger(gens, ring=None):
    """Reduced Groebner basis generating the same ideal as `gens`.

    Deterministic for a fixed monomial order: see `_buchberger`, which runs
    on the generators' `_canonical_span`.  Nothing is memoized; an
    IdealBasis keeps its span, so a later `ensure_gb` of it needs no echelon.
    """
    if isinstance(gens, IdealBasis):
        ring, key = gens._span_key()
        return _buchberger(_decode_span(key, ring), ring)
    polys = list(gens)
    if ring is None:
        if not polys:
            raise GroebnerError("cannot infer ring from an empty generator list")
        ring = polys[0].ring
    return _buchberger(_canonical_span(polys, ring), ring)


def _buchberger(span, ring, e_first=None):
    """Reduced Groebner basis of the ideal of a `_canonical_span`; every
    basis the package computes is computed here.

    Pairs are selected by smallest lcm (normal strategy), and the result is
    minimalized, interreduced and made monic.  Everything up to that last
    step runs on the integer kernel.

    `e_first` marks an idealization (`ColumnModuleGB`): the variables from
    that index on are the e_i, the span holds every e_i e_k, and every
    generator is bihomogeneous.  A pair whose lcm has e-degree 2 or more
    then has an S-polynomial all of whose terms some e_i e_k divides, so it
    reduces to zero; such a pair is never queued, which makes it treated
    for the chain criterion.
    """
    if not span:
        return IdealBasis(ring, (), True)

    okey = ring._okey
    order = okey or int  # sort key of a packed key; grevlex: the key itself
    mod = ring._modulus
    n = ring.nvars
    guard = _masks(n)[1]
    top = ring._top
    # a key's x-degree is field e_first - 1; its e-degree is the rest of the top field
    x_shift = None if e_first is None else FIELD_BITS * (e_first - 1)
    table = []  # reducer entry of each basis element
    pending = set()
    heap = []

    def add(poly):
        j = len(table)
        table.append(_entry(poly, n))
        kj = table[j][1]
        for i in range(j):
            lcm = lcm_key(table[i][1], kj, n)
            if x_shift is not None and (lcm >> top) - ((lcm >> x_shift) & _FIELD) >= 2:
                continue
            pending.add((i, j))
            heapq.heappush(heap, (order(lcm), i, j))

    for poly in span:
        add(poly)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        ki, kj = table[i][1], table[j][1]
        lcm = lcm_key(ki, kj, n)
        if lcm == ki + kj:
            continue  # coprime leading terms
        lcm_exps = _unpack(lcm, n)
        chain = False
        for k, entry in enumerate(table):
            if k == i or k == j:
                continue
            if not (lcm_exps - entry[0]) & guard:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    chain = True
                    break
        if chain:
            continue
        r, _ = _reduce(_spair(table[i], table[j], ring)[0], table, ring)
        if r:
            add(_normalized(r, mod))

    # minimalize: drop elements whose leading monomial another one divides
    minimal = []
    for entry in sorted(table, key=lambda e: order(e[1])):
        if not any(not (entry[0] - m[0]) & guard for m in minimal):
            minimal.append(entry)
    # interreduce tails
    reduced = []
    for idx, entry in enumerate(minimal):
        r, _ = _reduce(dict(entry[3]), minimal[:idx] + minimal[idx + 1 :], ring)
        reduced.append(_normalized(r, mod))
    reduced.sort(key=lambda poly: order(poly[0][0]), reverse=True)
    monic = tuple(_polynomial(ring, poly, poly[0][1]) for poly in reduced)
    return IdealBasis(ring, monic, True)


#: an entry pins the span of the generator list that stored it and its
#: basis; it weighs the terms of that list and of the basis
_GB_CACHE = Memo(GB_BUDGET)


def stored_basis(I):
    """The reduced GB of I if the Groebner table holds its span, else None."""
    return I if I.is_reduced_gb else _GB_CACHE.get(I._span_key())


def ensure_gb(I):
    """Reduced GB of I, memoized by the span of its generators in each degree:
    the basis depends only on the ideal.  Callers that must not store a
    basis read `stored_basis` and call `buchberger` themselves.
    """
    hit = stored_basis(I)
    if hit is None:
        hit = buchberger(I)
        _GB_CACHE.put(I._span_key(), hit, terms(I, hit))
    return hit


def normal_form(p, gb):
    """Remainder of p modulo a certified reduced Groebner basis."""
    if not gb.is_reduced_gb:
        raise GroebnerError("normal_form requires a certified reduced Groebner basis")
    return reduce_full(p, list(gb.generators))


def is_member(p, I):
    return normal_form(p, ensure_gb(I)).is_zero()


def ideals_equal(I, J):
    """Ideal equality via the canonical reduced Groebner bases."""
    return ensure_gb(I).generators == ensure_gb(J).generators


# -- dimension ------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionReport:
    """Cone dimension of R/I and height of I; unit ideal gets (-1, +inf)."""

    krull_dim: int
    height: float  # int in the proper case, math.inf for the unit ideal


def dimension_report(I):
    """Krull dimension and height of R/I, read off the leading monomials of
    `hilbert_basis(I)`: both depend only on the Hilbert function."""
    gb = hilbert_basis(I)
    ring = I.ring
    nvars = ring.nvars
    lms = [g.leading_monomial() for g in gb.generators]
    if 0 in lms:
        return DimensionReport(-1, math.inf)
    supports = [
        frozenset(i for i, e in enumerate(ring.exponents(lm)) if e > 0) for lm in lms
    ]
    best = 0
    for size in range(nvars, 0, -1):
        found = False
        for subset in combinations(range(nvars), size):
            s = frozenset(subset)
            if all(not supp <= s for supp in supports):
                found = True
                break
        if found:
            best = size
            break
    return DimensionReport(best, nvars - best)


def height(I):
    """n+1 - dim R/I; +inf for the unit ideal."""
    return dimension_report(I).height


def krull_dim(I):
    return dimension_report(I).krull_dim


# -- quotient / saturation through elimination -----------------------------------


def _aux_ring(ring, extra=1, order="elim_last"):
    """ring with `extra` fresh variables appended, and the first one's index."""
    stem = "_w"
    while any(v.startswith(stem) for v in ring.variables):
        stem += "_"
    names = tuple(f"{stem}{i}" for i in range(extra))
    return (
        PolyRing(ring.variables + names, ring.field, order, _allow_small=True),
        len(ring.variables),
    )


def _lift(p, aux, tail=None):
    """p in aux, times the monomial whose exponents in the appended variables
    are `tail` (by default all zero).

    On packed keys, appended field n + i holds a term's total degree plus
    tail_0 + ... + tail_i, so each key gains its degree once per appended
    field and the packed prefix sums of `tail`.  A total degree past
    MAX_DEGREE shows in the top field, where `from_keys` raises.
    """
    n, top = p.ring.nvars, p.ring._top
    ones = shifted = total = 0
    for i, e in enumerate(tail or (0,) * (aux.nvars - n)):
        total += e
        ones |= 1 << (FIELD_BITS * (n + i))
        shifted |= total << (FIELD_BITS * (n + i))
    return aux.from_keys({k + (k >> top) * ones + shifted: c for k, c in p.terms})


def _project(p, ring):
    """p in `ring`, its last variable set to 1: the key's top field goes."""
    mask = _masks(ring.nvars)[0]
    acc = {}
    for k, c in p.terms:
        k &= mask
        acc[k] = acc[k] + c if k in acc else c
    return ring.from_keys(acc)


def intersect(I, J):
    """I ∩ J by the single-auxiliary-variable elimination trick."""
    ring = I.ring
    if ring != J.ring:
        raise GroebnerError("ideals live in different rings")
    aux, _ = _aux_ring(ring)
    # w f for f in I and (1 - w) g for g in J
    gens = [_lift(f, aux, (1,)) for f in I.generators if not f.is_zero()]
    gens += [_lift(g, aux) - _lift(g, aux, (1,)) for g in J.generators if not g.is_zero()]
    if not gens:
        return IdealBasis(ring, (), True)
    gb = buchberger(gens, aux)
    kept = [
        _project(g, ring)
        for g in gb.generators
        if all(aux.exponents(k)[-1] == 0 for k, _ in g.terms)
    ]
    kept.sort(key=lambda q: ring.monomial_key(q.leading_monomial()), reverse=True)
    certified = ring.order == "grevlex"
    return IdealBasis(ring, tuple(kept), certified)


def _quotient_by_poly(I, g):
    ring = I.ring
    if g.is_zero():
        return IdealBasis(ring, (ring.one(),))
    if g.leading_monomial() == 0:
        return I  # unit divisor: (I : c) = I
    meet = intersect(I, IdealBasis(ring, (g,)))
    gens = tuple(h.exact_div(g) for h in meet.generators)
    return IdealBasis(ring, gens)


def ideal_quotient(I, J):
    """(I : J) = {r : rJ ⊆ I}, intersected over the generators of J."""
    ring = I.ring
    nonzero = [g for g in J.generators if not g.is_zero()]
    if not nonzero:
        return IdealBasis(ring, (ring.one(),), True)
    result = None
    for g in nonzero:
        q = _quotient_by_poly(I, g)
        result = q if result is None else intersect(result, q)
    return ensure_gb(result)


def saturate(I, J):
    """(I : J^inf): iterate the quotient until it stabilizes."""
    current = ensure_gb(I)
    while True:
        nxt = ensure_gb(ideal_quotient(current, J))
        if nxt.generators == current.generators:
            return current
        current = nxt


# -- minimal generators and Hilbert functions --------------------------------------


def minimal_generator_count(I):
    """dim_k (I / mI)_d per degree d, by degreewise exact linear algebra."""
    ring = I.ring
    gens = [g for g in I.generators if not g.is_zero()]
    degrees = []
    for g in gens:
        d = g.homogeneous_degree()
        if not isinstance(d, int):
            raise GroebnerError("minimal_generator_count needs homogeneous generators")
        degrees.append(d)
    counts = {}
    for d in sorted(set(degrees)):
        monomials = ring.monomials_of_degree(d)
        index = {m: i for i, m in enumerate(monomials)}
        ech = echelon(ring.field)
        for g, dg in zip(gens, degrees):
            if dg < d:
                for mu in ring.monomials_of_degree(d - dg):
                    prod = g.mul_term(mu, ring.field.one)
                    ech.insert({index[m]: c for m, c in prod.terms})
        rank_m_part = ech.rank
        for g, dg in zip(gens, degrees):
            if dg == d:
                ech.insert({index[m]: c for m, c in g.terms})
        fresh = ech.rank - rank_m_part
        if fresh:
            counts[d] = fresh
    return counts


def grevlex_ideal(I):
    """I in the grevlex copy of its ring, built once and kept on I."""
    if I.order == "grevlex":
        return I
    if I._grevlex is None:
        ring = I.ring.with_order("grevlex")
        object.__setattr__(I, "_grevlex", IdealBasis(ring, tuple(_lift(g, ring) for g in I)))
    return I._grevlex


def hilbert_basis(I):
    """I when it is a reduced Groebner basis, else the grevlex one.  By
    Macaulay's theorem in(I) has the Hilbert function of I under every
    order; a lex basis can take minutes where grevlex takes milliseconds."""
    return I if I.is_reduced_gb else ensure_gb(grevlex_ideal(I))


def quotient_hilbert_function(I, d):
    """dim_k (R/I)_d by counting standard monomials of `hilbert_basis(I)`."""
    gb = hilbert_basis(I)
    return _standard_count(gb.ring, [g.leading_monomial() for g in gb], d)


def _standard_count(ring, leads, d):
    """Degree-d monomials of `ring` that no lead key divides (0 divides all)."""
    if not leads:
        return ring.dim_of_degree(d)
    n, guard = ring.nvars, _masks(ring.nvars)[1]
    lead_exps = [_unpack(k, n) for k in leads]
    count = 0
    for m in ring.monomials_of_degree(d):
        exps = _unpack(m, n)
        for le in lead_exps:
            if not (exps - le) & guard:
                break
        else:
            count += 1
    return count


# -- column modules of homogeneous matrices -----------------------------------------


class ColumnModuleGB:
    """Groebner basis of the submodule spanned by homogeneous column vectors.

    Vectors live in a twisted free module R^g (twists = generator degrees).
    One row (g = 1) spans I_1 = (f_1 .. f_n) twisted by the row's twist a,
    so the cokernel is (R/I_1)(-a): counts run on the reduced grevlex basis
    of I_1, which `ensure_gb` reads from the Groebner table at each use (a
    hit whenever the ideal of entries was based, e.g. as `minors(P, 1)`).
    The module keeps only that ideal and its span key, so a matrix that
    keeps the module pins no basis outside the table.
    More rows enter Nagata's idealization: in R[e_1..e_g] the ideal
    J = (sum_i v_i e_i : columns v) + (e_i e_k : i <= k) meets e-degree 1 in
    the column span, so R[e]/J in e-degree 1 is the cokernel.  Every
    generator is bihomogeneous in (e-degree, degree with deg e_i = twist_i),
    so the reduced basis from `buchberger` is too, under any monomial order,
    and its leading monomials x^m e_i give exact standard-monomial counts;
    pairs of e-degree 2 or more reduce to zero and are never reduced.
    """

    def __init__(self, ring, twists, columns):
        self.ring = ring
        self.twists = tuple(twists)
        g = len(self.twists)
        if any(len(col) != g for col in columns):
            raise GroebnerError("column length does not match module rank")
        if g == 1:
            self._ideal = grevlex_ideal(IdealBasis(ring, tuple(col[0] for col in columns)))
            ensure_gb(self._ideal)  # based now, as an idealization is
            return
        self._ideal = None
        aux, first = _aux_ring(ring, g, "grevlex")
        self._unit = unit = [tuple(int(i == k) for k in range(g)) for i in range(g)]
        e = [aux.variable(first + i) for i in range(g)]
        gens = [e[i] * e[k] for i in range(g) for k in range(i, g)]
        for col in columns:
            gens.append(
                sum((_lift(p, aux, unit[i]) for i, p in enumerate(col)), aux.zero())
            )
        # _buchberger, not ensure_gb: the whole object is kept on its matrix
        # (`HomogeneousMatrix.column_module`) or dropped, so the aux ideal
        # would only crowd the basis table
        self._basis = _buchberger(_canonical_span(gens, aux), aux, first)
        # a reduced basis is minimal: no lead x^m e_i divides another one;
        # the first `first` fields of its key are the packed key of x^m
        mask = _masks(first)[0]
        self._leads = [[] for _ in range(g)]
        for b in self._basis:
            lm = b.leading_monomial()
            exps = aux.exponents(lm)
            if sum(exps[first:]) == 1:
                self._leads[exps.index(1, first) - first].append(lm & mask)

    def normal_forms(self, polys):
        """(NF(p e_j))_j for each p of the iterable `polys`, yielded as it
        is read: normal forms modulo the column span in the auxiliary ring,
        k-linear in p, and zero iff p e_j lies in the span.  The reducer
        entries of the basis are built once per call and kept nowhere.
        Modules of two or more rows only: the annihilator of a one-row
        cokernel is its ideal of entries, and nothing reduces against it."""
        aux = self._basis.ring
        table = [_entry(_basis_poly(b), aux.nvars) for b in self._basis]
        for p in polys:
            yield tuple(_reduce_poly(_lift(p, aux, unit), table) for unit in self._unit)

    def coker_dim(self, d):
        """dim_k of degree-d piece of (free module)/(column span)."""
        if self._ideal is not None:
            return quotient_hilbert_function(self._ideal, d - self.twists[0])
        return sum(
            _standard_count(self.ring, leads, d - tw)
            for tw, leads in zip(self.twists, self._leads)
        )

    def image_dim(self, d):
        full = sum(self.ring.dim_of_degree(d - tw) for tw in self.twists)
        return full - self.coker_dim(d)
