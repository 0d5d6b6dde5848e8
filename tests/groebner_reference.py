"""Reference oracle: the Fraction-based Buchberger the integer kernel replaced.

`buchberger`, `reduce_full`, `spoly`, `_linear_preprocess` and
`_poly_sort_key` are kept verbatim from before the kernel: every reduction
step divides field elements, so the whole computation runs on the field's
own arithmetic.  `_linear_preprocess` row-reduces on `FieldEchelon`, not on
the package's echelons, so the oracle shares no linear algebra with the
code it checks.  The differential tests assert that the package's bases,
normal forms and S-polynomials equal these byte for byte.

`two_pass_span` is `groebner._canonical_span` as it was before the F_p
echelon kept its rows reduced: an echelon of each degree's generators, then
a second echelon that back-substitutes its pivots, over both fields on
`FieldEchelon` (`linalg_reference.field_reduced_rows`), so that it shares no
linear algebra with the package either.

`lift` and `project` are `groebner._lift` and `_project` as they were
before they worked on packed keys: every monomial is rebuilt from its
exponent tuple, so `PolyRing.monomial` checks each degree.
"""

from __future__ import annotations

import heapq
import math

from detschemes.groebner import GroebnerError, IdealBasis, _basis_poly, _normalized
from detschemes.ring import (
    Polynomial,
    _check_degree,
    _masks,
    _unpack,
    lcm_key,
)
from linalg_reference import FieldEchelon, field_reduced_rows


def _poly_sort_key(p):
    # Fraction and int coefficients are mutually comparable
    return tuple((p.ring.monomial_key(k), c) for k, c in p.terms)


def _divides(ring, a, b):
    """Whether the monomial with key a divides the one with key b."""
    return all(x <= y for x, y in zip(ring.exponents(a), ring.exponents(b)))


def spoly(f, g):
    lm_f, lc_f = f.leading_term()
    lm_g, lc_g = g.leading_term()
    n = f.ring.nvars
    lcm = _check_degree(lcm_key(lm_f, lm_g, n), n)
    field = f.ring.field
    a = f.mul_term(lcm - lm_f, field.inv(lc_f))
    b = g.mul_term(lcm - lm_g, field.inv(lc_g))
    return a - b


def reduce_full(p, reducers):
    """Full normal form of p against a list of nonzero polynomials.

    Works on packed monomial keys (a term times a monomial is a key sum), so
    no intermediate Polynomial is materialized; the remainder accumulates in
    strictly decreasing order.
    """
    ring = p.ring
    field = ring.field
    n = ring.nvars
    okey = ring._okey
    mod = ring._modulus  # F_p coefficients are reduced by hand
    guard = _masks(n)[1]
    red = [
        (
            _unpack(g.terms[0][0], n),
            g.terms[0][0],
            g.terms[0][1],
            g.terms,
            max(k for k, _ in g.terms),  # carries g's largest degree
        )
        for g in reducers
    ]
    cur = dict(p.terms)
    get = cur.get
    remainder = []
    while cur:
        k = max(cur, key=okey)
        lc = cur[k]
        le = _unpack(k, n)
        for ge, gk, gc, gterms, gmax in red:
            if not (le - ge) & guard:
                break
        else:
            remainder.append((k, lc))
            del cur[k]
            continue
        qk = k - gk
        # outside grevlex a tail term of g can outweigh its leading one
        _check_degree(qk + gmax, n)
        qc = field.div(lc, gc)
        for mk, c in gterms:
            k2 = qk + mk
            nc = get(k2, 0) - qc * c
            if mod:
                nc %= mod
            if nc:
                cur[k2] = nc
            else:
                cur.pop(k2, None)
    return Polynomial(ring, tuple(remainder))


def _linear_preprocess(polys):
    """Interreduce same-degree homogeneous generators by exact echelon.

    Large minor sets are linearly very redundant; row-reducing them first
    gives distinct leading monomials and shrinks Buchberger's pair queue.
    Over QQ the elimination runs fraction-free on integer vectors, and the
    integer pivot rows are the new generators.
    """
    ring = polys[0].ring
    field = ring.field
    by_degree = {}
    passthrough = []
    for p in polys:
        d = p.homogeneous_degree()
        if isinstance(d, int):
            by_degree.setdefault(d, []).append(p)
        else:
            passthrough.append(p)
    out = list(passthrough)
    for d in sorted(by_degree):
        group = by_degree[d]
        if len(group) == 1:
            out.extend(group)
            continue
        monomials = sorted(
            {k for p in group for k, _ in p.terms},
            key=ring.monomial_key,
            reverse=True,
        )
        index = {m: i for i, m in enumerate(monomials)}
        ech = FieldEchelon(field)
        for p in group:
            ech.insert({index[m]: c for m, c in p.terms})
        for vec in ech.pivots.values():
            out.append(ring.from_keys({monomials[i]: c for i, c in vec.items()}))
    return out


def two_pass_span(polys, ring):
    """The canonical span of nonzero generators by the two-pass route."""
    mod, top = ring._modulus, ring._top
    by_degree = {}
    out = []
    for p in polys:
        poly = _basis_poly(p)
        d = poly[0][0] >> top
        if all(k >> top == d for k, _ in poly):
            by_degree.setdefault(d, []).append(poly)
        else:
            out.append(poly)
    for group in by_degree.values():
        if len(group) == 1:
            out.extend(group)
            continue
        keys = sorted({k for poly in group for k, _ in poly}, key=ring._okey, reverse=True)
        index = {k: i for i, k in enumerate(keys)}
        ech = FieldEchelon(ring.field)
        for poly in group:
            ech.insert({index[k]: c for k, c in poly})
        for vec in field_reduced_rows(ech):
            if not mod:  # Fraction entries, pivot 1: clear the denominators
                den = math.lcm(*[c.denominator for _, c in vec])
                vec = [(i, int(c * den)) for i, c in vec]
            out.append(_normalized([(keys[i], c) for i, c in vec], mod))
    order = ring._okey or int
    out.sort(key=lambda poly: [(order(k), c) for k, c in poly])
    return [poly for i, poly in enumerate(out) if not i or out[i - 1] != poly]


def buchberger(gens, ring=None):
    """Reduced Groebner basis generating the same ideal as `gens`.

    Deterministic for a fixed monomial order: generators are sorted
    canonically, pairs are selected by smallest lcm (normal strategy), and
    the result is minimalized, interreduced and made monic.
    """
    if isinstance(gens, IdealBasis):
        ring = gens.ring
        polys = list(gens.generators)
    else:
        polys = list(gens)
        if ring is None:
            if not polys:
                raise GroebnerError("cannot infer ring from an empty generator list")
            ring = polys[0].ring
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return IdealBasis(ring, (), True)

    polys = _linear_preprocess(polys)
    polys = [p.monic() for p in polys]
    polys.sort(key=_poly_sort_key)
    deduped = []
    for p in polys:
        if not deduped or deduped[-1] != p:
            deduped.append(p)
    basis = deduped

    key_of = ring.monomial_key
    okey = ring._okey
    n = ring.nvars
    guard = _masks(n)[1]
    leads = []  # packed key of each basis element's leading monomial
    lead_exps = []  # and its packed exponents
    pending = set()
    heap = []

    def push_pairs(j):
        kj = basis[j].terms[0][0]
        leads.append(kj)
        lead_exps.append(_unpack(kj, n))
        for i in range(j):
            lcm = lcm_key(leads[i], kj, n)
            pending.add((i, j))
            heapq.heappush(heap, (lcm if okey is None else okey(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = lcm_key(leads[i], leads[j], n)
        if lcm == leads[i] + leads[j]:
            continue  # coprime leading terms
        lcm_exps = _unpack(lcm, n)
        chain = False
        for k, ek in enumerate(lead_exps):
            if k == i or k == j:
                continue
            if not (lcm_exps - ek) & guard:
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    chain = True
                    break
        if chain:
            continue
        r = reduce_full(spoly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            push_pairs(len(basis) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    minimal = []
    for p in sorted(basis, key=lambda q: key_of(q.leading_monomial())):
        lm = p.leading_monomial()
        if not any(_divides(ring, q.leading_monomial(), lm) for q in minimal):
            minimal.append(p)
    # interreduce tails
    reduced = []
    for idx, p in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(reduce_full(p, others).monic())
    reduced.sort(key=lambda q: key_of(q.leading_monomial()), reverse=True)
    return IdealBasis(ring, tuple(reduced), True)


def lift(p, aux, tail=None):
    """p in aux, times the monomial whose exponents in the appended variables
    are `tail` (by default all zero)."""
    tail = tail or (0,) * (aux.nvars - p.ring.nvars)
    return aux.from_keys(
        {aux.monomial(p.ring.exponents(k) + tuple(tail)): c for k, c in p.terms}
    )


def project(p, ring):
    """p in `ring`, its last variable set to 1; terms that meet add up."""
    acc = {}
    for k, c in p.terms:
        m = ring.monomial(p.ring.exponents(k)[:-1])
        acc[m] = acc[m] + c if m in acc else c
    return ring.from_keys(acc)
