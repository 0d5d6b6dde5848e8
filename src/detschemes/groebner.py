"""Reduced Groebner bases and the ideal-theoretic toolkit.

Buchberger's algorithm with the two classical pair-elimination criteria
(coprime leading terms, chain) and the normal selection strategy; on top of
it: membership, Krull dimension and height via independent variable sets,
ideal quotient and saturation through a single auxiliary elimination
variable, and minimal generator counts by degreewise linear algebra.

Column modules of homogeneous matrices run on the same Buchberger: Nagata's
idealization turns the column span in R^g into an ideal of R[e_1..e_g], and
the standard monomials of its reduced basis in e-degree 1 count the cokernel
degree by degree.  The grading layer uses those counts as the rank engine
for large degree pieces, and the test suite pins them against the echelon.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass
from itertools import combinations

from .linalg import echelon
from .memo import GB_BUDGET, Memo, terms
from .ring import (
    Monomial,
    Polynomial,
    PolyRing,
    _check_degree,
    _masks,
    _monomial,
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
    order: str = "grevlex"
    # computed on first use: ideals key the Groebner table
    _hash: int = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash((self.ring, self.generators, self.is_reduced_gb, self.order)),
            )
        return self._hash

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_unit(self):
        return any(
            not g.is_zero() and g.leading_monomial().is_one() for g in self.generators
        )


def ideal(ring, *gens):
    """Convenience constructor accepting polynomials or strings."""
    polys = tuple(ring.parse(g) if isinstance(g, str) else g for g in gens)
    return IdealBasis(ring, polys, False, ring.order)


def _poly_sort_key(p):
    # Fraction and int coefficients are mutually comparable
    return tuple((p.ring.monomial_key(m), c) for m, c in p.terms)


def spoly(f, g):
    lm_f, lc_f = f.leading_term()
    lm_g, lc_g = g.leading_term()
    lcm = lm_f.lcm(lm_g)
    field = f.ring.field
    a = f.mul_term(lcm.div(lm_f), field.inv(lc_f))
    b = g.mul_term(lcm.div(lm_g), field.inv(lc_g))
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
            _unpack(g.terms[0][0].key, n),
            g.terms[0][0].key,
            g.terms[0][1],
            [(m.key, c) for m, c in g.terms],
            max(m.key for m, _ in g.terms),  # carries g's largest degree
        )
        for g in reducers
    ]
    cur = {m.key: c for m, c in p.terms}
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
            remainder.append((_monomial(k, n), lc))
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
            {m for p in group for m, _ in p.terms},
            key=lambda m: ring.monomial_key(m),
            reverse=True,
        )
        index = {m: i for i, m in enumerate(monomials)}
        ech = echelon(field)
        for p in group:
            ech.insert({index[m]: c for m, c in p.terms})
        # pivots hold ints over QQ and residues over F_p; from_int takes both
        for vec in ech.pivots.values():
            out.append(
                ring.from_terms(
                    (monomials[i], field.from_int(c)) for i, c in vec.items()
                )
            )
    return out


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
        return IdealBasis(ring, (), True, ring.order)

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
        kj = basis[j].terms[0][0].key
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
        if not any(q.leading_monomial().divides(lm) for q in minimal):
            minimal.append(p)
    # interreduce tails
    reduced = []
    for idx, p in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(reduce_full(p, others).monic())
    reduced.sort(key=lambda q: key_of(q.leading_monomial()), reverse=True)
    return IdealBasis(ring, tuple(reduced), True, ring.order)


#: an entry pins its ideal and its basis; both are weighed by their terms
_GB_CACHE = Memo(GB_BUDGET, lambda ideal, gb: terms(ideal, gb))


def ensure_gb(I, memo=True):
    """Reduced GB of I, memoized: IdealBasis values are immutable.

    With memo=False the table is read but not written, for callers that
    need the basis only on the way to a result memoized elsewhere.
    """
    if I.is_reduced_gb:
        return I
    hit = _GB_CACHE.get(I)
    if hit is None:
        hit = buchberger(I)
        if memo:
            _GB_CACHE.put(I, hit)
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
    gb = ensure_gb(I)
    ring = I.ring
    nvars = ring.nvars
    if gb.contains_unit():
        return DimensionReport(-1, math.inf)
    lms = [g.leading_monomial() for g in gb.generators]
    supports = [
        frozenset(i for i, e in enumerate(lm.exponents) if e > 0) for lm in lms
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
    are `tail` (by default all zero)."""
    tail = tail or (0,) * (aux.nvars - p.ring.nvars)
    return aux.from_terms(
        (Monomial(m.exponents + tail), c) for m, c in p.terms
    )


def _project(p, ring):
    return ring.from_terms(
        (Monomial(m.exponents[:-1]), c) for m, c in p.terms
    )


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
        return IdealBasis(ring, (), True, ring.order)
    gb = buchberger(gens, aux)
    kept = [
        _project(g, ring)
        for g in gb.generators
        if all(m.exponents[-1] == 0 for m, _ in g.terms)
    ]
    kept.sort(key=lambda q: ring.monomial_key(q.leading_monomial()), reverse=True)
    certified = ring.order == "grevlex"
    return IdealBasis(ring, tuple(kept), certified, ring.order)


def _quotient_by_poly(I, g):
    ring = I.ring
    if g.is_zero():
        return IdealBasis(ring, (ring.one(),), False, ring.order)
    if g.leading_monomial().is_one():
        return I  # unit divisor: (I : c) = I
    meet = intersect(I, IdealBasis(ring, (g,), False, ring.order))
    gens = tuple(h.exact_div(g) for h in meet.generators)
    return IdealBasis(ring, gens, False, ring.order)


def ideal_quotient(I, J):
    """(I : J) = {r : rJ ⊆ I}, intersected over the generators of J."""
    ring = I.ring
    nonzero = [g for g in J.generators if not g.is_zero()]
    if not nonzero:
        return IdealBasis(ring, (ring.one(),), True, ring.order)
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


def quotient_hilbert_function(I, d):
    """dim_k (R/I)_d by counting standard monomials of the reduced GB."""
    if d < 0:
        return 0
    gb = ensure_gb(I)
    if gb.contains_unit():
        return 0
    lms = [g.leading_monomial() for g in gb.generators]
    count = 0
    for m in I.ring.monomials_of_degree(d):
        if not any(lm.divides(m) for lm in lms):
            count += 1
    return count


# -- column modules of homogeneous matrices -----------------------------------------


class ColumnModuleGB:
    """Groebner basis of the submodule spanned by homogeneous column vectors.

    Vectors live in a twisted free module R^g (twists = generator degrees).
    The columns enter Nagata's idealization: in R[e_1..e_g] the ideal
    J = (sum_i v_i e_i : columns v) + (e_i e_k : i <= k) meets e-degree 1 in
    the column span, so R[e]/J in e-degree 1 is the cokernel.  Every
    generator is bihomogeneous in (e-degree, degree with deg e_i = twist_i),
    so the reduced basis from `buchberger` is too, under any monomial order,
    and its leading monomials x^m e_i give exact standard-monomial counts.
    """

    def __init__(self, ring, twists, columns):
        self.ring = ring
        self.twists = tuple(twists)
        g = len(self.twists)
        aux, first = _aux_ring(ring, g, "grevlex")
        unit = [tuple(int(i == k) for k in range(g)) for i in range(g)]
        e = [aux.variable(first + i) for i in range(g)]
        gens = [e[i] * e[k] for i in range(g) for k in range(i, g)]
        for col in columns:
            if len(col) != g:
                raise GroebnerError("column length does not match module rank")
            gens.append(
                sum((_lift(p, aux, unit[i]) for i, p in enumerate(col)), aux.zero())
            )
        # buchberger, not ensure_gb: callers memoize the whole object, so the
        # aux ideal would only crowd the basis table
        self.basis = buchberger(gens, aux)
        # a reduced basis is minimal: no lead x^m e_i divides another one
        self._leads = [[] for _ in range(g)]
        for b in self.basis:
            exps = b.leading_monomial().exponents
            if sum(exps[first:]) == 1:
                self._leads[exps.index(1, first) - first].append(Monomial(exps[:first]))

    def coker_dim(self, d):
        """dim_k of degree-d piece of (free module)/(column span)."""
        total = 0
        for tw, leads in zip(self.twists, self._leads):
            if not leads:
                total += self.ring.dim_of_degree(d - tw)
                continue
            for m in self.ring.monomials_of_degree(d - tw):
                if not any(lm.divides(m) for lm in leads):
                    total += 1
        return total

    def image_dim(self, d):
        full = sum(self.ring.dim_of_degree(d - tw) for tw in self.twists)
        return full - self.coker_dim(d)
