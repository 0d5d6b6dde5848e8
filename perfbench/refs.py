"""Independent references, in plain integers, for what the workloads check.

Nothing here calls the package under test.  For a generic t x (t+r) matrix
Φ: F = ⊕ R(-b_j) -> G = ⊕ R(-a_i) over k[x_0..x_n] the maximal minors have
the expected height r+1, so the Eagon-Northcott complex resolves R/I_t and
the Buchsbaum-Rim complex resolves coker Φ; every rank, twist, Betti number
and Hilbert function below follows from the shapes of their terms.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        return [(total,)]
    return [(e,) + rest for e in range(total, -1, -1)
            for rest in compositions(total - e, parts - 1)]


def _term_twists(a, b, size, degree):
    """Twists of ∧^size F ⊗ (S^degree G)^∨ ⊗ ∧^g G^∨."""
    base = sum(a)
    return sorted(
        sum(b[l] for l in S) - base - sum(k * ai for k, ai in zip(beta, a))
        for S in combinations(range(len(b)), size)
        for beta in compositions(degree, len(a))
    )


def en_twists(a, b):
    """Twist multisets of the EN terms F_0 = R, F_1, ..., F_{f-g+1}."""
    g, f = len(a), len(b)
    return [[0]] + [_term_twists(a, b, g + i, i) for i in range(f - g + 1)]


def br_twists(a, b):
    """Twist multisets of the BR terms F_0 = G, F_1 = F, F_2, ..., F_{f-g+1}."""
    g, f = len(a), len(b)
    terms = [sorted(a), sorted(b)]
    terms += [_term_twists(a, b, g + 1 + j, j) for j in range(f - g)]
    return terms


def en_ranks(t, r):
    """Closed form: rank F_{i+1} = C(t+r, t+i) * C(t+i-1, i)."""
    return [1] + [comb(t + r, t + i) * comb(t + i - 1, i) for i in range(r + 1)]


def br_ranks(t, r):
    """Closed form: rank F_{j+2} = C(t+r, t+1+j) * C(t+j-1, j)."""
    return [t, t + r] + [comb(t + r, t + 1 + j) * comb(t + j - 1, j) for j in range(r)]


def cm_type(t, r):
    return comb(r + t - 1, r)


def expected_ranks(module_ranks):
    """Buchsbaum-Eisenbud expected rank of each differential d_1..d_l."""
    n = len(module_ranks) - 1
    expected = [0] * (n + 2)
    for i in range(n, 0, -1):
        expected[i] = module_ranks[i] - expected[i + 1]
    return expected[1 : n + 1]


def betti_cells(twists):
    """((position, degree, count), ...) sorted as a Betti table reads."""
    return tuple(
        (i, d, c) for i, term in enumerate(twists) for d, c in sorted(Counter(term).items())
    )


def dim_free(nvars, d):
    """dim_k R_d for R = k[x_0..x_{nvars-1}]."""
    return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0


def hf_from_resolution(twists, nvars, d):
    """Alternating sum over a graded free resolution with the given terms."""
    return sum((-1) ** i * sum(dim_free(nvars, d - tw) for tw in term)
               for i, term in enumerate(twists))


def hf_quotient(a, b, nvars, d):
    """HF(R/I_t, d) read off the Eagon-Northcott terms."""
    return hf_from_resolution(en_twists(a, b), nvars, d)


def hf_coker(a, b, nvars, d):
    """HF(coker Φ, d) read off the Buchsbaum-Rim terms."""
    return hf_from_resolution(br_twists(a, b), nvars, d)


def hf_canonical(a, b, nvars, d):
    """HF of ω = Ext^c(R/I_t, R)(-nvars), from the dual of the EN resolution."""
    terms = en_twists(a, b)
    c = len(terms) - 1
    return sum((-1) ** (c - i) * sum(dim_free(nvars, d - (nvars - tw)) for tw in term)
               for i, term in enumerate(terms))


def canonical_shift(a, b, nvars):
    """e with ω ≅ (coker Φ)(e), aligned at the first nonzero degrees (codim 2)."""
    def first_nonzero(hf, start):
        return next(d for d in range(start, start + 64) if hf(d) > 0)

    d0_x = first_nonzero(lambda d: hf_coker(a, b, nvars, d), min(a))
    last = en_twists(a, b)[-1]
    d0_w = first_nonzero(lambda d: hf_canonical(a, b, nvars, d), min(nvars - tw for tw in last))
    return d0_x - d0_w


def generic_heights(t, r, nvars):
    """(height of I_t, height of I_{t-1}) for a generic t x (t+r) matrix.

    Generic s-minors of a p x q matrix have codimension (p-s+1)(q-s+1),
    capped by the number of variables; the empty minor ideal (t = 1) is the
    unit ideal, of infinite height.
    """
    ht = min(r + 1, nvars)
    sub = float("inf") if t == 1 else min(2 * (r + 2), nvars)
    return ht, sub
