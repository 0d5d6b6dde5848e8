"""Bounded memo tables.

The package memoizes results per immutable input (minor ideals, reduced
Groebner bases and verdicts).  Each table is a `Memo`: past a budget it
evicts least recently used entries, so a long-lived process stays bounded
while inputs that repeat among recent ones still hit.

Every table's keys or values pin polynomials of any size, so an entry count
would not bound bytes: the budget is on the polynomial terms the entries
hold (`terms`), weighed as each entry is stored.
"""

from __future__ import annotations

from collections import OrderedDict

#: Term budgets of the package's tables, sized from the hits each table
#: gets on the benchmark workloads (perfbench, seed 20261017, in one
#: process: 4,800 classify-stream, 1,100 resolution-certify and 1,300
#: row-surgery problems, about a 20 s run each).
#: - Minor ideals: 25k terms.  Their hits come within a problem or from
#:   verbatim repeats soon after it: resolution-certify (8,698 hits) and
#:   row-surgery (5,655) hit exactly as often under 25k as under 150k, and
#:   classify-stream keeps 7,705 of 8,987; an ideal recomputed after its
#:   eviction still finds its basis in the Groebner table.  A row-surgery
#:   problem re-reads no earlier one's minors, so at 150k terms its load
#:   grew with every problem (44.7k after 1,300), and peak RSS with
#:   throughput.
#: - Groebner bases: 180k terms.  The table is keyed by canonical spans but
#:   weighs the generator list that stored an entry with its basis;
#:   classify-stream fills it (1,774 entries, 12,706 hits), and under 40k
#:   it would lose 996 of those hits, each a Buchberger run.
#: - Verdicts: 24k terms, which the matrices keying them reach on every
#:   workload.
MINORS_BUDGET = 25_000
GB_BUDGET = 180_000
MATRIX_BUDGET = 24_000


def terms(*collections):
    """Polynomial terms held by some collections of polynomials."""
    return sum(len(p.terms) for polys in collections for p in polys)


class Memo:
    """Mapping with a weight budget and least-recently-used eviction.

    Each `put` passes the entry's weight: the Groebner table, keyed by
    spans, weighs a generator list that its key does not show.  The entry
    just stored is never evicted by its own `put`, even when it alone is
    over the budget.
    Stored values must not be None, which `get` returns on a miss;
    test it with `is None`, since some values (the zero ideal's basis, a
    rank of 0) are falsy.
    """

    __slots__ = ("budget", "load", "_table")

    def __init__(self, budget):
        self.budget = budget
        self.load = 0  # total weight of the entries held
        self._table = OrderedDict()  # key -> (value, weight)

    def __len__(self):
        return len(self._table)

    def __contains__(self, key):
        return key in self._table

    def get(self, key):
        """The value stored for key, now the most recently used, or None."""
        hit = self._table.get(key)
        if hit is None:
            return None
        self._table.move_to_end(key)
        return hit[0]

    def put(self, key, value, weight):
        """Store value for key with its weight, evict down to the budget, and
        return value."""
        table = self._table
        old = table.pop(key, None)
        if old is not None:
            self.load -= old[1]
        table[key] = (value, weight)
        self.load += weight
        while self.load > self.budget and len(table) > 1:
            _, (_, evicted) = table.popitem(last=False)
            self.load -= evicted
        return value
