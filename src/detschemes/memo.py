"""Bounded memo tables.

The package memoizes results per immutable input (minor ideals, reduced
Groebner bases, verdicts, column-module bases and degree-piece ranks).  Each
table is a `Memo`: past a budget it evicts least recently used entries, so a
long-lived process stays bounded while inputs that repeat among recent ones
still hit.

Every table's keys or values pin polynomials of any size, so an entry count
would not bound bytes: the budget is on the polynomial terms the entries
hold (`terms`), counted by a weight function per table.
"""

from __future__ import annotations

from collections import OrderedDict

#: Term budgets of the package's tables, sized from the loads that entry
#: bounds left in them at the end of a 20 s benchmark run (perfbench, seed
#: 20261017): minor ideals reached 149k terms (resolution-certify), Groebner
#: inputs with their bases 180k (classify-stream), and the matrices keying
#: verdicts 24k (classify-stream and row-surgery).  Piece ranks and
#: column-module bases, also keyed by matrices, share the verdicts' budget:
#: piece ranks are reused only within one certificate, and row-surgery hits
#: them as often under it as with no bound; column-module bases (a matrix
#: with the reduced basis of its idealization) stay under 1,300 terms.
MINORS_BUDGET = 150_000
GB_BUDGET = 180_000
MATRIX_BUDGET = 24_000


def terms(*collections):
    """Polynomial terms held by some collections of polynomials."""
    return sum(len(p.terms) for polys in collections for p in polys)


class Memo:
    """Mapping with a weight budget and least-recently-used eviction.

    `weight(key, value)` is an entry's weight.  The entry just stored is
    never evicted by its own `put`, even when it alone is over the budget.
    Stored values must not be None, which `get` returns on a miss;
    test it with `is None`, since some values (the zero ideal's basis, a
    rank of 0) are falsy.
    """

    __slots__ = ("budget", "weight", "load", "_table")

    def __init__(self, budget, weight):
        self.budget = budget
        self.weight = weight
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

    def put(self, key, value):
        """Store value for key, evict down to the budget, and return value."""
        table = self._table
        old = table.pop(key, None)
        if old is not None:
            self.load -= old[1]
        w = self.weight(key, value)
        table[key] = (value, w)
        self.load += w
        while self.load > self.budget and len(table) > 1:
            _, (_, evicted) = table.popitem(last=False)
            self.load -= evicted
        return value
