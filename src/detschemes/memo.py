"""Bounded memo tables.

The package memoizes results per immutable input (minor ideals, reduced
Groebner bases, verdicts, column-module bases and degree-piece ranks).  Each
table is a `Memo`: it holds a bounded number of entries and evicts the least
recently used one past that, so a long-lived process stays bounded while
inputs that repeat within the last few thousand distinct ones still hit.
"""

from __future__ import annotations

from collections import OrderedDict

#: default entries per table; a 20 s classify stream holds about 1,900
#: Groebner bases, and its repeated inputs must still find them
MEMO_BOUND = 4096


class Memo:
    """Mapping with an entry bound and least-recently-used eviction.

    Stored values must not be None, which `get` returns on a miss; test it
    with `is None`, since some values (the zero ideal's basis, a rank of 0)
    are falsy.
    """

    __slots__ = ("bound", "_table")

    def __init__(self, bound=MEMO_BOUND):
        self.bound = bound
        self._table = OrderedDict()

    def __len__(self):
        return len(self._table)

    def __contains__(self, key):
        return key in self._table

    def get(self, key):
        """The value stored for key, now the most recently used, or None."""
        value = self._table.get(key)
        if value is not None:
            self._table.move_to_end(key)
        return value

    def put(self, key, value):
        """Store value for key, evict past the bound, and return value."""
        table = self._table
        table[key] = value
        table.move_to_end(key)
        if len(table) > self.bound:
            table.popitem(last=False)
        return value
