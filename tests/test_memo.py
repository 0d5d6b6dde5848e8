from types import SimpleNamespace

from detschemes.memo import Memo, terms


def test_memo_evicts_least_recently_used():
    memo = Memo(8, lambda key, value: 1)
    for k in range(8):
        memo.put(k, k)
    assert memo.get(0) == 0  # a hit makes 0 the most recently used
    memo.put("new", 1)
    assert len(memo) == 8 and memo.load == 8
    assert 1 not in memo and memo.get(1) is None
    assert 0 in memo and "new" in memo
    memo.put("another", 2)
    assert 2 not in memo and 0 in memo


def test_memo_keeps_falsy_values():
    memo = Memo(8, lambda key, value: 1)
    assert memo.put("rank", 0) == 0
    assert memo.get("rank") == 0 and memo.get("missing") is None
    memo.put("basis", ())
    assert memo.get("basis") == () and "basis" in memo


def _poly(n):
    """Stand-in for a polynomial with n terms."""
    return SimpleNamespace(terms=(None,) * n)


def _weigh(key, value):
    return terms(value)


def test_memo_term_budget_evicts_least_recently_used_first():
    memo = Memo(10, _weigh)
    memo.put("a", [_poly(3)])
    memo.put("b", [_poly(2), _poly(2)])
    memo.put("c", [_poly(2)])
    assert memo.load == 9
    memo.get("a")  # now b is the least recently used
    memo.put("d", [_poly(4)])  # 13 > 10: b goes, 9 is within the budget
    assert "b" not in memo and {"a", "c", "d"} <= set(memo._table)
    assert memo.load == 9
    memo.put("e", [_poly(8)])  # evicts down to the budget: c, then a, then d
    assert list(memo._table) == ["e"] and memo.load == 8


def test_memo_keeps_an_oversized_entry():
    memo = Memo(10, _weigh)
    memo.put("small", [_poly(1)])
    memo.put("huge", [_poly(25)])
    assert list(memo._table) == ["huge"] and memo.load == 25
    assert memo.get("huge") is not None
    memo.put("next", [_poly(1)])  # the oversized entry is now evictable
    assert list(memo._table) == ["next"] and memo.load == 1


def test_memo_replacing_an_entry_updates_the_load():
    memo = Memo(10, _weigh)
    memo.put("a", [_poly(6)])
    memo.put("a", [_poly(2)])
    assert len(memo) == 1 and memo.load == 2


def test_terms_counts_every_collection():
    assert terms([_poly(2), _poly(3)], [], [_poly(1)]) == 6
