from detschemes.memo import MEMO_BOUND, Memo


def test_memo_evicts_least_recently_used():
    memo = Memo()
    for k in range(MEMO_BOUND):
        memo.put(k, k)
    assert memo.get(0) == 0  # a hit makes 0 the most recently used
    memo.put("new", 1)
    assert len(memo) == MEMO_BOUND
    assert 1 not in memo and memo.get(1) is None
    assert 0 in memo and "new" in memo
    memo.put("another", 2)
    assert 2 not in memo and 0 in memo


def test_memo_keeps_falsy_values():
    memo = Memo()
    assert memo.put("rank", 0) == 0
    assert memo.get("rank") == 0 and memo.get("missing") is None
