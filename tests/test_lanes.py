"""Lane executors: the threaded mode charges the ledger the simulated mode
charges, also when thread switches are forced between bytecodes."""

import random
import sys
import threading

import pytest

from parsuffix import lanes
from parsuffix import (StepLedger, build_ancestry, build_layered_index,
                       build_suffix_tree, build_suffix_trie,
                       build_tree_halving_dict, build_trie_halving_dict,
                       make_text, par_query_interleaved, par_query_tree2,
                       par_query_trie)
from parsuffix.lanes import seq_map, thread_map
from parsuffix.textmodel import Pattern

from conftest import random_text


def _ledger_state(led):
    return dict(led.lanes), dict(led.lane_time)


def test_thread_map_keeps_order():
    assert thread_map(lambda x: x * x, range(20)) == seq_map(
        lambda x: x * x, range(20))


def test_threaded_ledgers_under_forced_switches():
    rng = random.Random(5)
    raw = random_text(rng, 200, 2)
    layered = build_layered_index(raw, 8)
    trie = build_suffix_trie(make_text(raw[:120], 1))
    trie_dict = build_trie_halving_dict(trie)
    tree = build_suffix_tree(make_text(raw, 1))
    anc = build_ancestry(tree)
    tree_dict = build_tree_halving_dict(tree)
    calls = []
    for _ in range(30):
        m = rng.randrange(8, 40)
        i = rng.randrange(0, 120 - m)
        q = Pattern.from_bytes(raw[i:i + m] if rng.random() < 0.7
                               else random_text(rng, m, 3))
        calls.append(lambda led, mapper, q=q:
                     par_query_interleaved(layered, q, 8, led, mapper))
        calls.append(lambda led, mapper, q=q:
                     par_query_trie(trie, trie_dict, q, 4, led, mapper))
        calls.append(lambda led, mapper, q=q:
                     par_query_tree2(tree, anc, tree_dict, q, led, mapper))

    def run(mapper):
        out = []
        for call in calls:
            led = StepLedger()
            res = call(led, mapper)
            out.append((res.positions, _ledger_state(led)))
        return out

    want = run(seq_map)
    got: dict[int, list] = {}

    def caller(k):
        got[k] = run(thread_map)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,))
                   for k in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert [got[k] for k in range(3)] == [want] * 3


def test_thread_map_forks_and_joins(monkeypatch):
    """The calling thread runs the first lane and the pool the others; a
    one-lane map submits nothing; an exception from any lane
    propagates."""
    caller = threading.current_thread()
    where = thread_map(lambda _: threading.current_thread(), range(3))
    assert where[0] is caller
    assert all(t is not caller and t.name.startswith("parsuffix-lane")
               for t in where[1:])

    def fail(i, bad):
        if i == bad:
            raise ValueError(i)
        return i

    for bad in range(3):
        with pytest.raises(ValueError, match=str(bad)):
            thread_map(lambda i: fail(i, bad), range(3))

    class NoPool:
        def submit(self, *args):
            raise AssertionError("a one-lane map submitted a task")

    monkeypatch.setattr(lanes, "_pool", NoPool())
    assert thread_map(lambda x: x + 1, [41]) == [42]
    assert thread_map(lambda x: x + 1, []) == []
