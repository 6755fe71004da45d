"""Two-lane patricia-tree query: correctness and accounting bounds."""

import random

import pytest

from parsuffix import (StepLedger, build_ancestry, build_suffix_tree,
                       build_tree_halving_dict, make_text, par_query_tree2,
                       par_query_tree2_threaded)
from parsuffix.textmodel import Pattern
from parsuffix.treeparallel import _TwoLaneDriver
from parsuffix.trieparallel import ParameterError

from conftest import (fibonacci_text, naive_positions, periodic_text,
                      random_text)
from naive_oracle import FullSweepDriver, run_tree2_driver


def run(raw, q, ledger=None):
    tree = build_suffix_tree(make_text(raw, 1))
    return par_query_tree2(tree, build_ancestry(tree),
                           build_tree_halving_dict(tree),
                           Pattern.from_bytes(q), ledger)


def test_goldens(abra_tree, abra_anc, abra_tree_dict):
    cases = [(b"ABRA", (1, 8)), (b"CAD", (5,)), (b"ABRD", ()),
             (b"ABRACADABRA", (1,)), (b"AB", (1, 8)), (b"RA", (3, 10)),
             (b"ZZ", ())]
    for q, exp in cases:
        res = par_query_tree2(abra_tree, abra_anc, abra_tree_dict,
                              Pattern.from_bytes(q))
        assert res.positions == exp, q


def test_leaf_early_exit():
    """A query longer than any internal node forces the single-candidate
    leaf exit; both the lane-1 and lane-2 discovery variants must agree
    with the oracle."""
    res = run(b"abcdefXabcdefYabZabce", b"abcdefXa")
    assert res.positions == naive_positions(b"abcdefXabcdefYabZabce",
                                            b"abcdefXa")
    res = run(b"abcdefXabcdefYabZabce", b"fXabcdefY")
    assert res.positions == (6,)


def test_rejects_short_patterns(abra_tree, abra_anc, abra_tree_dict):
    with pytest.raises(ParameterError):
        par_query_tree2(abra_tree, abra_anc, abra_tree_dict,
                        Pattern.from_bytes(b"A"))


def test_rejects_trie(abra_trie, abra_anc, abra_tree_dict):
    with pytest.raises(ParameterError):
        par_query_tree2(abra_trie, abra_anc, abra_tree_dict,
                        Pattern.from_bytes(b"AB"))


def test_rejects_foreign_ancestry(abra_tree, abra_tree_dict):
    """An ancestry from another tree, even one of the same text, gives
    wrong answers or an IndexError if used, so it is refused at entry."""
    pat = Pattern.from_bytes(b"ABRA")
    for raw in (b"ABABABAB", b"ABRACADABRA"):
        other = build_suffix_tree(make_text(raw, 1))
        with pytest.raises(ParameterError):
            par_query_tree2(abra_tree, build_ancestry(other), abra_tree_dict,
                            pat)


def test_rejects_foreign_dictionary(abra_tree, abra_anc):
    other = build_suffix_tree(make_text(b"ABRACADABRA", 1))
    with pytest.raises(ParameterError):
        par_query_tree2(abra_tree, abra_anc, build_tree_halving_dict(other),
                        Pattern.from_bytes(b"ABRA"))


def test_accounting_bounds_golden():
    led = StepLedger()
    res = run(b"ABRACADABRA", b"ABRA", led)
    assert res.positions == (1, 8)
    m = 4
    assert led.nav_chars <= -(-m // 2) + -(-3 * m // 4) + 2
    assert led.span <= m + 4


def test_oracle_and_bounds_randomized():
    rng = random.Random(31)
    for _ in range(50):
        raw = random_text(rng, rng.randrange(2, 80), rng.choice([1, 2, 3, 4]))
        tree = build_suffix_tree(make_text(raw, 1))
        anc = build_ancestry(tree)
        dct = build_tree_halving_dict(tree)
        for _ in range(8):
            m = rng.randrange(2, len(raw) + 1) if len(raw) > 1 else 2
            if rng.random() < 0.5 and m <= len(raw):
                i = rng.randrange(0, len(raw) - m + 1)
                q = raw[i:i + m]
            else:
                q = random_text(rng, m, 5)
            led = StepLedger()
            res = par_query_tree2(tree, anc, dct, Pattern.from_bytes(q), led)
            assert res.positions == naive_positions(raw, q), (raw, q)
            assert led.nav_chars <= -(-m // 2) + -(-3 * m // 4) + 2, (raw, q)
            assert led.span <= m + 4, (raw, q)


def test_unary_stress():
    for n in range(2, 20):
        raw = b"a" * n
        for m in range(2, n + 2):
            res = run(raw, b"a" * m)
            assert res.positions == naive_positions(raw, b"a" * m)


def test_threaded_agreement():
    rng = random.Random(77)
    tree = anc = dct = None
    for _ in range(10):
        raw = random_text(rng, rng.randrange(4, 50), rng.choice([2, 3]))
        tree = build_suffix_tree(make_text(raw, 1))
        anc = build_ancestry(tree)
        dct = build_tree_halving_dict(tree)
        for _ in range(5):
            m = rng.randrange(2, len(raw) + 1)
            i = rng.randrange(0, len(raw) - m + 1)
            pat = Pattern.from_bytes(raw[i:i + m])
            assert par_query_tree2(tree, anc, dct, pat).positions == \
                par_query_tree2_threaded(tree, anc, dct, pat).positions


def _window_texts(rng):
    for n in (60, 250, 700):
        yield b"a" * n
        yield fibonacci_text(n)
        yield periodic_text(rng, n, 7)
        for sigma in (2, 4, 26):
            yield random_text(rng, n, sigma)


def test_windowed_sweep_matches_full_sweep():
    """Probing only the window of stored right parts finds the same hits
    as probing every ancestor, so the sweep, its answers and its other
    counters are unchanged; only probes fall."""
    rng = random.Random(606)
    for raw in _window_texts(rng):
        tree = build_suffix_tree(make_text(raw, 1))
        anc = build_ancestry(tree)
        dct = build_tree_halving_dict(tree)
        for _ in range(12):
            m = rng.randrange(2, len(raw) + 1)
            i = rng.randrange(0, len(raw) - m + 1)
            q = bytearray(raw[i:i + m])
            if rng.random() < 0.3:
                q[rng.randrange(m)] ^= 1 << rng.randrange(2)
            pat = Pattern.from_bytes(bytes(q))
            win, res, led = run_tree2_driver(_TwoLaneDriver, tree, anc, dct,
                                             pat)
            full, full_res, full_led = run_tree2_driver(FullSweepDriver, tree,
                                                        anc, dct, pat)
            assert win.hits == full.hits, (raw, q)
            assert res == full_res, (raw, q)
            assert res.positions == naive_positions(raw, bytes(q)), (raw, q)
            assert (led.span, led.nav_chars, led.shortens) == \
                (full_led.span, full_led.nav_chars, full_led.shortens), (raw, q)
            assert led.probes <= min(full_led.probes, 2 * m + 2), (raw, q)


def test_unary_probes_linear():
    """The full sweep costs Θ(m²) probes on a unary text (395 010 at
    m=2048); the window keeps them within 2m + 2."""
    raw = b"a" * 4000
    tree = build_suffix_tree(make_text(raw, 1))
    anc = build_ancestry(tree)
    dct = build_tree_halving_dict(tree)
    for m in (256, 1024, 2048):
        led = StepLedger()
        res = par_query_tree2(tree, anc, dct, Pattern.from_bytes(b"a" * m),
                              led)
        assert res.positions == tuple(range(1, 4000 - m + 2))
        assert led.probes <= 2 * m + 2, (m, led.probes)
