"""Parallel suffix-trie query: chunking, merging, and accounting laws."""

import math
import random

import pytest

from parsuffix import (ParameterError, StepLedger, assign_subqueries,
                       build_suffix_trie, build_trie_halving_dict, make_text,
                       par_query_trie, par_query_trie_threaded)
from parsuffix.textmodel import Pattern

from conftest import naive_positions, random_text


def test_assignment_recursive_halving():
    asn = assign_subqueries(10, 4)
    assert asn.lengths == (3, 2, 3, 2)
    assert asn.offsets == (1, 4, 6, 9)
    asn = assign_subqueries(7, 2)
    assert asn.lengths == (4, 3)


def test_assignment_parameter_errors():
    with pytest.raises(ParameterError):
        assign_subqueries(4, 3)          # not a power of two
    with pytest.raises(ParameterError):
        assign_subqueries(4, 8)          # p >= 2m
    assert assign_subqueries(4, 1).lengths == (4,)


def test_rejects_foreign_dictionary(abra_trie):
    other = build_suffix_trie(make_text(b"ABRACADABRA", 1))
    with pytest.raises(ParameterError):
        par_query_trie(abra_trie, build_trie_halving_dict(other),
                       Pattern.from_bytes(b"ABRA"), 2)


def test_assignment_sums_and_balance():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(1, 200)
        p = rng.choice([1, 2, 4, 8, 16])
        if not p < 2 * m:
            continue
        asn = assign_subqueries(m, p)
        assert sum(asn.lengths) == m
        assert max(asn.lengths) - min(asn.lengths) <= 1
        assert max(asn.lengths) == -(-m // p)


def test_golden_p2(abra_trie, abra_trie_dict):
    led = StepLedger()
    res = par_query_trie(abra_trie, abra_trie_dict,
                         Pattern.from_bytes(b"ABRA"), 2, led)
    assert res.positions == (1, 8)
    assert led.nav_chars == 4 and led.probes == 1


def test_golden_p4(abra_trie, abra_trie_dict):
    res = par_query_trie(abra_trie, abra_trie_dict,
                         Pattern.from_bytes(b"ABRA"), 4)
    assert res.positions == (1, 8)


def test_absent_pattern(abra_trie, abra_trie_dict):
    assert par_query_trie(abra_trie, abra_trie_dict,
                          Pattern.from_bytes(b"ABRD"), 2).positions == ()
    assert par_query_trie(abra_trie, abra_trie_dict,
                          Pattern.from_bytes(b"ZZ"), 2).positions == ()


def test_requires_trie(abra_tree, abra_trie_dict):
    with pytest.raises(ParameterError):
        par_query_trie(abra_tree, abra_trie_dict,
                       Pattern.from_bytes(b"AB"), 2)


def test_work_and_span_laws():
    """Found patterns: navigation work m, probes p - 1, span within
    ceil(m/p) + lg p."""
    rng = random.Random(7)
    for _ in range(40):
        raw = random_text(rng, rng.randrange(2, 70), rng.choice([1, 2, 4]))
        trie = build_suffix_trie(make_text(raw, 1))
        dct = build_trie_halving_dict(trie)
        m = rng.randrange(1, len(raw) + 1)
        i = rng.randrange(0, len(raw) - m + 1)
        pat = Pattern.from_bytes(raw[i:i + m])
        for p in (1, 2, 4, 8, 16):
            if not p < 2 * m:
                continue
            led = StepLedger()
            res = par_query_trie(trie, dct, pat, p, led)
            assert res.found
            assert led.nav_chars == m
            assert led.probes == p - 1
            assert led.work == m + p - 1
            assert led.span <= -(-m // p) + int(math.log2(p))


def test_oracle_equivalence_randomized():
    rng = random.Random(13)
    for _ in range(60):
        raw = random_text(rng, rng.randrange(2, 60), rng.choice([1, 2, 3]))
        trie = build_suffix_trie(make_text(raw, 1))
        dct = build_trie_halving_dict(trie)
        for _ in range(6):
            m = rng.randrange(1, len(raw) + 1)
            if rng.random() < 0.5:
                i = rng.randrange(0, len(raw) - m + 1)
                q = raw[i:i + m]
            else:
                q = random_text(rng, m, 4)
            expected = naive_positions(raw, q)
            for p in (2, 4, 8):
                if not p < 2 * m:
                    continue
                assert par_query_trie(trie, dct, Pattern.from_bytes(q),
                                      p).positions == expected


def test_threaded_agreement(abra_trie, abra_trie_dict):
    for q in (b"ABRA", b"A", b"CAD", b"ABRD", b"ABRACADABRA"):
        for p in (2, 4, 8):
            if not p < 2 * len(q):
                continue
            sim = par_query_trie(abra_trie, abra_trie_dict,
                                 Pattern.from_bytes(q), p)
            thr = par_query_trie_threaded(abra_trie, abra_trie_dict,
                                          Pattern.from_bytes(q), p)
            assert sim.positions == thr.positions
