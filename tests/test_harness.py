"""Corpus harness: oracle, determinism, and the run_case contract."""

import dataclasses

import pytest

from parsuffix import (CorpusCase, build_ancestry, generate_corpus,
                       oracle_scan, par_query_tree2, run_case)
from parsuffix.harness import ALGORITHMS, EquivalenceError
from parsuffix.lanes import seq_map
from parsuffix.textmodel import Pattern


def test_oracle_scan_goldens():
    assert oracle_scan(b"ABRACADABRA", Pattern.from_bytes(b"ABRA")) == (1, 8)
    assert oracle_scan(b"AAAA", Pattern.from_bytes(b"AA")) == (1, 2, 3)
    assert oracle_scan(b"ABC", Pattern.from_bytes(b"X")) == ()


def test_corpus_is_deterministic():
    a = generate_corpus(25, seed=99)
    b = generate_corpus(25, seed=99)
    c = generate_corpus(25, seed=100)
    assert a == b
    assert a != c


def test_case_materialization_deterministic():
    case = CorpusCase(seed=5, n=40, sigma=3, m=6, mode="present")
    raw1, pat1 = case.materialize()
    raw2, pat2 = case.materialize()
    assert raw1 == raw2 and pat1 == pat2
    assert oracle_scan(raw1, pat1)          # present mode guarantees a hit


def test_run_case_contract():
    case = CorpusCase(seed=7, n=64, sigma=2, m=9, mode="present")
    report = run_case(case)
    assert report.expected == oracle_scan(*case.materialize())
    assert report.runs
    for r in report.runs:
        assert r.positions == report.expected
        assert r.span <= r.work


def test_run_case_boundary_n1():
    case = CorpusCase(seed=1, n=1, sigma=1, m=1, mode="present")
    report = run_case(case)
    assert report.expected == (1,)
    names = {r.name for r in report.runs}
    assert "seq" in names
    # tree-par2 needs m >= 2 and is reported as skipped, not run
    assert any(s.startswith("tree-par2") for s in report.skipped)


def test_run_case_rejects_unknown_algorithm():
    case = CorpusCase(seed=1, n=8, sigma=2, m=2, mode="present")
    with pytest.raises(ValueError):
        run_case(case, algorithms=("kmp",))


def test_large_case_skips_trie():
    case = CorpusCase(seed=4, n=500, sigma=4, m=10, mode="present")
    report = run_case(case)
    assert any(s.startswith("trie-par") for s in report.skipped)
    assert any(r.name == "tree-par2" for r in report.runs)


def test_threaded_run_case_compares_ledgers(monkeypatch):
    case = CorpusCase(seed=7, n=64, sigma=2, m=9, mode="present")
    report = run_case(case, threaded=True)
    assert report.runs
    # a threaded mode that charges a throwaway ledger must be caught
    throwaway = dataclasses.replace(
        ALGORITHMS["tree-par2"],
        run=lambda c, pat, _, led, mapper: par_query_tree2(
            c.index, build_ancestry(c.index), c.dct, pat,
            led if mapper is seq_map else None, mapper))
    monkeypatch.setitem(ALGORITHMS, "tree-par2", throwaway)
    run_case(case, algorithms=("tree-par2",))
    with pytest.raises(EquivalenceError, match="threaded ledger"):
        run_case(case, algorithms=("tree-par2",), threaded=True)
