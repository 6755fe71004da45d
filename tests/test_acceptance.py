"""Acceptance gate: one test (and one printed PASS/FAIL line) per
criterion.

Criteria:
  1. oracle equivalence over >= 1000 randomized cases, zero mismatches
  2. trie-par accounting: nav work = m, probes = p - 1, span <= ceil(m/p) + lg p
  3. tree-par2 bounds: nav <= ceil(5m/4) + 2, span <= m + 4,
     probes <= 2m + 2
  4. interleaved bounds: per-layer probes <= 2(|pi1| + |pi2|), span <= 4(m/j)lg j
  5. structural suites (trie size, compression, layer height/leaves, parity,
     dictionary completeness)
  6. golden fixtures on "ABRACADABRA"
  7. threaded/simulated agreement and serialization round-trip

The shared corpus is built once; every criterion reads from it.  Each test
prints exactly one "PASS criterion N" line (visible with pytest -s or -rP;
a failure prints the matching FAIL line before asserting).
"""

from __future__ import annotations

import math
import random

import pytest

from parsuffix import (build_ancestry, build_container, build_layered_index,
                       build_suffix_tree, build_suffix_trie,
                       build_tree_halving_dict, build_trie_halving_dict,
                       dump_container, interleave, load_container, make_text,
                       oracle_scan, par_query_interleaved,
                       par_query_tree2, par_query_trie, probe, run_corpus,
                       seq_query)
from parsuffix.harness import generate_corpus
from parsuffix.interleaved import _sub_len, _truncate, deinterleave_paths
from parsuffix.suffixindex import ROOT, descend
from parsuffix.textmodel import Pattern

from conftest import (ABRA, distinct_substrings, find_exact, find_node,
                      naive_positions, random_text, reported_leaves)

TRIALS = 1000
SEED = 20260823


def emit(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_reports():
    """The shared randomized corpus: every algorithm run against the
    oracle (mismatches raise inside run_corpus), threaded modes included,
    ledger laws checked per case."""
    return run_corpus(TRIALS, SEED, threaded=True)


def test_criterion_1_oracle_equivalence(corpus_reports):
    runs = sum(len(r.runs) for r in corpus_reports)
    mismatches = sum(1 for r in corpus_reports for a in r.runs
                     if a.positions != r.expected)
    ok = len(corpus_reports) >= 1000 and mismatches == 0 and runs > 0
    emit(ok, "criterion 1: oracle equivalence — %d cases, %d algorithm "
             "runs, %d mismatches" % (len(corpus_reports), runs, mismatches))


def test_criterion_2_trie_par_accounting(corpus_reports):
    checked = violations = 0
    for rep in corpus_reports:
        m = min(rep.case.m, rep.case.n)
        for a in rep.runs:
            if not a.name.startswith("trie-par"):
                continue
            p = int(a.name.split("=")[1])
            checked += 1
            if a.positions:          # all lanes completed: exact identity
                if a.ledger.nav_chars != m or a.ledger.probes != p - 1:
                    violations += 1
            elif a.ledger.nav_chars > m or a.ledger.probes > p - 1:
                violations += 1
            if a.span > -(-m // p) + int(math.log2(p)):
                violations += 1
    emit(checked > 0 and violations == 0,
         "criterion 2: trie-par accounting — %d runs, %d violations "
         "(work = m + (p-1) probes, span <= ceil(m/p) + lg p)" %
         (checked, violations))


def test_criterion_3_tree_par2_bounds(corpus_reports):
    checked = violations = 0
    for rep in corpus_reports:
        m = min(rep.case.m, rep.case.n)
        for a in rep.runs:
            if a.name != "tree-par2":
                continue
            checked += 1
            nav_cap = -(-5 * m // 4) + 2
            if a.ledger.nav_chars > nav_cap or a.span > m + 4 or \
                    a.ledger.probes > 2 * m + 2:
                violations += 1
    emit(checked > 0 and violations == 0,
         "criterion 3: tree-par2 bounds — %d runs, %d violations "
         "(nav <= ceil(5m/4)+2, span <= m+4, probes <= 2m+2)" %
         (checked, violations))


def test_criterion_4_interleaved_bounds(corpus_reports):
    # span bound from the shared corpus (found patterns with m >= j)
    span_checked = span_viol = 0
    c_hat = 0.0
    for rep in corpus_reports:
        m = min(rep.case.m, rep.case.n)
        for a in rep.runs:
            if not (a.name.startswith("interleaved") and a.positions):
                continue
            j = int(a.name.split("=")[1])
            if j < 2 or m < j:
                continue
            span_checked += 1
            cap = (m / j) * math.log2(j)
            c_hat = max(c_hat, a.span / cap)
            if a.span > 4 * cap:
                span_viol += 1

    # per-layer probe bound, replaying the merge cascade path by path
    rng = random.Random(SEED + 4)
    probe_checked = probe_viol = 0
    for _ in range(120):
        raw = random_text(rng, rng.randrange(2, 120), rng.choice([1, 2, 4]))
        idx = build_layered_index(raw, 8)
        for _ in range(4):
            m = rng.randrange(1, len(raw) + 1)
            i = rng.randrange(0, len(raw) - m + 1)
            q = raw[i:i + m]
            for j in (2, 4, 8):
                tree = idx.layers[j].tree
                paths = {}
                ok = True
                for lane in range(1, j + 1):
                    path, full = descend(tree, tuple(q[lane - 1::j]))
                    ok = ok and full
                    paths[lane] = path
                if not ok:
                    continue
                k = j
                while k > 1:
                    half = k // 2
                    nxt = {}
                    for lane in range(1, half + 1):
                        merged, probes = deinterleave_paths(
                            paths[lane], paths[lane + half], idx.dicts[k])
                        probe_checked += 1
                        if probes > 2 * (len(paths[lane]) +
                                         len(paths[lane + half])):
                            probe_viol += 1
                        nxt[lane] = _truncate([(ROOT, 0)] + merged,
                                              _sub_len(m, lane, half))
                    paths = nxt
                    k = half
    emit(span_checked > 0 and probe_checked > 0 and span_viol == 0
         and probe_viol == 0,
         "criterion 4: interleaved bounds — %d span checks (max constant "
         "%.2f of allowed 4), %d merge probe checks, %d violations" %
         (span_checked, c_hat, probe_checked, span_viol + probe_viol))


def test_criterion_5_structural_suites():
    rng = random.Random(SEED + 5)
    bad = []

    # trie size bound, equality on all-distinct texts
    for raw in (bytes(range(65, 65 + n)) for n in (1, 3, 7)):
        trie = build_suffix_trie(make_text(raw, 1))
        L = len(raw) + 1
        if len(trie) - 1 != L * (L + 1) // 2:
            bad.append("trie equality on %r" % raw)
    for _ in range(30):
        raw = random_text(rng, rng.randrange(1, 60), rng.choice([1, 2, 4]))
        text = make_text(raw, 1)
        trie = build_suffix_trie(text)
        L = len(text.symbols)
        if len(trie) - 1 > L * (L + 1) // 2:
            bad.append("trie bound on %r" % raw)
        if len(trie) - 1 != len(distinct_substrings(text.symbols)):
            bad.append("trie substring count on %r" % raw)
        tree = build_suffix_tree(text)
        if any(len(tree.children(nid)) == 1 for nid in range(1, len(tree))):
            bad.append("tree compression on %r" % raw)
        if len(build_tree_halving_dict(tree)) != len(tree) - 1:
            bad.append("tree dict completeness on %r" % raw)
        d = build_trie_halving_dict(trie)
        if len(d) != len(trie) - 1:
            bad.append("trie dict completeness on %r" % raw)
        for (a, b), w in d.pairs():
            la, lb = trie.cum[a], trie.cum[b]
            if la not in (lb, lb + 1):
                bad.append("trie dict parity on %r" % raw)
                break

    # layer properties over every built layer
    for _ in range(12):
        raw = random_text(rng, rng.randrange(1, 80), rng.choice([1, 2, 3]))
        idx = build_layered_index(raw, 8)
        n = len(raw)
        for k, layer in idx.layers.items():
            tree = layer.tree
            height = max(tree.cum)
            if height > -(-(n + k) // k):
                bad.append("layer height bound on %r k=%d" % (raw, k))
            if len(reported_leaves(tree, n)) != n:
                bad.append("layer leaf equality on %r k=%d" % (raw, k))
        for upper_k, d in idx.dicts.items():
            low = d.target
            if len(d) != len(low) - 1:
                bad.append("layer dict completeness %r k=%d" % (raw, upper_k))
    emit(not bad, "criterion 5: structural suites — %s" %
         ("all checks clean" if not bad else "; ".join(bad[:4])))


def test_criterion_6_golden_fixtures():
    bad = []
    text2 = make_text(ABRA, 2)
    s1, s2 = interleave(text2.symbols, 2)
    if bytes(s1[:-1]) != b"ARCDBA" or bytes(s2[:-1]) != b"BAAAR":
        bad.append("interleave halves")

    tree = build_suffix_tree(make_text(ABRA, 1))
    if sum(not tree.children(nid) for nid in range(len(tree))) != 12:
        bad.append("tree leaf count")
    if len(tree.children(ROOT)) != 6:
        bad.append("root child count")

    trie = build_suffix_trie(make_text(ABRA, 1))
    trie_dict = build_trie_halving_dict(trie)
    if probe(trie_dict, find_node(trie, "AB"), find_node(trie, "RA")) \
            != find_node(trie, "ABRA"):
        bad.append("trie dict (AB,RA)")

    tree_dict = build_tree_halving_dict(tree)
    if probe(tree_dict, find_node(tree, "A"), find_node(tree, "BRA")) \
            != find_node(tree, "ABRA"):
        bad.append("tree dict (A,BRA)")

    idx = build_layered_index(ABRA, 4)
    up, low = idx.layers[2].tree, idx.layers[1].tree
    w = probe(idx.dicts[2], find_exact(up, tuple(b"A")),
              find_exact(up, tuple(b"BA")))
    if w is None or low.cum[w] != 4:
        bad.append("layer dict (A,BA)")

    pat = Pattern.from_bytes(b"ABRA")
    anc = build_ancestry(tree)
    answers = [seq_query(tree, pat).positions,
               par_query_trie(trie, trie_dict, pat, 2).positions,
               par_query_tree2(tree, anc, tree_dict, pat).positions]
    answers += [par_query_interleaved(idx, pat, j).positions
                for j in (1, 2, 4)]
    if any(a != (1, 8) for a in answers):
        bad.append("ABRA -> {1,8} on all algorithms")
    emit(not bad, "criterion 6: golden fixtures — %s" %
         ("all reproduce" if not bad else "; ".join(bad)))


def test_criterion_7_mode_agreement_and_serialization(corpus_reports):
    # threaded agreement was asserted inside the corpus run (threaded=True
    # compares threaded vs simulated on every run); re-verify it happened
    runs = sum(len(r.runs) for r in corpus_reports)

    rng = random.Random(SEED + 7)
    ser_checked = ser_bad = 0
    for case in generate_corpus(40, SEED + 7, n_hi=200):
        raw, pat = case.materialize()
        expected = oracle_scan(raw, pat)
        tree_c = load_container(dump_container(
            build_container(raw, "tree")))
        ilv_c = load_container(dump_container(
            build_container(raw, "interleaved", 4)))
        got = [seq_query(tree_c.index, pat).positions,
               par_query_interleaved(ilv_c.layered, pat, 4).positions]
        if pat.m >= 2:
            got.append(par_query_tree2(tree_c.index,
                                       build_ancestry(tree_c.index),
                                       tree_c.dct, pat).positions)
        if len(raw) <= 200:
            trie_c = load_container(dump_container(
                build_container(raw, "trie")))
            for p in (2, 4):
                if p < 2 * pat.m:
                    got.append(par_query_trie(trie_c.index, trie_c.dct,
                                              pat, p).positions)
        ser_checked += len(got)
        ser_bad += sum(1 for g in got if g != expected)
    emit(runs > 0 and ser_checked > 0 and ser_bad == 0,
         "criterion 7: mode agreement (%d threaded-checked runs) and "
         "serialization round-trip (%d loaded-index queries, %d wrong)" %
         (runs, ser_checked, ser_bad))
