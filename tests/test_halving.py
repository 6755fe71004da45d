"""Halving-pair dictionaries for tries and patricia trees."""

import random

import pytest

from parsuffix import (ROOT, build_suffix_tree, build_suffix_trie,
                       build_tree_halving_dict, build_trie_halving_dict,
                       make_text, probe)
from parsuffix.halving import PairDict, PairDictError
from parsuffix.suffixindex import NO_PARENT

from conftest import find_node, random_text


def test_trie_dict_golden(abra_trie, abra_trie_dict):
    ab, ra = find_node(abra_trie, "AB"), find_node(abra_trie, "RA")
    assert probe(abra_trie_dict, ab, ra) == find_node(abra_trie, "ABRA")
    assert probe(abra_trie_dict, ra, ab) is None


def test_trie_dict_one_entry_per_node(abra_trie, abra_trie_dict):
    assert len(abra_trie_dict) == len(abra_trie) - 1


def test_trie_dict_parity(abra_trie, abra_trie_dict):
    """Halving split: left half length in {right, right + 1}."""
    for (a, b), w in abra_trie_dict.pairs():
        la = abra_trie.cum[a]
        lb = abra_trie.cum[b]
        assert la + lb == abra_trie.cum[w]
        assert la in (lb, lb + 1)


def test_tree_dict_golden(abra_tree, abra_tree_dict):
    a, bra = find_node(abra_tree, "A"), find_node(abra_tree, "BRA")
    assert probe(abra_tree_dict, a, bra) == find_node(abra_tree, "ABRA")


def test_tree_dict_one_entry_per_node(abra_tree, abra_tree_dict):
    assert len(abra_tree_dict) == len(abra_tree) - 1


def test_tree_dict_pairs_cover_shortest_string():
    """Stored split: b1 is the shallowest ancestor-or-self covering half
    the node's shortest string; b2 covers the remainder (root if none)."""
    rng = random.Random(9)
    for _ in range(20):
        raw = random_text(rng, rng.randrange(2, 70), rng.choice([1, 2, 3]))
        tree = build_suffix_tree(make_text(raw, 1))
        d = build_tree_halving_dict(tree)
        stored = {w: (a, b) for (a, b), w in d.pairs()}
        for nid in range(1, len(tree)):
            a, b = stored[nid]
            short_len = tree.shortest_len(nid)
            half = (short_len + 1) // 2
            assert tree.cum[a] >= half
            parent = tree.parent[a]
            assert parent == NO_PARENT or tree.cum[parent] < half
            if tree.cum[a] >= short_len:
                assert b == ROOT
            else:
                assert tree.cum[b] >= short_len - tree.cum[a]


def test_collision_detection(abra_trie):
    d = PairDict(owner=abra_trie, target=abra_trie)
    d.add(1, 2, 3)
    d.add(1, 2, 3)          # idempotent re-add is fine
    with pytest.raises(PairDictError):
        d.add(1, 2, 4)


def test_trie_dict_probes_reconstruct_every_node():
    rng = random.Random(21)
    for _ in range(10):
        raw = random_text(rng, rng.randrange(2, 40), rng.choice([1, 2, 4]))
        trie = build_suffix_trie(make_text(raw, 1))
        d = build_trie_halving_dict(trie)
        hit = {w for w in d.entries.values()}
        assert hit == set(range(1, len(trie)))
