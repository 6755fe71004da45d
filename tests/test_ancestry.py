"""Suffix links, binary lifting, and the shorten operation."""

import gc
import random
import weakref

import pytest

import parsuffix.ancestry as ancestry
from parsuffix import (ROOT, build_ancestry, build_suffix_tree,
                       build_tree_halving_dict, make_text)
from parsuffix.ancestry import AncestryError, level_ancestor_sl, shorten

from conftest import ABRA, find_node, random_text


def naive_links(anc, nid, steps):
    for _ in range(steps):
        nid = anc.suffix_link[nid]
    return nid


def test_suffix_links_golden(abra_tree, abra_anc):
    assert abra_anc.suffix_link[find_node(abra_tree, "ABRA")] == \
        find_node(abra_tree, "BRA")
    assert abra_anc.suffix_link[find_node(abra_tree, "BRA")] == \
        find_node(abra_tree, "RA")
    assert abra_anc.suffix_link[find_node(abra_tree, "A")] == ROOT
    assert abra_anc.suffix_link[ROOT] == ROOT


def test_link_removes_one_leading_char(abra_tree, abra_anc):
    for nid in range(1, len(abra_tree.nodes)):
        tgt = abra_anc.suffix_link[nid]
        assert abra_tree.nodes[tgt].cum == abra_tree.nodes[nid].cum - 1
        spelled = abra_tree.spelling(nid)[1:]
        r = abra_tree.nodes[tgt].leftmost_leaf_ref
        assert abra_tree.data[r - 1: r - 1 + len(spelled)] == spelled


def test_depth_equals_cum(abra_tree, abra_anc):
    for nid in range(len(abra_tree.nodes)):
        assert abra_anc.depth(nid) == abra_tree.nodes[nid].cum


def test_level_ancestor_matches_naive_walk():
    rng = random.Random(5)
    for _ in range(20):
        raw = random_text(rng, rng.randrange(2, 60), rng.choice([1, 2, 3]))
        tree = build_suffix_tree(make_text(raw, 1))
        anc = build_ancestry(tree)
        for nid in range(len(tree.nodes)):
            depth = tree.nodes[nid].cum
            for d in range(depth + 1):
                assert level_ancestor_sl(anc, nid, d) == \
                    naive_links(anc, nid, d)


def test_shorten_golden(abra_tree, abra_anc):
    # removing 2 chars from ABRA and asking for >= 1 remaining: the "RA"
    # node (shallowest with cum >= 1 on the RA path, since "R" alone has
    # no node)
    got = shorten(abra_anc, find_node(abra_tree, "ABRA"), 2, 1)
    assert got == find_node(abra_tree, "RA")


def test_shorten_overdeep_raises(abra_tree, abra_anc):
    with pytest.raises(AncestryError):
        level_ancestor_sl(abra_anc, find_node(abra_tree, "A"), 5)


def test_ancestry_built_once_per_tree(monkeypatch):
    """The tree halving dictionary shares the ancestry built before it,
    so a stack computes suffix links once per tree."""
    calls = []
    links = ancestry.suffix_links
    monkeypatch.setattr(ancestry, "suffix_links",
                        lambda tree: calls.append(tree) or links(tree))
    tree = build_suffix_tree(make_text(ABRA, 1))
    anc = build_ancestry(tree)
    assert build_ancestry(tree) is anc
    build_tree_halving_dict(tree)
    assert calls == [tree]


def test_dropped_tree_is_freed_without_the_collector():
    """The tree holds its ancestry, so the ancestry must not hold the
    tree: with that cycle every dropped tree stayed alive until a full
    collection, which raised peak memory in long runs."""
    tree = build_suffix_tree(make_text(ABRA, 1))
    build_ancestry(tree)
    ref = weakref.ref(tree)
    gc.disable()
    try:
        del tree
        assert ref() is None
    finally:
        gc.enable()
