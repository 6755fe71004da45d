"""Suffix links, binary lifting, and the shorten operation."""

import random

import pytest

from parsuffix import ROOT, build_ancestry, build_suffix_tree, make_text
from parsuffix.ancestry import AncestryError, level_ancestor_sl, shorten

from conftest import find_node, random_text


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
