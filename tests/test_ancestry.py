"""Suffix links, binary lifting, and shortening by level ancestors."""

import gc
import random
import weakref

import pytest

import parsuffix.ancestry as ancestry
from parsuffix import (ROOT, build_ancestry, build_container,
                       build_suffix_tree, build_tree_halving_dict,
                       dump_container, load_container, make_text)
from parsuffix.ancestry import AncestryError, level_ancestor_sl

from conftest import ABRA, find_node, random_text
from test_construction import IDS, TEXTS


def naive_links(anc, nid, steps):
    for _ in range(steps):
        nid = anc.jump[0][nid]
    return nid


def test_suffix_links_golden(abra_tree, abra_anc):
    assert abra_anc.jump[0][find_node(abra_tree, "ABRA")] == \
        find_node(abra_tree, "BRA")
    assert abra_anc.jump[0][find_node(abra_tree, "BRA")] == \
        find_node(abra_tree, "RA")
    assert abra_anc.jump[0][find_node(abra_tree, "A")] == ROOT
    assert abra_anc.jump[0][ROOT] == ROOT


def test_link_removes_one_leading_char(abra_tree, abra_anc):
    for nid in range(1, len(abra_tree)):
        tgt = abra_anc.jump[0][nid]
        assert abra_tree.cum[tgt] == abra_tree.cum[nid] - 1
        spelled = abra_tree.spelling(nid)[1:]
        r = abra_tree.leftmost_leaf_ref[tgt]
        assert abra_tree.data[r - 1: r - 1 + len(spelled)] == spelled


def test_depth_equals_cum(abra_tree, abra_anc):
    for nid in range(len(abra_tree)):
        assert abra_anc.cum[nid] == abra_tree.cum[nid]


def test_level_ancestor_matches_naive_walk():
    rng = random.Random(5)
    for _ in range(20):
        raw = random_text(rng, rng.randrange(2, 60), rng.choice([1, 2, 3]))
        tree = build_suffix_tree(make_text(raw, 1))
        anc = build_ancestry(tree)
        for nid in range(len(tree)):
            depth = tree.cum[nid]
            for d in range(depth + 1):
                assert level_ancestor_sl(anc, nid, d) == \
                    naive_links(anc, nid, d)


def test_shorten_golden(abra_tree, abra_anc):
    # removing 2 chars from ABRA: the "RA" node
    got = level_ancestor_sl(abra_anc, find_node(abra_tree, "ABRA"), 2)
    assert got == find_node(abra_tree, "RA")


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_level_ancestor_of_internal_node_is_internal(raw, loaded):
    """What keeps tree-par2's lane 2 on a node: removing d < cum(v)
    symbols from an internal node v lands on an internal node of cum
    exactly cum(v) - d, never inside an edge."""
    cont = build_container(raw, "tree")
    tree = load_container(dump_container(cont)).index if loaded \
        else cont.index
    anc = build_ancestry(tree)
    for nid in range(len(tree)):
        if not tree.children(nid):
            continue
        for d in range(1, tree.cum[nid]):
            got = level_ancestor_sl(anc, nid, d)
            assert tree.children(got) and \
                tree.cum[got] == tree.cum[nid] - d, (nid, d)


def test_relabelled_edge_has_no_suffix_link():
    """abab's tree with the root's edge for 'b' relabelled 'c' (the edit
    the loader now rejects in a container): "ab" has no link target."""
    tree = build_suffix_tree(make_text(b"abab", 1))
    tree.csym[tree.csym.index(ord("b"), tree.cstart[ROOT],
                              tree.cstart[ROOT + 1])] = ord("c")
    with pytest.raises(AncestryError, match="suffix link"):
        build_ancestry(tree)


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
