"""Suffix links and shortening by level ancestors on jump pointers."""

import gc
import random
import tracemalloc
import weakref

import pytest

import parsuffix.ancestry as ancestry
from parsuffix import (ROOT, build_ancestry, build_container,
                       build_suffix_tree, build_tree_halving_dict,
                       dump_container, load_container, make_text)
from parsuffix.ancestry import AncestryError, level_ancestor_sl

from conftest import ABRA, find_node, random_text
from naive_oracle import naive_suffix_links, naive_suffix_tree
from test_construction import IDS, SHORT_BINARY, TEXTS


def naive_links(anc, nid, steps):
    for _ in range(steps):
        nid = level_ancestor_sl(anc, nid, 1)
    return nid


def test_suffix_links_golden(abra_tree, abra_anc):
    assert level_ancestor_sl(abra_anc, find_node(abra_tree, "ABRA"), 1) == \
        find_node(abra_tree, "BRA")
    assert level_ancestor_sl(abra_anc, find_node(abra_tree, "BRA"), 1) == \
        find_node(abra_tree, "RA")
    assert level_ancestor_sl(abra_anc, find_node(abra_tree, "A"), 1) == ROOT
    assert level_ancestor_sl(abra_anc, ROOT, 0) == ROOT


def test_link_removes_one_leading_char(abra_tree, abra_anc):
    for nid in range(1, len(abra_tree)):
        tgt = level_ancestor_sl(abra_anc, nid, 1)
        assert abra_tree.cum[tgt] == abra_tree.cum[nid] - 1
        assert abra_tree.spelling(tgt) == abra_tree.spelling(nid)[1:]


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


def assert_shortens_like_oracle(tree, oracle):
    """Every shorten of every node, d = 0 to cum(v), against d steps of
    the oracle's suffix links (the two trees share their node ids)."""
    links = naive_suffix_links(oracle)
    anc = build_ancestry(tree)
    for nid in range(len(tree)):
        want = nid
        for d in range(tree.cum[nid] + 1):
            assert level_ancestor_sl(anc, nid, d) == want, (nid, d)
            want = links[want]


def test_level_ancestor_on_every_short_binary_text():
    for raw in SHORT_BINARY:
        text = make_text(raw, 1)
        assert_shortens_like_oracle(build_suffix_tree(text),
                                    naive_suffix_tree(text))


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_level_ancestor_matches_oracle_links(raw, loaded):
    cont = build_container(raw, "tree")
    tree = load_container(dump_container(cont)).index if loaded \
        else cont.index
    assert_shortens_like_oracle(tree, naive_suffix_tree(make_text(raw, 1)))


def test_ancestry_is_linear_in_size():
    """Beyond the tree's own columns the ancestry holds one jump pointer
    per node and one leaf per data position, 4 B each: the binary lifting
    tables it replaced held 4 B per node per level, 14 levels here."""
    raw = random_text(random.Random(4), 8000, 2)
    tree = build_suffix_tree(make_text(raw, 1))
    gc.collect()
    tracemalloc.start()
    try:
        anc = build_ancestry(tree)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(getattr(anc, col) is getattr(tree, col)
               for col in ("cum", "parent", "sa", "leaf_hi"))
    assert held <= 4 * len(tree) + 4 * len(tree.data) + 1024, \
        (held, len(tree), len(tree.data))


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


def test_edited_depth_is_not_a_suffix_tree():
    """abab's tree with node "b"'s cum edited from 1 to 2: no node on the
    climb from suffix "b"'s leaf stands at depth 1, so shortening "ab" by
    one symbol has no answer."""
    tree = build_suffix_tree(make_text(b"abab", 1))
    ab, b = find_node(tree, "ab"), find_node(tree, "b")
    tree.cum[b] = 2
    with pytest.raises(AncestryError, match="not a suffix tree"):
        level_ancestor_sl(build_ancestry(tree), ab, 1)


def test_shorten_overdeep_raises(abra_tree, abra_anc):
    with pytest.raises(AncestryError):
        level_ancestor_sl(abra_anc, find_node(abra_tree, "A"), 5)


def test_ancestry_built_once_per_tree(monkeypatch):
    """The tree halving dictionary shares the ancestry built before it,
    so a stack builds its jump pointers once per tree."""
    calls = []
    index = ancestry.AncestryIndex
    monkeypatch.setattr(ancestry, "AncestryIndex",
                        lambda *cols: calls.append(cols) or index(*cols))
    tree = build_suffix_tree(make_text(ABRA, 1))
    anc = build_ancestry(tree)
    assert build_ancestry(tree) is anc
    build_tree_halving_dict(tree)
    assert len(calls) == 1


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
