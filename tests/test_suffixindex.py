"""Suffix trie/tree construction, navigation, and reporting."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsuffix import (ROOT, build_ancestry, build_container,
                       build_suffix_tree, build_suffix_trie,
                       build_tree_halving_dict, descend,
                       dump_container, load_container, make_text, navigate,
                       occurrences, verify_against_text)
from parsuffix.interleaved import build_layer
from parsuffix.serial import Container
from parsuffix.suffixindex import NO_SYM, SuffixIndex
from parsuffix.textmodel import DELIMITER_BASE, Pattern, interleave

from conftest import (ABRA, distinct_substrings, find_exact, find_node,
                      naive_positions, random_text)


def test_trie_node_count_small():
    # "AB$": root + {A, AB, AB$, B, B$, $}
    trie = build_suffix_trie(make_text(b"AB", 1))
    assert len(trie) == 7
    trie = build_suffix_trie(make_text(b"", 1))
    assert len(trie) == 2       # root + delimiter leaf


def test_trie_counts_distinct_substrings(abra_text, abra_trie):
    assert len(abra_trie) == 1 + len(distinct_substrings(
        abra_text.symbols))
    assert all(skip == 1 for skip in abra_trie.skip[1:])


def test_tree_golden_shape(abra_tree):
    leaves = [nid for nid in range(len(abra_tree))
              if not abra_tree.children(nid)]
    assert len(leaves) == 12
    assert len(abra_tree.children(ROOT)) == 6
    internal = [nid for nid in range(1, len(abra_tree))
                if abra_tree.children(nid)]
    labels = {bytes(abra_tree.data[abra_tree.leftmost_leaf_ref[n] - 1:
                                   abra_tree.leftmost_leaf_ref[n] - 1 +
                                   abra_tree.cum[n]])
              for n in internal}
    assert labels == {b"A", b"ABRA", b"BRA", b"RA"}
    assert len(abra_tree) == 17


def test_tree_unary_chain():
    tree = build_suffix_tree(make_text(b"AAAA", 1))
    leaves = sum(not tree.children(nid) for nid in range(len(tree)))
    assert leaves == 5
    internal = [nid for nid in range(1, len(tree)) if tree.children(nid)]
    assert sorted(tree.cum[nid] for nid in internal) == [1, 2, 3]
    assert all(len(tree.children(nid)) == 2 for nid in internal)


def test_tree_single_symbol():
    tree = build_suffix_tree(make_text(b"", 1))
    assert len(tree) == 2


def test_navigate_golden(abra_tree):
    node, _, covered = navigate(abra_tree, b"ABRA")
    assert covered
    assert abra_tree.cum[node] == 4
    assert occurrences(abra_tree, node) == [1, 8]

    node, _, covered = navigate(abra_tree, b"ABRAC")
    assert covered
    assert abra_tree.cum[node] == 12     # leaf overshoot
    assert occurrences(abra_tree, node) == [1]

    # patricia semantics: "ABX" blind-matches to the ABRA node (X is never
    # a discriminator); terminal verification rejects it
    node, _, covered = navigate(abra_tree, b"ABX")
    assert covered
    assert not verify_against_text(abra_tree, node,
                                   Pattern.from_bytes(b"ABX"))

    _, _, covered = navigate(abra_tree, b"XAB")
    assert not covered


def test_record_path_layer2_goldens():
    layer = build_layer(ABRA, 2).tree
    path, _ = descend(layer, b"AR")
    assert [cum for _, cum in path] == [0, 1, 2]
    path, _ = descend(layer, b"BA")
    assert [cum for _, cum in path] == [0, 2]


def test_occurrences_golden(abra_tree):
    assert occurrences(abra_tree, find_node(abra_tree, "A")) == [1, 4, 6, 8, 11]
    assert occurrences(abra_tree, ROOT) == list(range(1, 12))


def test_verify_against_text(abra_tree):
    node = find_node(abra_tree, "ABRA")
    assert verify_against_text(abra_tree, node, Pattern.from_bytes(b"ABRA"))
    assert not verify_against_text(abra_tree, node,
                                   Pattern.from_bytes(b"ABRZ"))


def test_suffix_completeness(abra_tree, abra_trie):
    """Navigating with any full suffix reaches a leaf carrying its start."""
    for index in (abra_tree, abra_trie):
        for i in range(1, len(ABRA) + 1):
            node = find_exact(index, index.data[i - 1:])
            assert node is not None and index.ref[node] == i


def test_label_soundness(abra_tree):
    for nid in range(len(abra_tree)):
        r = abra_tree.leftmost_leaf_ref[nid]
        spelled = abra_tree.data[r - 1: r - 1 + abra_tree.cum[nid]]
        walked = find_exact(abra_tree, spelled)
        assert walked == nid or abra_tree.cum[nid] == 0


def test_tree_compression_property():
    rng = random.Random(11)
    for _ in range(25):
        raw = random_text(rng, rng.randrange(1, 80), rng.choice([1, 2, 4]))
        tree = build_suffix_tree(make_text(raw, 1))
        kids = [tree.children(nid) for nid in range(len(tree))]
        for k in kids[1:]:
            assert not k or len(k) >= 2
        assert sum(not k for k in kids) == len(raw) + 1


def test_generalized_tree_leaf_positions():
    layer = build_layer(ABRA, 4).tree
    subs = interleave(make_text(ABRA, 4).symbols, 4)
    assert sum(not layer.children(nid) for nid in range(len(layer))) == \
        sum(len(s) for s in subs)
    for nid, ref in enumerate(layer.ref):
        if not layer.children(nid) and ref:
            pos = layer.data_pos_to_text_pos(ref)
            # leaf of subsequence i starts at text position ≡ i (mod 4)
            assert 1 <= pos <= len(make_text(ABRA, 4).symbols)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_data_is_the_interleaved_subsequences(k):
    """A text with k delimiters is laid out as its k interleaved
    subsequences end to end, ``seq_starts`` marking where each begins."""
    for raw in (ABRA, random_text(random.Random(k), 97, 4)):
        text = make_text(raw, k)
        tree = build_suffix_tree(text)
        data, starts = [], []
        for sub in interleave(text.symbols, k):
            starts.append(len(data) + 1)
            data.extend(sub)
        assert tree.data == tuple(data)
        assert tree.seq_starts == tuple(starts)
        assert tree.stride == k


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=40),
       st.binary(min_size=1, max_size=6))
def test_sequential_equivalence_hypothesis(raw, pat):
    tree = build_suffix_tree(make_text(raw, 1))
    node, _, covered = navigate(tree, pat)
    got = ()
    if covered and verify_against_text(tree, node, Pattern.from_bytes(pat)):
        got = tuple(occurrences(tree, node))
    assert got == naive_positions(raw, pat)


def test_symbols_must_fit_the_table():
    """Symbols are 16-bit with one value kept for a leaf's ``fsym``: a
    text with that many delimiters is refused before anything is built."""
    SuffixIndex(make_text(b"a", NO_SYM - DELIMITER_BASE - 1), "tree")
    with pytest.raises(ValueError, match="delimiters"):
        SuffixIndex(make_text(b"a", NO_SYM - DELIMITER_BASE), "tree")


def test_navigate_rejects_empty_pattern(abra_tree):
    with pytest.raises(ValueError):
        Pattern.from_bytes(b"")


def test_index_holds_a_few_collector_objects():
    """The node store is a few arrays, which CPython's collector does
    not track: building a tree with its ancestry and halving dictionary,
    and loading its container, each leave a handful of tracked objects,
    not one per node (a tree of 4000 chars has about 8000 nodes)."""
    raw = random_text(random.Random(4), 4000, 2)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tree = build_suffix_tree(make_text(raw, 1))
        build_ancestry(tree)
        dct = build_tree_halving_dict(tree)
        built = len(gc.get_objects()) - before
        blob = dump_container(Container("tree", raw, 1, tree, dct))
        before = len(gc.get_objects())
        loaded = load_container(blob)
        loaded_objects = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tree) > 7000 and len(loaded.index) == len(tree)
    assert built < 100 and loaded_objects < 100, (built, loaded_objects)


def _traced_bytes(make):
    """What ``make()`` returns, and the bytes allocated while it ran that
    are still held when it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        obj = make()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return obj, held


def test_index_holds_no_per_node_maps():
    """A finished index is a few arrays, 38 to 47 B per node here: a
    child map per node would cost 64 B or more each (this trie held
    287 B per node with them, this loaded tree 187)."""
    raw = random_text(random.Random(4), 200, 2)
    trie, held = _traced_bytes(lambda: build_suffix_trie(make_text(raw, 1)))
    assert len(trie) > 15000
    assert held / len(trie) < 64, held / len(trie)

    raw = random_text(random.Random(4), 4000, 2)
    blob = dump_container(build_container(raw, "tree"))

    def load_index():
        cont = load_container(blob)
        return cont.index        # the dictionary is freed on return

    tree, held = _traced_bytes(load_index)
    assert len(tree) > 7000
    assert held / len(tree) < 64, held / len(tree)
