"""The suffix array builders and the suffix-link based dictionaries
against the root-walk oracle in ``naive_oracle``: same nodes, same ids,
same bytes."""

import itertools
import random
import time

import pytest

from parsuffix import (build_ancestry, build_container, build_layered_index,
                       build_suffix_tree, build_suffix_trie,
                       build_tree_halving_dict, build_trie_halving_dict,
                       dump_container, load_container, make_text, occurrences)
from parsuffix.ancestry import level_ancestor_sl
from parsuffix.serial import Container
from parsuffix.suffixindex import ROOT, descend, navigate

from conftest import fibonacci_text, periodic_text, random_text
from naive_oracle import (naive_layered_index, naive_occurrences,
                          naive_suffix_links, naive_suffix_tree,
                          naive_suffix_trie, naive_suffixes, naive_trie_dict,
                          naive_tree_dict, walk_values)

N = 300
TRIE_N = 100          # the trie oracle is cubic in the text length


def _texts():
    rng = random.Random(17)
    out = [("unary", b"a" * N), ("fibonacci", fibonacci_text(N)),
           ("periodic-7", periodic_text(rng, N, 7)), ("empty", b""),
           ("single", b"x")]
    for sigma in (1, 2, 4):
        for i in range(3):
            out.append(("random-s%d-%d" % (sigma, i),
                        random_text(rng, rng.randrange(1, N + 1), sigma)))
    return out


TEXTS = _texts()
IDS = [name for name, _ in TEXTS]


def suffix_links(tree):
    """Each node's suffix link, the root linking to itself: a shorten by
    one symbol."""
    anc = build_ancestry(tree)
    return [ROOT] + [level_ancestor_sl(anc, nid, 1)
                     for nid in range(1, len(tree))]


def assert_same_nodes(got, want):
    """Same parents and children, node by node, and each edge's length
    and each leaf's suffix, read from ``got``'s suffix array, as the
    oracle's walk finds them."""
    assert len(got) == len(want)
    for nid in range(len(got)):
        assert (got.parent[nid], got.children(nid)) == \
            (want.parent[nid], want.children(nid)), "node %d" % nid
    values = walk_values(got)
    assert (values.edge, values.suffix) == (want.walk.edge, want.walk.suffix)


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_tree_matches_oracle(raw):
    tree = build_suffix_tree(make_text(raw, 1))
    oracle = naive_suffix_tree(make_text(raw, 1))
    assert_same_nodes(tree, oracle)
    assert suffix_links(tree) == naive_suffix_links(oracle)
    want_dict = naive_tree_dict(oracle)
    assert build_tree_halving_dict(tree).entries == want_dict.entries
    assert dump_container(build_container(raw, "tree")) == \
        dump_container(Container("tree", raw, 1, oracle, want_dict))


# every binary text with 0 to 8 symbols: 511 texts
SHORT_BINARY = [bytes(t) for n in range(9)
                for t in itertools.product(b"ab", repeat=n)]
COLUMNS = ("parent", "cum", "sym", "fsym", "cstart", "cid", "csym", "leaf_lo",
           "leaf_hi", "sa")


def assert_same_index(got, want):
    """Every column, and what ``got`` reads from its suffix array through
    them against the oracle walk's own values: each edge's length, each
    node's leftmost suffix and each leaf's suffix."""
    for column in COLUMNS:
        assert getattr(got, column) == getattr(want, column), column
    assert walk_values(got) == want.walk


@pytest.mark.parametrize("k", [1, 2, 4])
def test_builders_match_oracle_on_every_short_binary_text(k):
    """Every column of both builders, against the oracle's own insertion
    and preorder walk.  The empty text (the root's interval is one
    place), leaves that end at their own subsequence's delimiter, and
    delimiter symbols (256 + k) far above the data's length all occur."""
    for raw in SHORT_BINARY:
        text = make_text(raw, k)
        assert_same_index(build_suffix_tree(text), naive_suffix_tree(text))
        assert_same_index(build_suffix_trie(text), naive_suffix_trie(text))


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_trie_matches_oracle(raw):
    text = make_text(raw[:TRIE_N], 1)
    assert_same_index(build_suffix_trie(text), naive_suffix_trie(text))


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_trie_dict_matches_oracle(raw):
    trie = build_suffix_trie(make_text(raw[:TRIE_N], 1))
    assert build_trie_halving_dict(trie).entries == \
        naive_trie_dict(trie).entries


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS if raw],
                         ids=[name for name, raw in TEXTS if raw])
def test_layers_match_oracle(raw):
    got = build_layered_index(raw, 8)
    want = naive_layered_index(raw, 8)
    for k in (1, 2, 4, 8):
        tree = got.layers[k].tree
        assert_same_nodes(tree, want.layers[k].tree)
        assert suffix_links(tree) == naive_suffix_links(want.layers[k].tree)
    for k in (2, 4, 8):
        assert got.dicts[k].entries == want.dicts[k].entries
    assert dump_container(Container("interleaved", raw, 8, layered=got)) == \
        dump_container(Container("interleaved", raw, 8, layered=want))


def assert_finalized(index, n):
    """The derived columns, node by node: children in symbol order (each
    child's own edge symbol and parent agreeing), the range starting at
    the leftmost leaf, and the range against the subtree walk: text
    positions on a stride-1 index, data positions on the others."""
    lo, hi, sa = index.leaf_lo, index.leaf_hi, index.sa
    assert sorted(map(index.data_pos_to_text_pos, sa[lo[ROOT]:hi[ROOT]])) == \
        list(range(1, n + 1))
    tail = leaves = 0
    for nid in range(len(index)):
        children = index.children(nid)
        assert [c for c, _ in children] == sorted(c for c, _ in children)
        assert all(index.sym[child] == c and index.parent[child] == nid
                   for c, child in children), nid
        first = nid
        while index.children(first):
            first = index.children(first)[0][1]
        assert lo[nid] == lo[first], nid
        if index.stride == 1:
            assert occurrences(index, nid) == \
                naive_occurrences(index, nid), nid
        else:
            assert sorted(sa[lo[nid]:hi[nid]]) == \
                naive_suffixes(index, nid), nid
        for _, child in children:
            assert lo[nid] <= lo[child] <= hi[child], (nid, child)
            # a delimiter leaf's empty range sits past the root's
            assert hi[child] <= hi[nid] or lo[child] == hi[child], \
                (nid, child)
        if not children:
            assert lo[nid] == leaves, nid           # the leaf's place in sa
            leaves += 1
            if index.data_pos_to_text_pos(sa[lo[nid]]) > n:
                assert lo[nid] == hi[nid], nid      # a delimiter leaf
                tail += 1
    assert tail == len(index.data) - n


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_reporting_range_matches_subtree_walk(raw):
    conts = [build_container(raw, "tree"), build_container(raw[:TRIE_N], "trie")]
    for cont in conts + [load_container(dump_container(c)) for c in conts]:
        assert_finalized(cont.index, len(cont.raw))
    if raw:
        built = Container("interleaved", raw, 4,
                          layered=build_layered_index(raw, 4))
        for cont in (built, load_container(dump_container(built))):
            for k in (1, 2, 4):
                assert_finalized(cont.layered.layers[k].tree, len(raw))


@pytest.mark.parametrize("raw", [raw for _, raw in TEXTS], ids=IDS)
def test_lookup_at_a_leaf_finds_nothing(raw):
    """At a leaf the next id is not a child, and the leaf's empty range
    of the child table starts at a later node's entries: every lookup
    there must fail, for every symbol of the data, in the method and in
    the inlined descents."""
    conts = [build_container(raw, "tree"), build_container(raw[:TRIE_N], "trie")]
    if raw:
        conts.append(Container("interleaved", raw, 4,
                               layered=build_layered_index(raw, 4)))
    for cont in conts + [load_container(dump_container(c)) for c in conts]:
        for index in cont.blocks()[0]:
            symbols = set(index.data)
            for leaf in range(len(index)):
                if index.children(leaf):
                    continue
                spelling = index.spelling(leaf)
                for c in symbols:
                    assert index.child(leaf, c) is None, (leaf, c)
                    walk = spelling + (c,)
                    assert navigate(index, walk) == \
                        (leaf, len(spelling), False), (leaf, c)
                    path, covered = descend(index, walk)
                    assert path[-1] == (leaf, len(spelling)) and \
                        not covered, (leaf, c)


def test_unary_stack_builds_in_linear_time():
    """Root walks made this stack quadratic: about 15 s at n=4000."""
    raw = b"a" * 4000
    t0 = time.perf_counter()
    tree = build_suffix_tree(make_text(raw, 1))
    build_ancestry(tree)
    build_tree_halving_dict(tree)
    build_layered_index(raw, 4)
    assert time.perf_counter() - t0 < 3.0
