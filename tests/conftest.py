"""Shared fixtures: the ABRACADABRA reference indexes, naive oracles and
node lookups by label."""

from __future__ import annotations

import random

import pytest

from parsuffix import (build_ancestry, build_layered_index, build_suffix_tree,
                       build_suffix_trie, build_tree_halving_dict,
                       build_trie_halving_dict, make_text, navigate)

ABRA = b"ABRACADABRA"


def find_exact(index, chars):
    """The node whose longest corresponding substring is exactly ``chars``,
    or None.  Compares every character, not just discriminators."""
    want = tuple(chars)
    node, cum, covered = navigate(index, want)
    if not covered or cum != len(want) or index.spelling(node) != want:
        return None
    return node


def find_node(index, label: str):
    """Node for an ASCII label, raising if absent."""
    nid = find_exact(index, tuple(label.encode()))
    if nid is None:
        raise KeyError("no node for %r" % label)
    return nid


def suffix_of(index, nid):
    """The 1-based data position of a leaf's suffix, or of an inner node's
    leftmost one: the first of its range of the suffix array."""
    return index.sa[index.leaf_lo[nid]]


def reported_leaves(index, n):
    """The leaves whose suffix starts with one of the text's n symbols,
    not with a delimiter."""
    return [nid for nid in range(len(index)) if not index.children(nid)
            and index.data_pos_to_text_pos(suffix_of(index, nid)) <= n]


def naive_positions(raw: bytes, pat: bytes) -> tuple[int, ...]:
    """All 1-based occurrence positions, overlapping included."""
    m = len(pat)
    return tuple(i + 1 for i in range(len(raw) - m + 1)
                 if raw[i:i + m] == pat)


def distinct_substrings(symbols) -> set:
    """Brute-force set of all nonempty substrings of a symbol sequence."""
    seq = tuple(symbols)
    return {seq[i:j] for i in range(len(seq))
            for j in range(i + 1, len(seq) + 1)}


def random_text(rng: random.Random, n: int, sigma: int) -> bytes:
    return bytes(rng.randrange(97, 97 + sigma) for _ in range(n))


def fibonacci_text(n: int) -> bytes:
    prev, cur = b"a", b"ab"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def periodic_text(rng: random.Random, n: int, period: int) -> bytes:
    block = bytes(rng.sample(range(97, 97 + 26), period))
    return (block * (n // period + 1))[:n]


@pytest.fixture(scope="session")
def abra_text():
    return make_text(ABRA, 1)


@pytest.fixture(scope="session")
def abra_tree(abra_text):
    return build_suffix_tree(abra_text)


@pytest.fixture(scope="session")
def abra_trie(abra_text):
    return build_suffix_trie(abra_text)


@pytest.fixture(scope="session")
def abra_tree_dict(abra_tree):
    return build_tree_halving_dict(abra_tree)


@pytest.fixture(scope="session")
def abra_trie_dict(abra_trie):
    return build_trie_halving_dict(abra_trie)


@pytest.fixture(scope="session")
def abra_anc(abra_tree):
    return build_ancestry(abra_tree)


@pytest.fixture(scope="session")
def abra_layers():
    return build_layered_index(ABRA, 8)
