"""Dictionaries mapping a halving pair of nodes to their concatenation.

The trie dictionary stores, for every non-root node, the unique pair that
splits its string at the midpoint (left half one longer for odd lengths).
The suffix-tree dictionary stores the pair for each node's *shortest*
corresponding string, split at the shallowest existing node covering at
least half of it; this keeps one entry per node despite path compression.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .ancestry import build_ancestry, level_ancestor_sl
from .suffixindex import ROOT, NodeId, SuffixIndex


class PairDictError(Exception):
    pass


@dataclass
class PairDict:
    """Associative map (NodeId, NodeId) -> NodeId with an owner guard.

    Realized as a hash map with constant expected probe time; probes are
    charged one step regardless of the backing structure.  ``target`` is
    the index the mapped values live in (the owner itself for halving
    dictionaries, the next layer down for layer dictionaries).
    """

    owner: SuffixIndex
    target: SuffixIndex
    entries: dict[tuple[NodeId, NodeId], NodeId] = field(default_factory=dict)

    def add(self, a: NodeId, b: NodeId, w: NodeId) -> None:
        key = (a, b)
        if key in self.entries and self.entries[key] != w:
            raise PairDictError("halving pair collision for %r" % (key,))
        self.entries[key] = w

    def __len__(self) -> int:
        return len(self.entries)


def probe(d: PairDict, index: SuffixIndex, a: NodeId, b: NodeId) -> Optional[NodeId]:
    """Look up the ordered pair (a, b); None when absent."""
    if index is not d.owner:
        raise PairDictError("probe with nodes from a foreign index")
    return d.entries.get((a, b))


def build_trie_halving_dict(trie: SuffixIndex) -> PairDict:
    """One entry per non-root node, in O(1) per node.

    Breadth first, each node derives its halves from its parent's: the
    left half gains a character when the depth turns odd, and the right
    half then loses its first character (a trie suffix link) before
    gaining the new last one.
    """
    if trie.kind != "trie":
        raise ValueError("trie halving dictionary requires a suffix trie")
    nodes = trie.nodes
    data = trie.data
    link = [ROOT] * len(nodes)
    a1 = [ROOT] * len(nodes)
    a2 = [ROOT] * len(nodes)
    order = [ROOT]
    for u in order:                   # shallower nodes come first
        un = nodes[u]
        for c, x in un.children.items():
            order.append(x)
            depth = un.cum + 1
            if u != ROOT:
                link[x] = nodes[link[u]].children[c]
            if depth % 2:
                mid = data[nodes[x].leftmost_leaf_ref - 1 + depth // 2]
                a1[x] = nodes[a1[u]].children[mid]
                if a2[u] != ROOT:
                    a2[x] = nodes[link[a2[u]]].children[c]
            else:
                a1[x] = a1[u]
                a2[x] = nodes[a2[u]].children[c]
    d = PairDict(owner=trie, target=trie)
    for nid in range(1, len(nodes)):
        d.add(a1[nid], a2[nid], nid)
    return d


def build_tree_halving_dict(tree: SuffixIndex) -> PairDict:
    """One entry per non-root node: the tree's shared ancestry
    (:func:`build_ancestry`), then O(log n) per internal node.

    A child x of the root splits as (x, ROOT).  A child x of an internal
    node u has u's string plus x's edge character c as its shortest
    string, so the split depends on u and c alone: b1 is u's shallowest
    ancestor-or-self covering half of that string (bisection on the
    cumulative skips of u's root path), and b2 is the child at c of the
    node for u's string with b1's removed from the front (a suffix-link
    level ancestor of u).
    """
    if tree.kind != "tree":
        raise ValueError("tree halving dictionary requires a suffix tree")
    anc = build_ancestry(tree)
    nodes = tree.nodes
    pairs = [(nid, ROOT) for nid in range(len(nodes))]
    path: list[NodeId] = []
    cums: list[int] = []
    stack = [(nid, 0) for nid in nodes[ROOT].children.values()
             if nodes[nid].children]
    while stack:
        u, depth = stack.pop()
        un = nodes[u]
        del path[depth:], cums[depth:]
        path.append(u)
        cums.append(un.cum)
        b1 = path[bisect_left(cums, (un.cum + 2) // 2)]
        right = nodes[level_ancestor_sl(anc, u, nodes[b1].cum)].children
        for c, x in un.children.items():
            pairs[x] = (b1, right[c])
            if nodes[x].children:
                stack.append((x, depth + 1))
    d = PairDict(owner=tree, target=tree)
    for nid in range(1, len(nodes)):
        d.add(*pairs[nid], nid)
    return d
