"""Dictionaries mapping a halving pair of nodes to their concatenation.

The trie dictionary stores, for every non-root node, the unique pair that
splits its string at the midpoint (left half one longer for odd lengths).
The suffix-tree dictionary stores the pair for each node's *shortest*
corresponding string, split at the shallowest existing node covering at
least half of it; this keeps one entry per node despite path compression.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .ancestry import build_ancestry, level_ancestor_sl
from .suffixindex import ROOT, NodeId, SuffixIndex, gather


class PairDictError(Exception):
    pass


@dataclass
class PairDict:
    """Associative map (NodeId, NodeId) -> NodeId with an owner guard.

    Realized as a hash map with constant expected probe time; probes are
    charged one step regardless of the backing structure.  ``target`` is
    the index the mapped values live in (the owner itself for halving
    dictionaries, the next layer down for layer dictionaries).  A pair
    (a, b) is keyed ``a << 32 | b`` (node ids fit the container's u32), so
    ``entries`` holds only ints: no tuple per entry, and the dict is not
    tracked by the collector.  Packed keys sort as their pairs do.
    """

    owner: SuffixIndex
    target: SuffixIndex
    entries: dict[int, NodeId] = field(default_factory=dict)

    def add(self, a: NodeId, b: NodeId, w: NodeId) -> None:
        key = a << 32 | b
        if key in self.entries and self.entries[key] != w:
            raise PairDictError("halving pair collision for (%d, %d)"
                                % (a, b))
        self.entries[key] = w

    def pairs(self) -> Iterator[tuple[tuple[NodeId, NodeId], NodeId]]:
        """The entries as ((a, b), w), sorted by pair."""
        for key, w in sorted(self.entries.items()):
            yield (key >> 32, key & 0xFFFFFFFF), w

    def __len__(self) -> int:
        return len(self.entries)


def probe(d: PairDict, a: NodeId, b: NodeId) -> Optional[NodeId]:
    """Look up the ordered pair (a, b) of ``d.owner``'s nodes; None when
    absent.  Callers check the owner once: trie-par and tree-par2 at
    entry, and interleaved probes only its own layers' dictionaries."""
    return d.entries.get(a << 32 | b)


def build_trie_halving_dict(trie: SuffixIndex) -> PairDict:
    """One entry per non-root node, in O(1) per node.

    Shallower nodes first, each node derives its halves from its
    parent's: the left half gains a character when the depth turns odd,
    and the right half then loses its first character (a trie suffix
    link) before gaining the new last one.
    """
    if trie.kind != "trie":
        raise ValueError("trie halving dictionary requires a suffix trie")
    child = trie.child
    parent, cum, sym = trie.parent, trie.cum, trie.sym
    lrefs = gather(trie.sa, trie.leaf_lo)     # each node's leftmost suffix
    data = trie.data
    link = array("i", [ROOT]) * len(trie)
    a1 = array("i", link)
    a2 = array("i", link)
    for x in sorted(range(1, len(trie)), key=cum.__getitem__):
        u, c, depth = parent[x], sym[x], cum[x]
        if u != ROOT:
            link[x] = child(link[u], c)
        if depth % 2:
            mid = data[lrefs[x] - 1 + depth // 2]
            a1[x] = child(a1[u], mid)
            if a2[u] != ROOT:
                a2[x] = child(link[a2[u]], c)
        else:
            a1[x] = a1[u]
            a2[x] = child(a2[u], c)
    d = PairDict(owner=trie, target=trie)
    for nid in range(1, len(trie)):
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
    child = tree.child
    parent, cum, sym = tree.parent, tree.cum, tree.sym
    left = array("i", range(len(tree)))     # a root child x: (x, ROOT)
    right_part = array("i", [ROOT]) * len(tree)
    b1s = array("i", right_part)            # by inner node u: its b1 and
    bases = array("i", right_part)          # the node b2's parent
    path: list[NodeId] = []                 # the root path, root left out
    cums: list[int] = []
    for x in range(1, len(tree)):           # preorder: u before x
        u = parent[x]
        while path and path[-1] != u:
            path.pop()
            cums.pop()
        if u != ROOT:
            if x == u + 1:                  # u's first child
                b1 = b1s[u] = path[bisect_left(cums, (cum[u] + 2) // 2)]
                bases[u] = level_ancestor_sl(anc, u, cum[b1])
            left[x], right_part[x] = b1s[u], child(bases[u], sym[x])
        path.append(x)
        cums.append(cum[x])
    d = PairDict(owner=tree, target=tree)
    for nid in range(1, len(tree)):
        d.add(left[nid], right_part[nid], nid)
    return d
