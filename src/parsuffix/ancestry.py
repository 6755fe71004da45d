"""Suffix links, the suffix-links tree, and level-ancestor queries.

Following one suffix link removes exactly one leading character from a
node's longest corresponding substring, so a node's depth in the
suffix-links tree equals its cumulative skip value.  Multi-character
shortening is a level-ancestor query in that tree, answered here by
binary lifting (O(log n) per query; the accounting model still charges
one step per shorten).  Links are computed parents first, in node id
order, from the stored tree (:func:`suffix_links`), so built and loaded
trees are handled alike.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .suffixindex import ROOT, NodeId, SuffixIndex


class AncestryError(Exception):
    """Structural failure while building or querying suffix links."""


@dataclass
class AncestryIndex:
    # the tree's cum array (a node's depth in the suffix-links tree), not
    # the tree: the tree holds its ancestry, and no cycle keeps a dropped
    # tree alive until a full collection
    cum: array
    # jump[j][node] = 2^j-th suffix-link ancestor; jump[0] holds the
    # suffix links, the root linking to itself
    jump: list[array]


def suffix_links(tree: SuffixIndex) -> list[NodeId]:
    """Suffix link of every node (the root links to itself), in id order.

    A node's string minus its first character extends its parent's string
    minus the first character, so the link target lies below the parent's
    link and is reached by skip/count: one child lookup per node passed,
    the string being known to be present.  Node ids are a preorder, so a
    parent's link is known before its children's.  Uses only the stored
    structure, so built and loaded trees give the same links.
    """
    if tree.kind != "tree":
        raise ValueError("suffix links require a suffix tree")
    parent = tree.parent
    cum = tree.cum
    child = tree.child
    lrefs = tree.leftmost_leaf_ref
    data = tree.data
    links = [ROOT] * len(cum)          # a list reads back without boxing
    for nid in range(1, len(cum)):     # node ids are a preorder
        want = cum[nid] - 1
        first = lrefs[nid]               # data[first + d]: link symbol d
        cur = links[parent[nid]]
        depth = cum[cur]
        try:
            while depth < want:
                cur = child(cur, data[first + depth])
                if cur is None:
                    break
                depth = cum[cur]
        except IndexError:
            cur = None
        if cur is None:
            raise AncestryError("suffix link target missing "
                                "(not a suffix tree)")
        if depth != want:
            raise AncestryError("suffix link target overshoots "
                                "(not a suffix tree)")
        links[nid] = cur
    return links


def build_ancestry(tree: SuffixIndex) -> AncestryIndex:
    """Suffix links for every node (:func:`suffix_links`) plus binary
    lifting tables (O(n log n) for a tree of n nodes), one
    ``array("i")`` per level.

    Built once per tree: the result is kept as ``tree.ancestry`` and
    returned by later calls, so the tree halving dictionary and tree-par2
    share it."""
    if tree.ancestry is None:
        prev = suffix_links(tree)
        levels = max(1, max(tree.cum).bit_length())
        jump = [array("i", prev)]
        for _ in range(1, levels):
            prev = [prev[x] for x in prev]
            jump.append(array("i", prev))
        tree.ancestry = AncestryIndex(tree.cum, jump)
    return tree.ancestry


def level_ancestor_sl(anc: AncestryIndex, nid: NodeId, d: int) -> NodeId:
    """The node reached by following exactly ``d`` suffix links."""
    if d > anc.cum[nid]:
        raise AncestryError("level ancestor overshoots the root")
    j = 0
    while d:
        if d & 1:
            nid = anc.jump[j][nid]
        d >>= 1
        j += 1
    return nid

