"""Suffix links, the suffix-links tree, and level-ancestor queries.

Following one suffix link removes exactly one leading character from a
node's longest corresponding substring, so a node's depth in the
suffix-links tree equals its cumulative skip value.  Multi-character
shortening is a level-ancestor query in that tree, answered here by
binary lifting (O(log n) per query; the accounting model still charges
one step per shorten).  Links are computed top-down from the stored tree
(:func:`suffix_links`), so built and loaded trees are handled alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .suffixindex import ROOT, Node, NodeId, SuffixIndex


class AncestryError(Exception):
    """Structural failure while building or querying suffix links."""


@dataclass
class AncestryIndex:
    # the tree's node list, not the tree: the tree holds its ancestry,
    # and no cycle keeps a dropped tree alive until a full collection
    nodes: list[Node]
    suffix_link: list[NodeId]        # per node; root links to itself
    jump: list[list[NodeId]]         # jump[j][node] = 2^j-th suffix-link ancestor

    def depth(self, nid: NodeId) -> int:
        """Depth in the suffix-links tree (= cumulative skip value)."""
        return self.nodes[nid].cum


def suffix_links(tree: SuffixIndex) -> list[NodeId]:
    """Suffix link of every node (the root links to itself), top-down.

    A node's string minus its first character extends its parent's string
    minus the first character, so the link target lies below the parent's
    link and is reached by skip/count: one child lookup per node passed,
    the string being known to be present.  Uses only the stored structure,
    so built and loaded trees give the same links.
    """
    if tree.kind != "tree":
        raise ValueError("suffix links require a suffix tree")
    nodes = tree.nodes
    data = tree.data
    links = [ROOT] * len(nodes)
    stack = list(nodes[ROOT].children.values())
    while stack:                                 # parents before children
        nid = stack.pop()
        nd = nodes[nid]
        stack.extend(nd.children.values())
        want = nd.cum - 1
        first = nd.leftmost_leaf_ref     # data[first + d]: link symbol d
        cur = links[nd.parent]
        cn = nodes[cur]
        try:
            while cn.cum < want:
                cur = cn.children[data[first + cn.cum]]
                cn = nodes[cur]
        except (KeyError, IndexError):
            raise AncestryError("suffix link target missing "
                                "(not a suffix tree)") from None
        if cn.cum != want:
            raise AncestryError("suffix link target overshoots "
                                "(not a suffix tree)")
        links[nid] = cur
    return links


def build_ancestry(tree: SuffixIndex) -> AncestryIndex:
    """Suffix links for every node (:func:`suffix_links`) plus binary
    lifting tables (O(n log n) for a tree of n nodes).

    Built once per tree: the result is kept as ``tree.ancestry`` and
    returned by later calls, so the tree halving dictionary and tree-par2
    share it."""
    if tree.ancestry is None:
        links = suffix_links(tree)
        maxd = max((nd.cum for nd in tree.nodes), default=0)
        levels = max(1, maxd.bit_length())
        jump = [links]
        for j in range(1, levels):
            prev = jump[j - 1]
            jump.append([prev[prev[nid]] for nid in range(len(tree.nodes))])
        tree.ancestry = AncestryIndex(tree.nodes, links, jump)
    return tree.ancestry


def level_ancestor_sl(anc: AncestryIndex, nid: NodeId, d: int) -> NodeId:
    """The node reached by following exactly ``d`` suffix links."""
    if d > anc.depth(nid):
        raise AncestryError("level ancestor overshoots the root")
    j = 0
    while d:
        if d & 1:
            nid = anc.jump[j][nid]
        d >>= 1
        j += 1
    return nid

