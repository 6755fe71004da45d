"""Shortening by suffix-link level ancestors, as weighted ancestors on
jump pointers.

sl^d(v), v's string without its first d symbols, is a prefix of suffix
p + d for any suffix p below v: the ancestor of that suffix's leaf at
string depth cum(v) - d, a weighted ancestor query (Gawrychowski,
Lewenstein & Nicholson, ESA 2014).  One jump pointer per node (Myers,
"An applicative random-access stack", IPL 1983) answers it in O(log n)
jump or parent steps, with O(n) space and build.  The accounting model
still charges one step per shorten.  Only stored columns are read, so
built and loaded trees are handled alike.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import eq

from .suffixindex import NO_SYM, ROOT, NodeId, SuffixIndex


class AncestryError(Exception):
    """A shorten that has no answer in the tree."""


@dataclass
class AncestryIndex:
    # the tree's own columns, not the tree: the tree holds its ancestry,
    # and no cycle keeps a dropped tree alive until a full collection
    cum: array
    parent: array
    sa: array
    leaf_hi: array
    # jump[v]: an ancestor of v (the root's is itself), placed by Myers'
    # skew-binary scheme so that a climb takes O(log n) jumps
    jump: array
    # leaf[p]: the leaf of the suffix at 1-based data position p
    leaf: array


def build_ancestry(tree: SuffixIndex) -> AncestryIndex:
    """The jump pointers and the leaf of every suffix: one pass over the
    nodes in id order, a preorder, so a parent's pointer is set before
    its children's.  Node v with parent u jumps to jump(jump(u)) when
    u's jump and jump(u)'s span the same number of nodes, else to u.

    Built once per tree: the result is kept as ``tree.ancestry`` and
    returned by later calls, so the tree halving dictionary and tree-par2
    share it."""
    if tree.ancestry is None:
        parents = tree.parent.tolist()   # a list reads back without boxing
        jump = [ROOT] * len(parents)
        depth = [0] * len(parents)
        for v, u in enumerate(islice(parents, 1, None), 1):
            up = jump[u]
            du = depth[u]
            depth[v] = du + 1
            jump[v] = jump[up] if du - depth[up] == \
                depth[up] - depth[jump[up]] else u
        # the leaves in id order are the suffixes in sa's order
        leaf = array("i", [0]) * (len(tree.data) + 1)
        any(map(leaf.__setitem__, tree.sa,
                compress(range(len(parents)),
                         map(eq, tree.fsym, repeat(NO_SYM)))))
        tree.ancestry = AncestryIndex(tree.cum, tree.parent, tree.sa,
                                      tree.leaf_hi, array("i", jump), leaf)
    return tree.ancestry


def level_ancestor_sl(anc: AncestryIndex, nid: NodeId, d: int) -> NodeId:
    """The node reached by following exactly ``d`` suffix links: the
    ancestor at depth cum(nid) - d of suffix p + d's leaf, for p the last
    suffix below ``nid`` in suffix order.

    The last suffix, not the first: on unary text the first one's shifted
    leaf hangs at the bottom of the one long chain, far below the answer,
    the last one's from the answer itself, and periodic texts behave
    alike.  A non-root node's range is empty only for the root's
    delimiter leaves, whose one symbol leaves nothing to shift, so
    ``sa[leaf_hi[nid] - 1]`` is a suffix below ``nid``."""
    cum = anc.cum
    want = cum[nid] - d
    if want <= 0:
        if want:
            raise AncestryError("level ancestor overshoots the root")
        return ROOT
    if not d:
        return nid
    # climb x to its highest ancestor deeper than want; its parent is the
    # answer, or x is when nid is a leaf
    parent, jump = anc.parent, anc.jump
    x = anc.leaf[anc.sa[anc.leaf_hi[nid] - 1] + d]
    up = parent[x]
    depth = cum[up]
    while depth > want:
        hop = jump[x]
        x = hop if cum[hop] > want else up
        up = parent[x]
        depth = cum[up]
    if depth == want:
        return up
    if cum[x] == want:
        return x
    raise AncestryError("no node at the level ancestor's depth "
                        "(not a suffix tree)")
