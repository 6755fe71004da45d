"""Reference builders that insert every suffix and walk every dictionary
part from the root, occurrence reporting by a walk over the subtree, and
tree-par2's probe sweep over every ancestor of lane 2's node.
Quadratic on repetitive texts; the library's McCreight builder,
suffix-link based dictionaries, leaf-order reporting range and windowed
probe sweep must match them exactly (node ids and hits included)."""

from __future__ import annotations

from typing import Sequence

from parsuffix.ancestry import AncestryIndex
from parsuffix.halving import PairDict
from parsuffix.interleaved import LayerIndex, LayeredIndex
from parsuffix.ledger import StepLedger
from parsuffix.query import QueryResult
from parsuffix.suffixindex import ROOT, NodeId, SuffixIndex, descend
from parsuffix.textmodel import Pattern, Text, make_text
from parsuffix.treeparallel import _TwoLaneDriver


def naive_suffix_tree(text: Text) -> SuffixIndex:
    idx = SuffixIndex(text, "tree")
    _insert_all(idx)
    idx.finalize()
    return idx


def naive_layer(raw: bytes, k: int) -> LayerIndex:
    return LayerIndex(k, naive_suffix_tree(make_text(raw, k)))


def naive_layered_index(raw: bytes, p: int) -> LayeredIndex:
    idx = LayeredIndex(raw, p)
    k = 1
    while k <= p:
        idx.layers[k] = naive_layer(raw, k)
        if k > 1:
            idx.dicts[k] = naive_layer_dict(idx.layers[k], idx.layers[k // 2])
        k *= 2
    return idx


def _insert_all(idx: SuffixIndex) -> None:
    starts = list(idx.seq_starts) + [len(idx.data) + 1]
    for i in range(len(starts) - 1):
        hi = starts[i + 1] - 1
        for s in range(starts[i], hi + 1):
            _insert_suffix(idx, s, hi)


def _insert_suffix(idx: SuffixIndex, s: int, e: int) -> None:
    cur = idx.root
    pos = s
    while True:
        child = idx.nodes[cur].children.get(idx.at(pos))
        if child is None:
            leaf = idx.new_node(cur, e - pos + 1, s)
            idx.nodes[leaf].ref = s
            idx.nodes[cur].children[idx.at(pos)] = leaf
            return
        cn = idx.nodes[child]
        lref = cn.leftmost_leaf_ref
        j = idx.nodes[cur].cum + 1
        while j <= cn.cum and pos <= e and idx.at(lref + j - 1) == idx.at(pos):
            j += 1
            pos += 1
        if j > cn.cum:
            assert pos <= e, "duplicate suffix during construction"
            cur = child
            continue
        assert pos <= e, "suffix is a proper edge prefix"
        mid = idx.new_node(cur, (j - 1) - idx.nodes[cur].cum, lref)
        mn = idx.nodes[mid]
        idx.nodes[cur].children[idx.at(lref + idx.nodes[cur].cum)] = mid
        cn.parent = mid
        cn.skip = cn.cum - (j - 1)
        mn.children[idx.at(lref + j - 1)] = child
        leaf = idx.new_node(mid, e - pos + 1, s)
        idx.nodes[leaf].ref = s
        mn.children[idx.at(pos)] = leaf
        return


# -- root walks ----------------------------------------------------------


def walk_exact(tree: SuffixIndex, start: int, length: int) -> NodeId:
    """Node whose longest string is data[start .. start+length-1] exactly."""
    cur = ROOT
    while tree.nodes[cur].cum < length:
        cur = tree.nodes[cur].children[tree.at(start + tree.nodes[cur].cum)]
    assert tree.nodes[cur].cum == length
    return cur


def walk_cover(index: SuffixIndex, seq: Sequence[int]) -> NodeId:
    """First node with cumulative skip >= |seq| on seq's navigation path."""
    cur = ROOT
    while index.nodes[cur].cum < len(seq):
        cur = index.nodes[cur].children[seq[index.nodes[cur].cum]]
    return cur


def naive_occurrences(index: SuffixIndex, nid: NodeId) -> list[int]:
    """Sorted text positions of the leaves below ``nid``, found by walking
    its subtree; suffixes starting in the delimiter tail are left out."""
    out = []
    stack = [nid]
    while stack:
        nd = index.nodes[stack.pop()]
        if nd.children:
            stack.extend(nd.children.values())
        elif nd.ref is not None:
            pos = index.data_pos_to_text_pos(nd.ref)
            if pos <= index.text.base_len:
                out.append(pos)
    return sorted(out)


def naive_suffix_links(tree: SuffixIndex) -> list[NodeId]:
    links = [ROOT] * len(tree.nodes)
    for nid in range(1, len(tree.nodes)):
        nd = tree.nodes[nid]
        links[nid] = walk_exact(tree, nd.leftmost_leaf_ref + 1, nd.cum - 1)
    return links


def _label(index: SuffixIndex, nid: NodeId, length: int) -> tuple[int, ...]:
    r = index.nodes[nid].leftmost_leaf_ref
    return index.data[r - 1: r - 1 + length]


def naive_trie_dict(trie: SuffixIndex) -> PairDict:
    d = PairDict(owner=trie, target=trie)
    for nid in range(1, len(trie.nodes)):
        depth = trie.nodes[nid].cum
        left = (depth + 1) // 2
        a1 = nid
        for _ in range(depth - left):
            a1 = trie.nodes[a1].parent
        d.add(a1, walk_cover(trie, _label(trie, nid, depth)[left:]), nid)
    return d


def naive_tree_dict(tree: SuffixIndex) -> PairDict:
    d = PairDict(owner=tree, target=tree)
    for nid in range(1, len(tree.nodes)):
        short_len = tree.shortest_len(nid)
        half = (short_len + 1) // 2
        b1 = nid
        cur = nid
        while cur != ROOT and tree.nodes[cur].cum >= half:
            b1 = cur
            cur = tree.nodes[cur].parent
        bhat = tree.nodes[b1].cum
        b2 = ROOT if bhat >= short_len else \
            walk_cover(tree, _label(tree, nid, short_len)[bhat:])
        d.add(b1, b2, nid)
    return d


def naive_layer_dict(upper: LayerIndex, lower: LayerIndex) -> PairDict:
    d = PairDict(owner=upper.tree, target=lower.tree)
    low = lower.tree
    for nid in range(1, len(low.nodes)):
        s = _label(low, nid, low.shortest_len(nid))
        d.add(walk_cover(upper.tree, s[0::2]), walk_cover(upper.tree, s[1::2]),
              nid)
    return d


# -- tree-par2 probe sweep -------------------------------------------------


class FullSweepDriver(_TwoLaneDriver):
    """tree-par2 probing every pair the sweep passes: lane 1's node against
    lane 2's node and every ancestor of it, lookaheads included, with no
    window.  Θ(m²) probes on a unary text."""

    def _probe(self, a: NodeId, b: NodeId) -> None:
        self._lookup(a, b)

    def _probe_ancestry(self, a: NodeId, b: NodeId) -> None:
        while b != ROOT:
            self._lookup(a, b)
            b = self.tree.nodes[b].parent
        self._lookup(a, ROOT)


def run_tree2_driver(driver: type, tree: SuffixIndex, anc: AncestryIndex,
                     dct: PairDict, pat: Pattern
                     ) -> tuple[_TwoLaneDriver, QueryResult, StepLedger]:
    """One tree-par2 query on ``driver``, as ``par_query_tree2`` runs it;
    the driver is returned for its hits."""
    led = StepLedger()
    drv = driver(tree, anc, dct, pat, led,
                 descend(tree, pat.chars[:(pat.m + 1) // 2]))
    return drv, drv.run(), led
