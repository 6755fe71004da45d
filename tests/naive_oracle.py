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
    idx = LayeredIndex()
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
    cur = ROOT
    pos = s
    while True:
        child = idx.children[cur].get(idx.at(pos))
        if child is None:
            leaf = idx.new_node(cur, e - pos + 1, s)
            idx.ref[leaf] = s
            idx.children[cur][idx.at(pos)] = leaf
            return
        lref = idx.leftmost_leaf_ref[child]
        j = idx.cum[cur] + 1
        while j <= idx.cum[child] and pos <= e and \
                idx.at(lref + j - 1) == idx.at(pos):
            j += 1
            pos += 1
        if j > idx.cum[child]:
            assert pos <= e, "duplicate suffix during construction"
            cur = child
            continue
        assert pos <= e, "suffix is a proper edge prefix"
        mid = idx.new_node(cur, (j - 1) - idx.cum[cur], lref)
        idx.children[cur][idx.at(lref + idx.cum[cur])] = mid
        idx.parent[child] = mid
        idx.skip[child] = idx.cum[child] - (j - 1)
        idx.children[mid][idx.at(lref + j - 1)] = child
        leaf = idx.new_node(mid, e - pos + 1, s)
        idx.ref[leaf] = s
        idx.children[mid][idx.at(pos)] = leaf
        return


# -- root walks ----------------------------------------------------------


def walk_exact(tree: SuffixIndex, start: int, length: int) -> NodeId:
    """Node whose longest string is data[start .. start+length-1] exactly."""
    cur = ROOT
    while tree.cum[cur] < length:
        cur = tree.children[cur][tree.at(start + tree.cum[cur])]
    assert tree.cum[cur] == length
    return cur


def walk_cover(index: SuffixIndex, seq: Sequence[int]) -> NodeId:
    """First node with cumulative skip >= |seq| on seq's navigation path."""
    cur = ROOT
    while index.cum[cur] < len(seq):
        cur = index.children[cur][seq[index.cum[cur]]]
    return cur


def naive_occurrences(index: SuffixIndex, nid: NodeId) -> list[int]:
    """Sorted text positions of the leaves below ``nid``, found by walking
    its subtree; suffixes starting in the delimiter tail are left out."""
    out = []
    stack = [nid]
    while stack:
        top = stack.pop()
        if index.children[top]:
            stack.extend(index.children[top].values())
        elif index.ref[top]:
            pos = index.data_pos_to_text_pos(index.ref[top])
            if pos <= index.base_len:
                out.append(pos)
    return sorted(out)


def naive_suffix_links(tree: SuffixIndex) -> list[NodeId]:
    links = [ROOT] * len(tree)
    for nid in range(1, len(tree)):
        links[nid] = walk_exact(tree, tree.leftmost_leaf_ref[nid] + 1,
                                tree.cum[nid] - 1)
    return links


def _label(index: SuffixIndex, nid: NodeId, length: int) -> tuple[int, ...]:
    r = index.leftmost_leaf_ref[nid]
    return index.data[r - 1: r - 1 + length]


def naive_trie_dict(trie: SuffixIndex) -> PairDict:
    d = PairDict(owner=trie, target=trie)
    for nid in range(1, len(trie)):
        depth = trie.cum[nid]
        left = (depth + 1) // 2
        a1 = nid
        for _ in range(depth - left):
            a1 = trie.parent[a1]
        d.add(a1, walk_cover(trie, _label(trie, nid, depth)[left:]), nid)
    return d


def naive_tree_dict(tree: SuffixIndex) -> PairDict:
    d = PairDict(owner=tree, target=tree)
    for nid in range(1, len(tree)):
        short_len = tree.shortest_len(nid)
        half = (short_len + 1) // 2
        b1 = nid
        cur = nid
        while cur != ROOT and tree.cum[cur] >= half:
            b1 = cur
            cur = tree.parent[cur]
        bhat = tree.cum[b1]
        b2 = ROOT if bhat >= short_len else \
            walk_cover(tree, _label(tree, nid, short_len)[bhat:])
        d.add(b1, b2, nid)
    return d


def naive_layer_dict(upper: LayerIndex, lower: LayerIndex) -> PairDict:
    d = PairDict(owner=upper.tree, target=lower.tree)
    low = lower.tree
    for nid in range(1, len(low)):
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
            b = self.tree.parent[b]
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
