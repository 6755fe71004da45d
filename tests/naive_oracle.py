"""Reference builders that insert every suffix and walk every dictionary
part from the root, occurrence reporting by a walk over the subtree, and
tree-par2's probe sweep step by step over every ancestor of lane 2's node.
Quadratic on repetitive texts; the library's McCreight builder,
suffix-link based dictionaries, leaf-order reporting range and windowed
probe sweep must match them exactly (node ids and hits included)."""

from __future__ import annotations

from typing import Optional, Sequence

from parsuffix.ancestry import AncestryIndex, level_ancestor_sl
from parsuffix.halving import PairDict, probe
from parsuffix.interleaved import LayerIndex, LayeredIndex
from parsuffix.ledger import StepLedger
from parsuffix.query import EMPTY, QueryResult
from parsuffix.suffixindex import (NO_PARENT, ROOT, NodeId, SuffixIndex,
                                   descend, occurrences, verify_against_text)
from parsuffix.textmodel import Pattern, Text, make_text


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


class _Absent(Exception):
    """Navigation fell off an edge: the pattern cannot occur."""


class _LeafExit(Exception):
    """A lane reached a leaf: at most one occurrence, at ``candidate``."""

    def __init__(self, candidate: int) -> None:
        self.candidate = candidate


class FullSweepDriver:
    """tree-par2's probe sweep one step at a time, probing every pair the
    sweep passes: lane 1's node against lane 2's node and every ancestor
    of it, lookaheads included, with no window.  Θ(m²) probes on a unary
    text.  Runs against lane 1's walk of Q[1 .. half], the path
    :func:`descend` returned and whether it covers the subquery; keeps
    the invariants :func:`parsuffix.treeparallel._sweep` states and
    charges the ledger step by step."""

    def __init__(self, tree: SuffixIndex, anc: AncestryIndex, dct: PairDict,
                 pat: Pattern, ledger: StepLedger,
                 lane1: tuple[list[tuple[NodeId, int]], bool]) -> None:
        self.tree = tree
        self.cum, self.parent = tree.cum, tree.parent
        self.children = tree.children
        self.anc = anc
        self.dct = dct
        self.pat = pat
        self.ledger = ledger
        self.walk1, self.walk1_covers = lane1
        self.next1 = 1                       # walk1 index of lane 1's next node
        self.charged1 = 0                    # lane-1 edges charged so far
        self.t1_start = ledger.now("lane1")
        self.m = m = pat.m
        self.half = (m + 1) // 2
        self.start2 = (m + 3) // 4          # Q2 = Q[start2+1 .. m]
        self.t_init = self.start2 + 1
        self.b1, self.cum1 = ROOT, 0
        self.b2, self.anchor = ROOT, self.start2
        self.hits: set[NodeId] = set()
        self.covered = False                 # some hit covers the whole query
        self.probed: set[tuple[NodeId, NodeId]] = set()
        self.aligned = False

    # -- lane helpers ---------------------------------------------------

    @property
    def cum2(self) -> int:
        return self.cum[self.b2]

    @property
    def ready2(self) -> int:
        """When a lane-2 step reading lane 1's current node may run."""
        return self.t1_start + min(self.cum1, self.half) + 1

    def _lane1_peek_edge(self) -> Optional[NodeId]:
        """Lane 1's next node, None once its subquery is covered.  An edge
        is charged when first peeked, so only edges the sweep reaches
        count as work."""
        k = self.next1
        if k == len(self.walk1):
            if not self.walk1_covers:
                raise _Absent
            return None
        if self.charged1 < k:
            chars = min(self.walk1[k][1], self.half) - self.walk1[k - 1][1]
            self.ledger.charge("lane1", "nav_chars", chars)
            self.charged1 = k
        return self.walk1[k][0]

    def _lane1_advance(self, reconcile: bool = True) -> None:
        """Move lane 1 onto the edge the caller has peeked."""
        self.b1, self.cum1 = self.walk1[self.next1]
        self.next1 += 1
        if not self.children[self.b1]:
            raise _LeafExit(self.tree.ref[self.b1])
        if reconcile:
            self._apply_overlap()

    def _apply_overlap(self) -> None:
        """Shorten lane 2 from the left by lane 1's new edge, which now
        overlaps it, or align on first reaching it."""
        if not self.aligned:
            if self.cum1 >= self.anchor:
                self._align()
            return
        ov = self.cum1 - self.anchor
        self.anchor = self.cum1
        if ov >= self.cum2:
            # lane 1 covers lane 2's whole string; lane 2 restarts after it
            self.b2 = ROOT
            return
        self.b2 = level_ancestor_sl(self.anc, self.b2, ov)
        self.ledger.charge("lane2", "shortens", 1, ready=self.ready2)
        self._probe_ancestry(self.b1, self.b2)

    def _align(self) -> None:
        """First moment lane 1 reaches lane 2's anchored start: replay the
        shortening for every lane-1 node between the anchor and the current
        front, probing each replayed state."""
        base_b2, base_anchor = self.b2, self.anchor
        base_cum2, e2 = self.cum2, self.anchor + self.cum2
        for node1, v in self.walk1[:self.next1]:
            if v < base_anchor:
                continue
            d = v - base_anchor
            if d == 0:
                node_v = base_b2
            elif d < base_cum2:
                node_v = level_ancestor_sl(self.anc, base_b2, d)
                self.ledger.charge("lane2", "shortens", 1, ready=self.ready2)
            else:
                node_v = ROOT
            self._probe_ancestry(node1, node_v)
            # lane 2's next node may complete this split's stored pair
            if e2 < self.m:
                nxt = self.children[node_v].get(self.pat.at(e2 + 1))
                if nxt is not None:
                    self._lookup(node1, nxt)
        # the loop ends at lane 1's node, v == cum1
        self.b2, self.anchor = node_v, self.cum1
        self.aligned = True

    def _lane2_next(self) -> Optional[NodeId]:
        """Lane 2's child for the next query symbol; None at the end."""
        e2 = self.anchor + self.cum2
        if e2 >= self.m:
            return None
        nxt = self.children[self.b2].get(self.pat.at(e2 + 1))
        if nxt is None:
            raise _Absent
        return nxt

    def _lane2_take(self, node: NodeId, ready: int) -> None:
        chars = min(self.tree.skip[node], self.m - self.anchor - self.cum2)
        self.ledger.charge("lane2", "nav_chars", chars, ready=ready)
        self.b2 = node
        if not self.children[node]:
            raise _LeafExit(self.tree.ref[node] - self.anchor)
        if self.aligned:
            self._probe_ancestry(self.b1, self.b2)

    # -- probing --------------------------------------------------------

    def _lookup(self, a: NodeId, b: NodeId) -> None:
        """One dictionary probe of (a, b), charged once per pair."""
        if (a, b) in self.probed:
            return
        self.probed.add((a, b))
        w = probe(self.dct, a, b)
        self.ledger.charge("probe", "probes", 1, timed=False)
        if w is not None:
            self.hits.add(w)
            if self.cum[w] >= self.m:
                self.covered = True

    def _probe_ancestry(self, a: NodeId, b: NodeId) -> None:
        """Probe a against b and every ancestor of b."""
        while b != ROOT:
            self._lookup(a, b)
            b = self.parent[b]
        self._lookup(a, ROOT)

    # -- phases -----------------------------------------------------------

    def _initial_phase(self) -> None:
        """Both lanes independently navigate roughly a quarter of the query,
        stopping at the last node not beyond t_init."""
        cum = self.cum
        while True:
            node = self._lane1_peek_edge()
            if node is None or cum[node] > self.t_init:
                break
            self._lane1_advance(reconcile=False)
        while True:
            node = self._lane2_next()
            if node is None or cum[node] > self.t_init:
                break
            self._lane2_take(node, ready=0)
        self._apply_overlap()

    def _navigate_one(self) -> None:
        """One move of the core loop: lane 2 takes its next edge unless
        that would make it longer than lane 1 while lane 1 can still
        advance; then lane 1 advances (shortening lane 2) instead."""
        node = self._lane2_next()
        if node is None:
            # lane 2 exhausted: only reachable while lane 1 lags behind
            if self._lane1_peek_edge() is None:
                raise AssertionError("both lanes stuck before covering Q")
            self._lane1_advance()
        elif self.cum1 < self.cum[node] and \
                self._lane1_peek_edge() is not None:
            if self.aligned:
                self._lookup(self.b1, node)
            self._lane1_advance()
        else:
            self._lane2_take(node, ready=self.ready2)

    def _rebalance(self) -> None:
        """Lane 1 keeps sweeping to the end of its subquery."""
        while not self.covered and self._lane1_peek_edge() is not None:
            self._lane1_advance()

    # -- result assembly -------------------------------------------------

    def _promote(self, nid: NodeId) -> NodeId:
        """Shallowest ancestor-or-self still covering the whole query."""
        while True:
            par = self.parent[nid]
            if par == NO_PARENT or self.cum[par] < self.m:
                return nid
            nid = par

    def _finish(self) -> QueryResult:
        candidates = {self._promote(h) for h in self.hits
                      if self.cum[h] >= self.m}
        if self.cum1 >= self.m:
            candidates.add(self._promote(self.b1))
        for cand in candidates:
            self.ledger.charge("lane1", "compares", self.half, timed=False)
            self.ledger.charge("lane2", "compares", self.m - self.half,
                               timed=False)
            if verify_against_text(self.tree, cand, self.pat):
                return QueryResult(tuple(occurrences(self.tree, cand)), cand)
        return EMPTY

    def _single_occurrence(self, candidate: int) -> QueryResult:
        n = self.tree.base_len
        if candidate < 1 or candidate + self.m - 1 > n:
            return EMPTY
        self.ledger.charge("lane1", "compares", self.half, timed=False)
        self.ledger.charge("lane2", "compares", self.m - self.half,
                           timed=False)
        start = candidate - 1
        if self.tree.data[start: start + self.m] != self.pat.chars:
            return EMPTY
        return QueryResult((candidate,), None)

    def run(self) -> QueryResult:
        try:
            self._initial_phase()
            while self.cum1 + self.cum2 < self.m:
                self._navigate_one()
            self._rebalance()
        except _Absent:
            return EMPTY
        except _LeafExit as leaf:
            return self._single_occurrence(leaf.candidate)
        return self._finish()


def run_full_sweep(tree: SuffixIndex, anc: AncestryIndex, dct: PairDict,
                   pat: Pattern
                   ) -> tuple[set[NodeId], QueryResult, StepLedger]:
    """One tree-par2 query on :class:`FullSweepDriver`, as
    ``par_query_tree2`` runs it: its hits, answer and ledger."""
    led = StepLedger()
    drv = FullSweepDriver(tree, anc, dct, pat, led,
                          descend(tree, pat.chars[:(pat.m + 1) // 2]))
    res = drv.run()
    return drv.hits, res, led
