"""Two-lane parallel query in the suffix tree.

Lane 1 blindly navigates the left half of the query from the root.  Lane 2
navigates a right portion starting roughly one quarter in, node to node;
whenever lane 1 overtakes lane 2's anchored start, lane 2's string is
shortened from the left by a suffix-link level ancestor, so that the two
matched strings always concatenate to a prefix of the query.  The pair of
current nodes is probed in the halving dictionary as the split point
sweeps right; the deepest verified hit is the query's node.

The sweep keeps four invariants (:class:`_TwoLaneDriver` gives details):

1. Lane 2 always stands on a node: an internal node's suffix link is an
   internal node one symbol shorter.
2. After alignment, lane 2 starts where lane 1 ends: every shorten or
   restart re-anchors it there, and its moves keep the anchor.
3. No probe has the root as its left part: probes start at alignment,
   when lane 1 has passed Q[1 .. start2].
4. Lane 1's clock is min(cum1, half) past its start: lane 1 charges only
   its own edges, one after another.

The stored pair for the query's node splits it at the shallowest node
covering half of its shortest string, and that split can sit anywhere in
lane 1's range, so probing must cover every (lane-1 node, lane-2 node)
the sweep passes.  Probes fire after every navigation step and every
shorten.  Each pairs lane 1's node with lane 2's node or one of its
ancestors, since a shorten can land past the stored right part.  Only a
window of those ancestors can be stored: the dictionary's rule puts the
right part's parent at a cum between 2P - A and A - 1, where A and P are
the cums of lane 1's node and of its parent, so a sweep makes at most
2m + 2 probes.  A lookahead also probes lane 2's next node before lane 1
overtakes it (the balance condition otherwise skips exactly the stored
pair when that next edge is long).  After the concatenation first covers
the query, lane 1 keeps sweeping to the end of its subquery so splits
right of the meeting point are probed too.  Splits left of lane 2's
anchor need no probe: their node starts within lane 1's reach, which is
handled by reporting lane 1's own node when it covers the whole query.

Dependency accounting: lane 1 is self-paced; every lane-2 step that reads
a lane-1 value becomes eligible one time unit after that value was
produced.  Dictionary probes never gate navigation — they only feed the
final answer selection — so they are counted as work but kept off the
critical path, as is the terminal text verification.
"""

from __future__ import annotations

from typing import Optional

from .ancestry import AncestryIndex, level_ancestor_sl
from .halving import PairDict, probe
from .lanes import Mapper, seq_map, thread_map
from .ledger import StepLedger
from .query import EMPTY, QueryResult
from .suffixindex import (NO_PARENT, ROOT, NodeId, SuffixIndex, descend,
                          occurrences, verify_against_text)
from .textmodel import Pattern
from .trieparallel import ParameterError


class _Absent(Exception):
    """Navigation fell off an edge: the pattern cannot occur."""


class _LeafExit(Exception):
    """A lane reached a leaf: at most one occurrence, at ``candidate``."""

    def __init__(self, candidate: int) -> None:
        self.candidate = candidate


class _TwoLaneDriver:
    """Runs the probe sweep against lane 1's walk of Q[1 .. half]: the
    path :func:`descend` returned and whether it covers the subquery.

    Lane 2's string is Q[anchor+1 .. anchor+cum2].  Four invariants hold:

    1. Lane 2 stands on a node b2, so cum2 is cum(b2): a move takes it
       onto a child, a restart to the root, and a shorten by d < cum(b2)
       to the suffix-link level ancestor, an internal node exactly d
       shorter (``ancestry.suffix_links`` rejects other trees).  Reaching
       a leaf ends the sweep, so lane 2 never shortens from one.
    2. Once aligned, anchor == cum1: alignment and every later shorten or
       restart set it, and lane-2 moves keep it.
    3. No probe has the root as its left part: probes start at alignment,
       and pair a lane-1 node of cum >= anchor >= start2 >= 1.
    4. Lane 1's clock is min(cum1, half) past its start: lane 1 charges
       only its edges, one after another, cut at half."""

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
        overlaps it (invariant 2), or align on first reaching it."""
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
        front, probing each replayed state (splits in that band would
        otherwise be passed without a probe)."""
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
                    self._probe(node1, nxt)
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

    def _probe(self, a: NodeId, b: NodeId) -> None:
        """Probe (a, b) unless it lies outside the window of stored pairs
        (see :meth:`_probe_ancestry`)."""
        cum, parent = self.cum, self.parent
        pa = parent[a]
        if b == ROOT:
            if pa != ROOT:
                return
        elif not 2 * cum[pa] - cum[a] <= cum[parent[b]] < cum[a]:
            return
        self._lookup(a, b)

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
        """Probe a against b and those ancestors of b that can be stored as
        a's right part: after a shorten, the stored right part may be any
        prefix of lane 2's covered string, but only a window of them.

        The window follows from :func:`build_tree_halving_dict`'s rule,
        and a container stores that builder's entries, so loaded
        dictionaries keep it too.  The pair (b1, b2) stored for a node x with
        parent u != ROOT splits x's shortest string, of length
        L = cum(u) + 1.  With A = cum(b1) and P = cum(parent(b1)), b1 is
        the shallowest node covering half of it, so P < ceil(L/2) <= A,
        that is 2P < L <= 2A; and parent(b2) is the suffix-link level
        ancestor of u at depth A, of cum L - 1 - A.  Hence

            2P - A <= cum(parent(b2)) <= A - 1.

        A child x of the root is stored as (x, ROOT): the right part ROOT
        needs P = 0, and b1 is never ROOT.  Cums fall up b's root path, so
        the walk stops once a parent's cum drops below 2P - A.

        So a sweep is linear in m.  Every right part probed against a
        (here and in the lookaheads) is a distinct node on one root path,
        lane 2's path from cum(a), with its parent's cum in the window and
        below m - cum(a).  Lane 1's nodes a_1 .. a_k run down one path, so
        the windows of a_1 .. a_(k-1) hold at most 2 cum(a_(k-1)) cums in
        all and a_k's at most m - cum(a_k); with the one ROOT probe and
        cum(a_(k-1)) < ceil(m/2) that is at most m + ceil(m/2) - 1 probes,
        within the 2m + 2 the harness checks."""
        # _probe's window, its bounds read once for the whole walk
        cum, parent = self.cum, self.parent
        pa = parent[a]
        if pa == ROOT:
            self._lookup(a, ROOT)
        high = cum[a]
        low = 2 * cum[pa] - high
        while b != ROOT:
            pb = parent[b]
            up = cum[pb]
            if up < low:
                break
            if up < high:
                self._lookup(a, b)
            b = pb

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
            # the pair skipped by the balance condition may be exactly
            # the stored one; probe it before overtaking
            if self.aligned:
                self._probe(self.b1, node)
            self._lane1_advance()
        else:
            self._lane2_take(node, ready=self.ready2)

    def _rebalance(self) -> None:
        """The concatenation covers the query, but the stored split may sit
        to the right of the meeting point: keep sweeping lane 1 to the end
        of its subquery, shortening and probing as usual."""
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
            # terminal check of the characters patricia navigation skipped,
            # split across both lanes; work, but off the critical path
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


def par_query_tree2(tree: SuffixIndex, anc: AncestryIndex, dct: PairDict,
                    pat: Pattern, ledger: Optional[StepLedger] = None,
                    mapper: Mapper = seq_map) -> QueryResult:
    """Two-lane suffix-tree query over ``anc = build_ancestry(tree)`` and
    the tree's halving dictionary.  ``mapper`` runs lane 1's walk; the
    probe sweep runs in the calling thread and charges ``ledger``."""
    _check_args(tree, anc, dct, pat)
    ledger = ledger if ledger is not None else StepLedger()
    [lane1] = mapper(lambda sub: descend(tree, sub),
                     [pat.chars[:(pat.m + 1) // 2]])
    return _TwoLaneDriver(tree, anc, dct, pat, ledger, lane1).run()


def par_query_tree2_threaded(tree: SuffixIndex, anc: AncestryIndex,
                             dct: PairDict, pat: Pattern) -> QueryResult:
    """:func:`par_query_tree2` with lane 1 on the shared thread pool."""
    return par_query_tree2(tree, anc, dct, pat, None, thread_map)


def _check_args(tree: SuffixIndex, anc: AncestryIndex, dct: PairDict,
                pat: Pattern) -> None:
    if tree.kind != "tree":
        raise ParameterError("par_query_tree2 requires a suffix tree")
    if anc is not tree.ancestry:
        raise ParameterError("ancestry was built from a different tree")
    if dct.owner is not tree:
        raise ParameterError("dictionary was built from a different index")
    if pat.m < 2:
        raise ParameterError("p=2 requires m >= 2 (p < 2m)")
