"""Two-lane parallel query in the suffix tree.

Lane 1 blindly navigates the left half of the query from the root.  Lane 2
navigates a right portion starting roughly one quarter in, node to node;
whenever lane 1 overtakes lane 2's anchored start, lane 2's string is
shortened from the left by a suffix-link level ancestor, so that the two
matched strings always concatenate to a prefix of the query.  The pair of
current nodes is probed in the halving dictionary as the split point
sweeps right; the deepest verified hit is the query's node.

The sweep keeps four invariants (:func:`_sweep` gives details):

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
from .halving import PairDict
from .lanes import Mapper, seq_map, thread_map
from .ledger import StepLedger
from .query import EMPTY, QueryResult
from .suffixindex import (NO_PARENT, NO_SYM, ROOT, NodeId, SuffixIndex,
                          descend, occurrences, verify_against_text)
from .textmodel import Pattern
from .trieparallel import ParameterError


def _sweep(tree: SuffixIndex, anc: AncestryIndex, dct: PairDict,
           pat: Pattern, ledger: StepLedger,
           lane1: tuple[list[tuple[NodeId, int]], bool]
           ) -> tuple[set[NodeId], Optional[NodeId], Optional[int]]:
    """Runs the probe sweep against lane 1's walk of Q[1 .. half]: the
    path :func:`descend` returned and whether it covers the subquery.
    Returns the dictionary hits, lane 1's last node (None when the
    pattern cannot occur) and, when a lane reached a leaf, the one
    candidate position (else None).

    Lane 2's string is Q[anchor+1 .. anchor+cum2].  Four invariants hold:

    1. Lane 2 stands on a node b2, so cum2 is cum(b2): a move takes it
       onto a child, a restart to the root, and a shorten by d < cum(b2)
       to the suffix-link level ancestor, an internal node exactly d
       shorter (``level_ancestor_sl`` raises where there is none).
       Reaching a leaf ends the sweep, so lane 2 never shortens from one.
    2. Once aligned, anchor == cum1: alignment and every later shorten or
       restart set it, and lane-2 moves keep it.
    3. No probe has the root as its left part: probes start at alignment,
       and pair a lane-1 node of cum >= anchor >= start2 >= 1.
    4. Lane 1's clock is min(cum1, half) past its start: lane 1 charges
       only its edges, one after another, cut at half.

    Probes pair lane 1's node a with lane 2's node b and those ancestors
    of b that can be stored as a's right part: after a shorten, the stored
    right part may be any prefix of lane 2's covered string, but only a
    window of them.  The window follows from
    :func:`build_tree_halving_dict`'s rule, and a container stores the
    entries that function makes, so loaded dictionaries keep it too.  The
    pair (b1, b2) stored for a node x with parent u != ROOT splits x's
    shortest string, of length L = cum(u) + 1.  With A = cum(b1) and
    P = cum(parent(b1)), b1 is the shallowest node covering half of it,
    so P < ceil(L/2) <= A, that is 2P < L <= 2A; and parent(b2) is the
    suffix-link level ancestor of u at depth A, of cum L - 1 - A.  Hence

        2P - A <= cum(parent(b2)) <= A - 1.

    A child x of the root is stored as (x, ROOT): the right part ROOT
    needs P = 0, and b1 is never ROOT.  Cums fall up b's root path, so
    the walk stops once a parent's cum drops below 2P - A.

    So a sweep is linear in m.  Every right part probed against a (in the
    walks and in the lookaheads) is a distinct node on one root path,
    lane 2's path from cum(a), with its parent's cum in the window and
    below m - cum(a).  Lane 1's nodes a_1 .. a_k run down one path, so
    the windows of a_1 .. a_(k-1) hold at most 2 cum(a_(k-1)) cums in
    all and a_k's at most m - cum(a_k); with the one ROOT probe and
    cum(a_(k-1)) < ceil(m/2) that is at most m + ceil(m/2) - 1 probes,
    within the 2m + 2 the harness checks.

    The sweep keeps its counts and lane 2's clock in local variables and
    charges the ledger once per lane when it ends, exits included.  Lane
    1's edges are charged as peeked, so only edges the sweep reaches
    count, and their charges telescope to min(cum, half) of the last
    peeked edge.  Lane 2's clock runs t2 = max(t2, ready) + amount.  Each
    distinct probed pair is one probe.  The per-step code spells min and
    max as conditional expressions: the calls cost more than the step."""
    cum, parent, sa, leaf_lo = tree.cum, tree.parent, tree.sa, tree.leaf_lo
    fsym, cstart, cid, csym = tree.fsym, tree.cstart, tree.cid, tree.csym
    chars, m = pat.chars, pat.m
    walk1, covers1 = lane1
    n1 = len(walk1)
    half = (m + 1) // 2
    anchor = (m + 3) // 4                # start2: lane 2 starts after it
    t_init = anchor + 1
    t1 = ledger.now("lane1")
    t2 = t2_start = ledger.now("lane2")
    b1, cum1 = ROOT, 0
    next1 = 1                            # walk1 index of lane 1's next node
    peeked1 = 0                          # walk1 index of its last charged edge
    b2, cum2 = ROOT, 0
    nav2 = shortens = 0
    hits: set[NodeId] = set()
    entries = dct.entries                # keyed a << 32 | b, as probe() does
    probed: set[int] = set()             # pairs probed, keyed alike
    covered = False                      # some hit covers the whole query
    aligned = False

    def lookup(a: NodeId, b: NodeId) -> None:
        nonlocal covered
        key = a << 32 | b
        if key not in probed:
            probed.add(key)
            w = entries.get(key)
            if w is not None:
                hits.add(w)
                if cum[w] >= m:
                    covered = True

    def window(a: NodeId, b: NodeId) -> None:
        """Probe a against b and its ancestors in a's window."""
        pa = parent[a]
        if pa == ROOT:
            lookup(a, ROOT)
        high = cum[a]
        low = 2 * cum[pa] - high
        while b != ROOT:
            pb = parent[b]
            up = cum[pb]
            if up < low:
                break
            if up < high:
                lookup(a, b)
            b = pb

    def align(base_b2: NodeId, base_cum2: int, base_anchor: int,
              front: int) -> tuple[NodeId, int]:
        """First moment lane 1 reaches lane 2's anchored start: replay the
        shortening for every lane-1 node up to walk1[front - 1], probing
        each replayed state (splits in that band would otherwise be passed
        without a probe).  Returns lane 2's node and the shortens made."""
        e2 = base_anchor + base_cum2
        count = 0
        for node1, v in walk1[:front]:
            if v < base_anchor:
                continue
            d = v - base_anchor
            if d == 0:
                node_v = base_b2
            elif d < base_cum2:
                node_v = level_ancestor_sl(anc, base_b2, d)
                count += 1
            else:
                node_v = ROOT
            window(node1, node_v)
            # lane 2's next node may complete this split's stored pair
            if e2 < m:
                nxt = tree.child(node_v, chars[e2])
                if nxt is not None and \
                        2 * cum[parent[node1]] - v <= cum[node_v] < v:
                    lookup(node1, nxt)
        return node_v, count     # the loop ends at lane 1's node, v == cum1

    try:
        # initial phase: both lanes walk on their own to their last node
        # not beyond t_init
        while next1 < n1:
            peeked1 = next1
            node, c = walk1[next1]
            if c > t_init:
                break
            b1, cum1 = node, c
            next1 += 1
            if fsym[node] == NO_SYM:
                return hits, b1, sa[leaf_lo[node]]
        else:
            if not covers1:
                return hits, None, None
        while anchor + cum2 < m:
            # SuffixIndex.child, inlined here and below (a leaf's empty
            # range would fail the search)
            c = chars[anchor + cum2]
            if fsym[b2] == c:
                nxt = b2 + 1
            else:
                try:
                    nxt = cid[csym.index(c, cstart[b2], cstart[b2 + 1])]
                except ValueError:
                    return hits, None, None
            c = cum[nxt]
            if c > t_init:
                break
            step = (c if c < m - anchor else m - anchor) - cum2
            nav2 += step
            t2 += step                   # reads nothing of lane 1
            b2, cum2 = nxt, c
            if fsym[nxt] == NO_SYM:
                return hits, b1, sa[leaf_lo[nxt]] - anchor
        while True:
            # lane 1 has moved: shorten lane 2 from the left by the overlap
            # (invariant 2), or align on first reaching its start
            ready = t1 + (cum1 if cum1 < half else half) + 1   # reads b1
            if aligned:
                ov = cum1 - anchor
                anchor = cum1
                if ov >= cum2:
                    # lane 1 covers lane 2's whole string: lane 2 restarts
                    b2, cum2 = ROOT, 0
                else:
                    b2 = level_ancestor_sl(anc, b2, ov)
                    cum2 = cum[b2]
                    shortens += 1
                    t2 = (t2 if t2 > ready else ready) + 1
                    window(b1, b2)
            elif cum1 >= anchor:
                b2, count = align(b2, cum2, anchor, next1)
                cum2 = cum[b2]
                anchor = cum1
                aligned = True
                if count:
                    shortens += count
                    t2 = max(t2, ready) + count
            # lane 2 takes its next edge unless that would make it longer
            # than lane 1 while lane 1 can still advance
            while True:
                if cum1 + cum2 >= m:
                    # the concatenation covers Q, but the stored split may
                    # sit right of the meeting point: lane 1 keeps sweeping
                    # to the end of its subquery
                    if covered:
                        return hits, b1, None
                    if next1 == n1:
                        return hits, b1 if covers1 else None, None
                    break
                e2 = anchor + cum2
                if e2 >= m:
                    # lane 2 exhausted: only reachable while lane 1 lags
                    if next1 < n1:
                        break
                    if not covers1:
                        return hits, None, None
                    raise AssertionError("both lanes stuck before covering Q")
                c = chars[e2]
                if fsym[b2] == c:
                    nxt = b2 + 1
                else:
                    try:
                        nxt = cid[csym.index(c, cstart[b2],
                                             cstart[b2 + 1])]
                    except ValueError:
                        return hits, None, None
                c = cum[nxt]
                if cum1 < c:
                    if next1 < n1:
                        # the balance condition skips exactly the stored
                        # pair when that next edge is long: probe it
                        # before overtaking
                        if aligned and \
                                2 * cum[parent[b1]] - cum1 <= cum2 < cum1:
                            lookup(b1, nxt)
                        break
                    if not covers1:
                        return hits, None, None
                step = (c if c < m - anchor else m - anchor) - cum2
                nav2 += step
                t2 = (t2 if t2 > ready else ready) + step
                b2, cum2 = nxt, c
                if fsym[nxt] == NO_SYM:
                    return hits, b1, sa[leaf_lo[nxt]] - anchor
                if aligned:
                    window(b1, nxt)
            # lane 1 moves onto its next edge
            peeked1 = next1
            b1, cum1 = walk1[next1]
            next1 += 1
            if fsym[b1] == NO_SYM:
                return hits, b1, sa[leaf_lo[b1]]
    finally:
        nav1 = min(walk1[peeked1][1], half)
        if nav1:
            ledger.charge("lane1", "nav_chars", nav1, timed=False)
            ledger.advance("lane1", nav1)
        if nav2 or shortens:
            ledger.charge("lane2", "nav_chars", nav2, timed=False)
            ledger.charge("lane2", "shortens", shortens, timed=False)
            ledger.advance("lane2", t2 - t2_start)
        if probed:
            ledger.charge("probe", "probes", len(probed), timed=False)


def _promote(tree: SuffixIndex, nid: NodeId, m: int) -> NodeId:
    """Shallowest ancestor-or-self still covering the whole query."""
    parent, cum = tree.parent, tree.cum
    while True:
        par = parent[nid]
        if par == NO_PARENT or cum[par] < m:
            return nid
        nid = par


def par_query_tree2(tree: SuffixIndex, anc: AncestryIndex, dct: PairDict,
                    pat: Pattern, ledger: Optional[StepLedger] = None,
                    mapper: Mapper = seq_map) -> QueryResult:
    """Two-lane suffix-tree query over ``anc = build_ancestry(tree)`` and
    the tree's halving dictionary.  ``mapper`` runs lane 1's walk; the
    probe sweep runs in the calling thread and charges ``ledger``."""
    _check_args(tree, anc, dct, pat)
    ledger = ledger if ledger is not None else StepLedger()
    m = pat.m
    half = (m + 1) // 2
    [lane1] = mapper(lambda sub: descend(tree, sub), [pat.chars[:half]])
    hits, b1, leaf = _sweep(tree, anc, dct, pat, ledger, lane1)
    if leaf is not None:
        # a lane reached a leaf: at most one occurrence, at ``leaf``
        if leaf < 1 or leaf + m - 1 > tree.base_len:
            return EMPTY
        ledger.charge("lane1", "compares", half, timed=False)
        ledger.charge("lane2", "compares", m - half, timed=False)
        if tree.data[leaf - 1: leaf - 1 + m] != pat.chars:
            return EMPTY
        return QueryResult((leaf,), None)
    if b1 is None:
        return EMPTY
    candidates = {_promote(tree, h, m) for h in hits if tree.cum[h] >= m}
    if tree.cum[b1] >= m:
        candidates.add(_promote(tree, b1, m))
    for cand in candidates:
        # terminal check of the characters patricia navigation skipped,
        # split across both lanes; work, but off the critical path
        ledger.charge("lane1", "compares", half, timed=False)
        ledger.charge("lane2", "compares", m - half, timed=False)
        if verify_against_text(tree, cand, pat):
            return QueryResult(tuple(occurrences(tree, cand)), cand)
    return EMPTY


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
