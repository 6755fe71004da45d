"""Layered k-interleaved suffix trees and the layered parallel query.

Layer k indexes every suffix of every k-interleaved subsequence of the
delimiter-extended text.  A query is answered by navigating the j
interleaved subsequences of the pattern in layer j concurrently, then
repeatedly deinterleaving pairs of navigation paths down the layers: a
dictionary per layer maps a pair of nodes (covering the two interleaved
halves of a string) to the node of the deinterleaved string one layer
below.  After lg j rounds the surviving path lives in the ordinary suffix
tree, where the covering node of the whole pattern is verified against the
text and its subtree reported.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .halving import PairDict, PairDictError, probe
from .lanes import Mapper, is_pow2, seq_map, thread_map
from .ledger import StepLedger
from .query import EMPTY, QueryResult
from .suffixindex import (ROOT, NodeId, SuffixIndex, build_suffix_tree,
                          descend, gather, occurrences, verify_against_text)
from .textmodel import Pattern, make_text
from .trieparallel import ParameterError

NavPath = list[tuple[NodeId, int]]          # (node, cumulative skip)


@dataclass(frozen=True)
class LayerIndex:
    k: int
    tree: SuffixIndex


@dataclass
class LayeredIndex:
    layers: dict[int, LayerIndex] = field(default_factory=dict)
    dicts: dict[int, PairDict] = field(default_factory=dict)  # by upper k


def build_layer(raw: bytes | Sequence[int], k: int) -> LayerIndex:
    """Generalized suffix tree over the k interleaved subsequences of the
    text extended with k unique delimiters (so every subsequence ends with
    its own delimiter)."""
    if not is_pow2(k):
        raise ParameterError("layer stride must be a power of two")
    text = make_text(raw, k)
    if text.base_len < 1:
        raise ValueError("text must be nonempty")
    return LayerIndex(k, build_suffix_tree(text))


def build_layer_dict(upper: LayerIndex, lower: LayerIndex) -> PairDict:
    """One entry per lower-layer node: its shortest string, split into the
    two stride-doubled halves, covered by upper-layer nodes.

    A node's halves extend its parent's, so each node resumes the two
    upper-layer walks from its parent's cover nodes.  Node ids are a
    preorder, so visiting them in id order puts each parent before its
    children.
    """
    if upper.k != 2 * lower.k:
        raise ParameterError("layer dict needs strides k and k/2")
    low = lower.tree
    cum, parent = low.cum, low.parent
    lrefs = gather(low.sa, low.leaf_lo)     # each node's leftmost suffix
    even_cover = array("i", [ROOT]) * len(low)
    odd_cover = array("i", even_cover)
    for nid in range(1, len(low)):
        par = parent[nid]
        short_len = cum[par] + 1
        first = lrefs[nid] - 1              # data[first + i]: symbol i
        even_cover[nid] = _cover(upper.tree, even_cover[par], low.data, first,
                                 (short_len + 1) // 2)
        odd_cover[nid] = _cover(upper.tree, odd_cover[par], low.data,
                                first + 1, short_len // 2)
    d = PairDict(owner=upper.tree, target=low)
    for nid in range(1, len(low)):
        d.add(even_cover[nid], odd_cover[nid], nid)
    return d


def _cover(index: SuffixIndex, cur: NodeId, data: Sequence[int], first: int,
           length: int) -> NodeId:
    """First node with cumulative skip >= ``length`` on the navigation path
    of data[first], data[first + 2], ..., resuming at ``cur`` on that path."""
    cum = index.cum
    child = index.child
    while cum[cur] < length:
        nxt = child(cur, data[first + 2 * cum[cur]])
        if nxt is None:
            raise PairDictError("layer navigation fell off (layer mismatch)")
        cur = nxt
    return cur


def build_layered_index(raw: bytes, p: int) -> LayeredIndex:
    if not is_pow2(p):
        raise ParameterError("p must be a power of two")
    idx = LayeredIndex()
    for k in (1 << i for i in range(p.bit_length())):
        idx.layers[k] = build_layer(raw, k)
        if k > 1:
            idx.dicts[k] = build_layer_dict(idx.layers[k], idx.layers[k // 2])
    return idx


def deinterleave_paths(path1: NavPath, path2: NavPath,
                       dct: PairDict) -> tuple[NavPath, int]:
    """Two-pointer merge of two upper-layer paths into the lower-layer path
    of their deinterleaving; returns it with the number of probes made.

    A stored pair for a lower node whose shortest string has length l pairs
    the path-1 node covering ceil(l/2) with the path-2 node covering
    floor(l/2).  Sweeping l upward, pointer 1 moves into its next node when
    l reaches 2*cum1 + 1 and pointer 2 when l reaches 2*cum2 + 2 (cums of
    the current nodes), so advancing in that threshold order and probing
    the current pair after every advance visits every feasible stored pair
    exactly once.  Successful probes come out in increasing-cum order."""
    lower = dct.target
    hits: dict[NodeId, int] = {}
    i = j = 0
    while i < len(path1) - 1 or j < len(path2) - 1:
        can1 = i < len(path1) - 1
        can2 = j < len(path2) - 1
        if can1 and (not can2 or
                     2 * path1[i][1] + 1 < 2 * path2[j][1] + 2):
            i += 1
        else:
            j += 1
        w = probe(dct, path1[i][0], path2[j][0])
        if w is not None:
            hits[w] = lower.cum[w]
    # one probe per pointer advance
    return sorted(hits.items(), key=lambda item: item[1]), i + j


def _sub_len(m: int, i: int, k: int) -> int:
    """Length of the i-th (1-based) k-interleaved subsequence of m chars."""
    return (m - i + k) // k


def _truncate(path: NavPath, length: int) -> NavPath:
    """Drop nodes past the first one covering ``length`` (spurious deeper
    dictionary hits would otherwise shrink the reported subtree)."""
    out: NavPath = []
    for node, cum in path:
        out.append((node, cum))
        if cum >= length:
            break
    return out


def _merge_down(index: LayeredIndex, pat: Pattern, j: int,
                paths: list[NavPath], ledger: StepLedger,
                nav_ready: int, mapper: Mapper) -> NavPath:
    """lg j rounds of pairwise deinterleaving; at stride k, subsequences i
    and i + k/2 combine into the i-th subsequence of stride k/2.  The merge
    clock models each pair's probes split across its idle lanes."""
    k = j
    lanes_per_pair = 2
    t = nav_ready
    while k > 1:
        dct = index.dicts[k]
        half = k // 2

        def merge_one(i: int) -> tuple[NavPath, int]:
            merged, nprobes = deinterleave_paths(paths[i - 1],
                                                 paths[i - 1 + half], dct)
            return (_truncate([(ROOT, 0)] + merged, _sub_len(pat.m, i, half)),
                    nprobes)

        results = mapper(merge_one, range(1, half + 1))
        spans = []
        for _, nprobes in results:
            if nprobes:
                ledger.charge("merge%d" % k, "probes", nprobes, timed=False)
            spans.append(math.ceil(nprobes / lanes_per_pair))
        t = ledger.advance("merge", max(spans), ready=t)
        paths = [merged for merged, _ in results]
        k = half
        lanes_per_pair *= 2
    return paths[0]


def par_query_interleaved(index: LayeredIndex, pat: Pattern, j: int,
                          ledger: Optional[StepLedger] = None,
                          mapper: Mapper = seq_map) -> QueryResult:
    """Layered query: j lanes navigate the pattern's j-interleaved
    subsequences in layer j, then paths are deinterleaved down to layer 1
    where the covering node is verified and reported.  ``mapper`` runs the
    lanes of each round."""
    if j not in index.layers:
        raise ParameterError("j must be a power of two with j <= p")
    ledger = ledger if ledger is not None else StepLedger()
    top = index.layers[j].tree
    navs = mapper(lambda sub: descend(top, sub),
                  [pat.chars[i::j] for i in range(j)])
    nav_ready = 0
    for i, (_, covered) in enumerate(navs, 1):
        if not covered:
            return EMPTY
        chars = _sub_len(pat.m, i, j)
        if chars:
            nav_ready = max(nav_ready,
                            ledger.charge("lane%d" % i, "nav_chars", chars))

    final = _merge_down(index, pat, j, [path for path, _ in navs], ledger,
                        nav_ready, mapper)
    node, cum = final[-1]
    if node == ROOT or cum < pat.m:
        return EMPTY
    tree = index.layers[1].tree
    ledger.charge("verify", "compares", pat.m, timed=False)
    if not verify_against_text(tree, node, pat):
        return EMPTY
    return QueryResult(tuple(occurrences(tree, node)), node)


def par_query_interleaved_threaded(index: LayeredIndex, pat: Pattern,
                                   j: int) -> QueryResult:
    """:func:`par_query_interleaved` with its lanes on the shared thread
    pool."""
    return par_query_interleaved(index, pat, j, None, thread_map)
