"""Parallel suffix-trie query: per-lane chunk navigation followed by
pairwise halving-dictionary merges.

The query string is split into p chunks by recursive halving (left part
gets the ceiling at every level), which guarantees that every aligned
merge group's left half covers exactly half of the group, matching the
stored halving pairs.  Lanes navigate their chunks independently; lg p
merge rounds then probe adjacent representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .halving import PairDict, probe
from .lanes import Mapper, is_pow2, seq_map, thread_map
from .ledger import StepLedger
from .query import EMPTY, QueryResult
from .suffixindex import ROOT, NodeId, SuffixIndex, navigate, occurrences
from .textmodel import Pattern


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class SubqueryAssignment:
    p: int
    lengths: tuple[int, ...]
    offsets: tuple[int, ...]   # 1-based start of each chunk


def assign_subqueries(m: int, p: int) -> SubqueryAssignment:
    """Chunk lengths by recursive halving: split m into ceil | floor and
    recurse lg p times.  Requires p a power of two with p < 2m."""
    if not is_pow2(p):
        raise ParameterError("p must be a power of two")
    if not 1 <= p < 2 * m:
        raise ParameterError("need 1 <= p < 2m")
    lengths = [m]
    while len(lengths) < p:
        nxt = []
        for s in lengths:
            nxt.append((s + 1) // 2)
            nxt.append(s // 2)
        lengths = nxt
    offsets = []
    pos = 1
    for ln in lengths:
        offsets.append(pos)
        pos += ln
    return SubqueryAssignment(p, tuple(lengths), tuple(offsets))


def par_query_trie(trie: SuffixIndex, dct: PairDict, pat: Pattern, p: int,
                   ledger: Optional[StepLedger] = None,
                   mapper: Mapper = seq_map) -> QueryResult:
    """Algorithm: p lanes navigate their chunks, then lg p merge rounds
    probe adjacent pairs.  Any navigation or probe failure means the
    pattern is absent.  ``mapper`` runs the lanes' navigation; a merge
    round is one dictionary lookup per lane and runs in the calling
    thread."""
    if trie.kind != "trie":
        raise ParameterError("par_query_trie requires a suffix trie")
    if dct.owner is not trie:
        raise ParameterError("dictionary was built from a different index")
    ledger = ledger if ledger is not None else StepLedger()
    asn = assign_subqueries(pat.m, p)
    chunks = [pat.chars[off - 1:off - 1 + ln]
              for off, ln in zip(asn.offsets, asn.lengths)]
    navs = mapper(lambda chunk: navigate(trie, chunk), chunks)

    reps: list[NodeId] = [ROOT] * (p + 1)     # 1-based lanes
    done: list[int] = [0] * (p + 1)           # lane completion times
    for i, (node, cum, covered) in enumerate(navs, 1):
        reps[i] = node
        # a fell-off lane still paid for its failing comparison
        consumed = cum if covered else cum + 1
        if consumed > 0:
            done[i] = ledger.charge("lane%d" % i, "nav_chars", consumed)
    if not all(covered for _, _, covered in navs):
        return EMPTY

    j = 1
    while j < p:
        hit = True
        for g in range(1, p + 1, 2 * j):
            w = probe(dct, reps[g], reps[g + j])
            done[g] = ledger.charge("lane%d" % g, "probes", 1,
                                    ready=max(done[g], done[g + j]))
            if w is None:
                hit = False
            else:
                reps[g] = w
        if not hit:
            return EMPTY
        j *= 2
    return QueryResult(tuple(occurrences(trie, reps[1])), reps[1])


def par_query_trie_threaded(trie: SuffixIndex, dct: PairDict, pat: Pattern,
                            p: int) -> QueryResult:
    """:func:`par_query_trie` with its lanes on the shared thread pool."""
    return par_query_trie(trie, dct, pat, p, None, thread_map)
