"""Sequential reference queries and the common query result type."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ledger import StepLedger
from .suffixindex import (NodeId, SuffixIndex, navigate, occurrences,
                          verify_against_text)
from .textmodel import Pattern


@dataclass(frozen=True)
class QueryResult:
    positions: tuple[int, ...]
    node: Optional[NodeId] = None

    @property
    def found(self) -> bool:
        return bool(self.positions)


EMPTY = QueryResult(())


def seq_query(index: SuffixIndex, pat: Pattern,
              ledger: Optional[StepLedger] = None) -> QueryResult:
    """One-lane patricia query: navigate, verify skipped characters
    (trees only; trie navigation is exact), report occurrences."""
    ledger = ledger if ledger is not None else StepLedger()
    node, cum, covered = navigate(index, pat.chars)
    ledger.charge("seq", "nav_chars", min(cum, pat.m) or 1)
    if not covered:
        return EMPTY
    if index.kind == "tree":
        ledger.charge("seq", "compares", pat.m)
        if not verify_against_text(index, node, pat):
            return EMPTY
    return QueryResult(tuple(occurrences(index, node)), node)
