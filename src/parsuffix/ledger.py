"""Per-lane step counters and simulated-schedule clocks.

A step is one symbol comparison during navigation, one dictionary probe,
one shorten, or one text-compare symbol.  Each lane carries its own clock;
a charge may declare a ready time (dependency on another lane's value),
and the lane executes it no earlier than that.  Span is the latest lane
clock, i.e. the length of the longest dependency-respecting schedule.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class LaneCounters:
    nav_chars: int = 0
    probes: int = 0
    shortens: int = 0
    compares: int = 0

    @property
    def total(self) -> int:
        return self.nav_chars + self.probes + self.shortens + self.compares


class StepLedger:
    def __init__(self) -> None:
        self.lanes: dict[str, LaneCounters] = defaultdict(LaneCounters)
        self.lane_time: dict[str, int] = defaultdict(int)

    def charge(self, lane: str, kind: str, amount: int = 1,
               ready: int = 0, timed: bool = True) -> int:
        """Record ``amount`` steps of ``kind`` on ``lane``.

        The lane's clock advances by ``amount`` starting no earlier than
        ``ready``; returns the completion time.  ``timed=False`` counts the
        steps without scheduling them (used for work that the reported
        span deliberately excludes, e.g. terminal verification).
        """
        counters = self.lanes[lane]
        setattr(counters, kind, getattr(counters, kind) + amount)
        if not timed:
            return self.lane_time[lane]
        t = max(self.lane_time[lane], ready) + amount
        self.lane_time[lane] = t
        return t

    def advance(self, lane: str, amount: int, ready: int = 0) -> int:
        """Move a lane's clock without counting steps: used when work is
        counted elsewhere but its schedule shape differs (e.g. a merge
        whose probes are split across several processors).  A caller that
        keeps a lane's clock itself settles the lane's totals in one call:
        ``charge(..., timed=False)`` per counter, then one ``advance`` to
        the lane's end time (tree-par2's sweep does so)."""
        t = max(self.lane_time[lane], ready) + amount
        self.lane_time[lane] = t
        return t

    def now(self, lane: str) -> int:
        return self.lane_time.get(lane, 0)     # reading adds no lane

    @property
    def work(self) -> int:
        return sum(c.total for c in self.lanes.values())

    @property
    def span(self) -> int:
        return max(self.lane_time.values(), default=0)

    def counter(self, kind: str) -> int:
        return sum(getattr(c, kind) for c in self.lanes.values())

    @property
    def nav_chars(self) -> int:
        return self.counter("nav_chars")

    @property
    def probes(self) -> int:
        return self.counter("probes")

    @property
    def shortens(self) -> int:
        return self.counter("shortens")

    @property
    def compares(self) -> int:
        return self.counter("compares")
