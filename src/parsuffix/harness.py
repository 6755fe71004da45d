"""Cross-algorithm equivalence harness: naive oracle, randomized corpus
generation, the algorithm registry, and per-case execution with work/span
reports.

Every algorithm under test must return exactly the naive-scan position
set; a mismatch raises with the case's seed so the failure is one command
away from reproduction.  The harness also checks the step-ledger laws
(work/span identities and bounds) that the per-algorithm analyses claim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .ancestry import build_ancestry
from .interleaved import par_query_interleaved
from .lanes import Mapper, is_pow2, seq_map, thread_map
from .ledger import StepLedger
from .query import QueryResult, seq_query
from .serial import Container, build_container
from .textmodel import Pattern
from .treeparallel import par_query_tree2
from .trieparallel import par_query_trie

# A suffix trie has a node per distinct substring; cap the text size for
# trie-backed algorithms so corpus runs stay near-linear overall.
TRIE_N_CAP = 256
# The lane counts run_case tries: trie-par's p, interleaved's j (its
# index is built with p = max(J_VALUES) layers).
P_VALUES = (2, 4, 8, 16)
J_VALUES = (2, 4, 8)


def oracle_scan(raw: bytes | Sequence[int], pat: Pattern) -> tuple[int, ...]:
    """Ground truth: all 1-based i with raw[i..i+m-1] == pat, overlaps
    included."""
    hay = tuple(raw)
    m = pat.m
    return tuple(i + 1 for i in range(len(hay) - m + 1)
                 if hay[i:i + m] == pat.chars)


@dataclass(frozen=True)
class CorpusCase:
    """One reproducible random case; the seed alone determines the text
    and pattern."""

    seed: int
    n: int
    sigma: int
    m: int
    mode: str   # "present" | "random" | "mutated"

    def materialize(self) -> tuple[bytes, Pattern]:
        rng = random.Random(self.seed)
        raw = bytes(rng.randrange(97, 97 + self.sigma) for _ in range(self.n))
        m = min(self.m, self.n)
        if self.mode == "random":
            q = bytes(rng.randrange(97, 97 + self.sigma + 1) for _ in range(m))
        else:
            i = rng.randrange(0, self.n - m + 1)
            q = bytearray(raw[i:i + m])
            if self.mode == "mutated":
                q[rng.randrange(m)] ^= 1 << rng.randrange(2)
            q = bytes(q)
        return raw, Pattern.from_bytes(q)


def generate_corpus(trials: int, seed: int, n_lo: int = 8, n_hi: int = 2000,
                    sigmas: Sequence[int] = (1, 2, 4, 26)) -> list[CorpusCase]:
    """Deterministic corpus: text length log-uniform in [n_lo, n_hi] so
    small adversarial cases dominate while large ones still appear."""
    rng = random.Random(seed)
    cases = []
    for _ in range(trials):
        n = round(math.exp(rng.uniform(math.log(n_lo), math.log(n_hi))))
        sigma = rng.choice(list(sigmas))
        m = rng.randrange(1, n + 1)
        mode = rng.choice(["present", "present", "random", "mutated"])
        cases.append(CorpusCase(rng.randrange(1 << 48), n, sigma, m, mode))
    return cases


@dataclass
class AlgoReport:
    name: str            # e.g. "trie-par p=4"
    work: int
    span: int
    positions: tuple[int, ...]
    ledger: StepLedger


@dataclass
class CaseReport:
    case: CorpusCase
    expected: tuple[int, ...]
    runs: list[AlgoReport] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


class EquivalenceError(AssertionError):
    pass


# -- the algorithm registry ---------------------------------------------------


@dataclass(frozen=True)
class Algorithm:
    """One query algorithm: the container kinds it runs on (the first is
    the one :func:`run_case` builds for it), its lane-count rule, how to
    run it on a container of its kind and the ledger laws every run must
    keep."""

    name: str
    kinds: tuple[str, ...]
    lane: str          # the lane count a caller picks ("p", "j"); "" if none
    # why (pattern, lane count) cannot run, beyond a power of two; or None
    rule: Callable[[Pattern, Optional[int], Container], Optional[str]]
    run: Callable[[Container, Pattern, Optional[int], StepLedger, Mapper],
                  QueryResult]
    # the law a finished run broke, or None
    law: Callable[[Pattern, Optional[int], StepLedger, QueryResult],
                  Optional[str]]

    def unusable(self, pat: Pattern, param: Optional[int],
                 c: Container) -> Optional[str]:
        if self.lane and not is_pow2(param):
            return "%s not a power of two" % self.lane
        return self.rule(pat, param, c)


def _trie_par_law(pat, p, led, res):
    # work identity: m characters + one probe per merged pair; a run that
    # finds nothing stops early and does no more than that
    if res.found and led.work != pat.m + (p - 1):
        return "work law violated: work=%d m=%d p=%d" % (led.work, pat.m, p)
    if not res.found and (led.nav_chars > pat.m or led.probes > p - 1):
        return "absent law violated: nav=%d probes=%d m=%d p=%d" % (
            led.nav_chars, led.probes, pat.m, p)
    span_cap = -(-pat.m // p) + p.bit_length() - 1     # ceil(m/p) + lg p
    if led.span > span_cap:
        return "span law violated: span=%d cap=%d" % (led.span, span_cap)
    return None


def _tree_par2_law(pat, _, led, res):
    nav_cap = -(-5 * pat.m // 4) + 2
    if led.nav_chars > nav_cap:
        return "nav law violated: nav=%d cap=%d" % (led.nav_chars, nav_cap)
    if led.span > pat.m + 4:
        return "span law violated: span=%d m=%d" % (led.span, pat.m)
    if led.probes > 2 * pat.m + 2:
        return "probe law violated: probes=%d m=%d" % (led.probes, pat.m)
    return None


def _interleaved_law(pat, j, led, res):
    if res.found and pat.m >= j > 1:
        span_cap = 4 * (pat.m / j) * math.log2(j)
        if led.span > span_cap:
            return "span law violated: span=%d cap=%.1f j=%d" % (
                led.span, span_cap, j)
    return None


ALGORITHMS: dict[str, Algorithm] = {a.name: a for a in (
    Algorithm("seq", ("tree", "trie"), "", lambda *_: None,
              lambda c, pat, _, led, mapper: seq_query(c.index, pat, led),
              lambda *_: None),
    Algorithm("trie-par", ("trie",), "p",
              lambda pat, p, c: "p >= 2m" if p >= 2 * pat.m else None,
              lambda c, pat, p, led, mapper: par_query_trie(
                  c.index, c.dct, pat, p, led, mapper),
              _trie_par_law),
    Algorithm("tree-par2", ("tree",), "",
              lambda pat, _, c: "m < 2" if pat.m < 2 else None,
              lambda c, pat, _, led, mapper: par_query_tree2(
                  c.index, build_ancestry(c.index), c.dct, pat, led, mapper),
              _tree_par2_law),
    Algorithm("interleaved", ("interleaved",), "j",
              lambda pat, j, c: "j > p" if j > c.p else None,
              lambda c, pat, j, led, mapper: par_query_interleaved(
                  c.layered, pat, j, led, mapper),
              _interleaved_law),
)}


def _counts(led: StepLedger) -> tuple[int, ...]:
    return (led.work, led.span, led.nav_chars, led.probes, led.shortens,
            led.compares)


def _check(report: CaseReport, name: str, positions: tuple[int, ...]) -> None:
    if positions != report.expected:
        raise EquivalenceError(
            "%s returned %r, oracle says %r (reproduce with seed=%d n=%d "
            "sigma=%d m=%d mode=%s)" %
            (name, positions, report.expected, report.case.seed,
             report.case.n, report.case.sigma, report.case.m,
             report.case.mode))


def run_case(case: CorpusCase, algorithms: Iterable[str] = ALGORITHMS,
             threaded: bool = False) -> CaseReport:
    """Run the selected algorithms, assert oracle equality and the ledger
    laws, and return per-run (work, span, result).  Each algorithm runs on
    a container of its first kind, built once per case; lane counts an
    algorithm cannot use (e.g. p >= 2m) and the trie above
    :data:`TRIE_N_CAP` are recorded in ``skipped``.  With ``threaded`` each
    run is repeated on the shared thread pool, which must give the same
    positions and the same ledger counts."""
    algorithms = set(algorithms)
    unknown = algorithms - set(ALGORITHMS)
    if unknown:
        raise ValueError("unknown algorithms: %s" % sorted(unknown))
    raw, pat = case.materialize()
    report = CaseReport(case=case, expected=oracle_scan(raw, pat))
    conts = {kind: build_container(raw, kind, max(J_VALUES))
             for kind in {ALGORITHMS[a].kinds[0] for a in algorithms}
             if kind != "trie" or len(raw) <= TRIE_N_CAP}
    lane_values = {"p": P_VALUES, "j": J_VALUES, "": (None,)}

    for algo in ALGORITHMS.values():
        if algo.name not in algorithms:
            continue
        cont = conts.get(algo.kinds[0])
        if cont is None:
            report.skipped.append("%s (no %s index)" % (algo.name,
                                                        algo.kinds[0]))
            continue
        for param in lane_values[algo.lane]:
            name = "%s %s=%d" % (algo.name, algo.lane, param) if algo.lane \
                else algo.name
            why = algo.unusable(pat, param, cont)
            if why:
                report.skipped.append("%s (%s)" % (name, why))
                continue
            led = StepLedger()
            res = algo.run(cont, pat, param, led, seq_map)
            if threaded:
                thr_led = StepLedger()
                thr = algo.run(cont, pat, param, thr_led, thread_map)
                _check(report, name + " threaded", thr.positions)
                if _counts(thr_led) != _counts(led):
                    raise EquivalenceError(
                        "%s threaded ledger %r differs from simulated %r "
                        "(work, span, counters; seed=%d)" %
                        (name, _counts(thr_led), _counts(led), case.seed))
            _check(report, name, res.positions)
            broken = algo.law(pat, param, led, res)
            if broken:
                raise EquivalenceError("%s %s (seed=%d)" %
                                       (name, broken, case.seed))
            report.runs.append(AlgoReport(name, led.work, led.span,
                                          res.positions, led))
    return report


def run_corpus(trials: int, seed: int,
               threaded: bool = False) -> list[CaseReport]:
    """Generate and run a whole corpus; returns all case reports (raises
    on the first mismatch)."""
    return [run_case(case, threaded=threaded)
            for case in generate_corpus(trials, seed)]
