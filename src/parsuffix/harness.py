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

from .ancestry import AncestryIndex, build_ancestry
from .halving import PairDict, build_tree_halving_dict, build_trie_halving_dict
from .interleaved import (LayeredIndex, build_layered_index,
                          par_query_interleaved)
from .lanes import Mapper, is_pow2, seq_map, thread_map
from .ledger import StepLedger
from .query import QueryResult, seq_query
from .suffixindex import SuffixIndex, build_suffix_tree, build_suffix_trie
from .textmodel import Pattern, make_text
from .treeparallel import par_query_tree2
from .trieparallel import par_query_trie

# A suffix trie has a node per distinct substring; cap the text size for
# trie-backed algorithms so corpus runs stay near-linear overall.
TRIE_N_CAP = 256


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


@dataclass
class IndexBundle:
    """The indexes queries run on: all a case needs, built once and shared
    across algorithms, or those of one loaded container."""

    raw: bytes
    tree: Optional[SuffixIndex] = None
    anc: Optional[AncestryIndex] = None
    tree_dict: Optional[PairDict] = None
    trie: Optional[SuffixIndex] = None
    trie_dict: Optional[PairDict] = None
    interleaved: Optional[LayeredIndex] = None


def build_bundle(raw: bytes, want_trie: bool = True,
                 layered_p: int = 8) -> IndexBundle:
    text = make_text(raw, 1)
    tree = build_suffix_tree(text)
    bundle = IndexBundle(raw=raw, tree=tree, anc=build_ancestry(tree),
                         tree_dict=build_tree_halving_dict(tree))
    if want_trie and len(raw) <= TRIE_N_CAP:
        bundle.trie = build_suffix_trie(text)
        bundle.trie_dict = build_trie_halving_dict(bundle.trie)
    if layered_p >= 2:
        bundle.interleaved = build_layered_index(raw, layered_p)
    return bundle


# -- the algorithm registry ---------------------------------------------------


@dataclass(frozen=True)
class Algorithm:
    """One query algorithm: the container kinds it runs on (the first is
    the one it uses when a bundle holds several), its lane-count rule, how
    to run it and the ledger laws every run must keep."""

    name: str
    kinds: tuple[str, ...]
    lane: str          # the lane count a caller picks ("p", "j"); "" if none
    # why (pattern, lane count) cannot run, beyond a power of two; or None
    rule: Callable[[Pattern, Optional[int], IndexBundle], Optional[str]]
    run: Callable[[IndexBundle, Pattern, Optional[int], StepLedger, Mapper],
                  QueryResult]
    # the law a finished run broke, or None
    law: Callable[[Pattern, Optional[int], StepLedger, QueryResult],
                  Optional[str]]

    def unusable(self, pat: Pattern, param: Optional[int],
                 b: IndexBundle) -> Optional[str]:
        if self.lane and not is_pow2(param):
            return "%s not a power of two" % self.lane
        return self.rule(pat, param, b)


def _trie_par_law(pat, p, led, res):
    # work identity: m characters + one probe per merged pair
    if res.found and led.work != pat.m + (p - 1):
        return "work law violated: work=%d m=%d p=%d" % (led.work, pat.m, p)
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
              lambda b, pat, _, led, mapper: seq_query(
                  b.tree if b.tree is not None else b.trie, pat, led),
              lambda *_: None),
    Algorithm("trie-par", ("trie",), "p",
              lambda pat, p, b: "p >= 2m" if p >= 2 * pat.m else None,
              lambda b, pat, p, led, mapper: par_query_trie(
                  b.trie, b.trie_dict, pat, p, led, mapper),
              _trie_par_law),
    Algorithm("tree-par2", ("tree",), "",
              lambda pat, _, b: "m < 2" if pat.m < 2 else None,
              lambda b, pat, _, led, mapper: par_query_tree2(
                  b.tree, b.anc, b.tree_dict, pat, led, mapper),
              _tree_par2_law),
    Algorithm("interleaved", ("interleaved",), "j",
              lambda pat, j, b: "j > p" if j > b.interleaved.p else None,
              lambda b, pat, j, led, mapper: par_query_interleaved(
                  b.interleaved, pat, j, led, mapper),
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
             p_values: Sequence[int] = (2, 4, 8, 16),
             j_values: Sequence[int] = (2, 4, 8),
             bundle: Optional[IndexBundle] = None,
             threaded: bool = False,
             check_laws: bool = True) -> CaseReport:
    """Run the selected algorithms, assert oracle equality, and return
    per-run (work, span, result).  Lane counts an algorithm cannot use
    (e.g. p >= 2m) and missing indexes are recorded in ``skipped``.  With
    ``threaded`` each run is repeated on the shared thread pool, which must
    give the same positions and the same ledger counts."""
    algorithms = set(algorithms)
    unknown = algorithms - set(ALGORITHMS)
    if unknown:
        raise ValueError("unknown algorithms: %s" % sorted(unknown))
    raw, pat = case.materialize()
    report = CaseReport(case=case, expected=oracle_scan(raw, pat))
    if bundle is None:
        kinds = {ALGORITHMS[a].kinds[0] for a in algorithms}
        bundle = build_bundle(raw, want_trie="trie" in kinds,
                              layered_p=max(j_values, default=0)
                              if "interleaved" in kinds else 0)
    lane_values = {"p": p_values, "j": j_values, "": (None,)}

    for algo in ALGORITHMS.values():
        if algo.name not in algorithms:
            continue
        if getattr(bundle, algo.kinds[0]) is None:
            report.skipped.append("%s (no %s index)" % (algo.name,
                                                        algo.kinds[0]))
            continue
        for param in lane_values[algo.lane]:
            name = "%s %s=%d" % (algo.name, algo.lane, param) if algo.lane \
                else algo.name
            why = algo.unusable(pat, param, bundle)
            if why:
                report.skipped.append("%s (%s)" % (name, why))
                continue
            led = StepLedger()
            res = algo.run(bundle, pat, param, led, seq_map)
            if threaded:
                thr_led = StepLedger()
                thr = algo.run(bundle, pat, param, thr_led, thread_map)
                _check(report, name + " threaded", thr.positions)
                if _counts(thr_led) != _counts(led):
                    raise EquivalenceError(
                        "%s threaded ledger %r differs from simulated %r "
                        "(work, span, counters; seed=%d)" %
                        (name, _counts(thr_led), _counts(led), case.seed))
            _check(report, name, res.positions)
            broken = algo.law(pat, param, led, res) if check_laws else None
            if broken:
                raise EquivalenceError("%s %s (seed=%d)" %
                                       (name, broken, case.seed))
            report.runs.append(AlgoReport(name, led.work, led.span,
                                          res.positions, led))
    return report


def run_corpus(trials: int, seed: int, n_lo: int = 8, n_hi: int = 2000,
               sigmas: Sequence[int] = (1, 2, 4, 26),
               algorithms: Iterable[str] = ALGORITHMS,
               threaded: bool = False,
               progress=None) -> list[CaseReport]:
    """Generate and run a whole corpus; returns all case reports (raises
    on the first mismatch)."""
    reports = []
    for case in generate_corpus(trials, seed, n_lo, n_hi, sigmas):
        reports.append(run_case(case, algorithms, threaded=threaded))
        if progress is not None:
            progress(reports[-1])
    return reports
