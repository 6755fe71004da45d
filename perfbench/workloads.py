"""The benchmark's workloads: their texts, patterns, index stack and the
mixed list of (pattern, algorithm, mode) calls a query phase cycles over.

Each workload builds the full index stack over every text it holds: the
suffix tree, its ancestry (suffix links), the tree halving dictionary and
the layered index with p=4 over the text, and the suffix trie with its
halving dictionary over the text's first 256 characters (the trie has a
node per distinct substring, so it stays small).  Workloads differ in the
texts and patterns, which decide the layer that dominates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from parsuffix.ancestry import AncestryIndex, build_ancestry
from parsuffix.halving import (PairDict, build_tree_halving_dict,
                               build_trie_halving_dict)
from parsuffix.harness import oracle_scan
from parsuffix.interleaved import (LayeredIndex, build_layered_index,
                                   par_query_interleaved,
                                   par_query_interleaved_threaded)
from parsuffix.ledger import StepLedger
from parsuffix.query import seq_query
from parsuffix.suffixindex import (SuffixIndex, build_suffix_tree,
                                   build_suffix_trie)
from parsuffix.textmodel import Pattern, make_text
from parsuffix.treeparallel import par_query_tree2, par_query_tree2_threaded
from parsuffix.trieparallel import par_query_trie, par_query_trie_threaded

from families import (fibonacci_text, patterns, periodic_text, random_text,
                      unary_text)

LAYERS_P = 4
TRIE_N = 256
ALL_KINDS = ("sampled", "mutated", "random")


@dataclass(frozen=True)
class Spec:
    families: tuple[str, ...]      # keys of TEXT_FAMILIES
    n: int
    lengths: tuple[int, ...]       # pattern lengths against the text
    kinds: tuple[str, ...]
    per_cell: int                  # patterns per (length, kind)
    trie_lengths: tuple[int, ...]  # pattern lengths against the trie text
    rounds: int                    # rounds per run: set-up samples


TEXT_FAMILIES: dict[str, Callable[[random.Random, int], bytes]] = {
    "random-s4": lambda rng, n: random_text(rng, n, 4),
    "random-s2": lambda rng, n: random_text(rng, n, 2),
    "unary": lambda rng, n: unary_text(n),
    "fibonacci": lambda rng, n: fibonacci_text(n),
    "periodic-7": lambda rng, n: periodic_text(rng, n, 7),
}

WORKLOADS: dict[str, Spec] = {
    "rare-navigate": Spec(
        families=("random-s4",), n=16000, lengths=(16, 64, 256),
        kinds=ALL_KINDS, per_cell=10, trie_lengths=(16, 64), rounds=4),
    "frequent-locate": Spec(
        families=("random-s2",), n=16000, lengths=(3, 4, 5, 6, 7, 8),
        kinds=("sampled", "random"), per_cell=6,
        trie_lengths=(3, 4, 5, 6, 7, 8), rounds=4),
    "adversarial-build": Spec(
        families=("unary", "fibonacci", "periodic-7"), n=2000,
        lengths=(4, 32, 256), kinds=ALL_KINDS, per_cell=10,
        trie_lengths=(4, 32), rounds=3),
}


@dataclass
class Corpus:
    family: str
    raw: bytes                     # tree, ancestry, tree dict, layered
    trie_raw: bytes                # trie and trie dict
    patterns: list[bytes]
    trie_patterns: list[bytes]
    expected: dict[bytes, tuple[int, ...]] = field(default_factory=dict)
    trie_expected: dict[bytes, tuple[int, ...]] = field(default_factory=dict)


def make_corpora(spec: Spec, seed_key: str, small: bool) -> list[Corpus]:
    """The workload's texts and patterns, with every pattern's positions
    by ``harness.oracle_scan``; ``seed_key`` fixes all of them.  ``small``
    shrinks every size for the smoke run."""
    rng = random.Random(seed_key)
    n = spec.n // 8 if small else spec.n
    trie_n = TRIE_N // 4 if small else TRIE_N
    per_cell = 1 if small else spec.per_cell
    out = []
    for family in spec.families:
        raw = TEXT_FAMILIES[family](rng, n)
        trie_raw = raw[:trie_n]
        c = Corpus(family, raw, trie_raw,
                   patterns(rng, raw, [min(m, n) for m in spec.lengths],
                            spec.kinds, per_cell),
                   patterns(rng, trie_raw,
                            [min(m, trie_n) for m in spec.trie_lengths],
                            spec.kinds, per_cell))
        c.expected = {p: oracle_scan(raw, Pattern.from_bytes(p))
                      for p in c.patterns}
        c.trie_expected = {p: oracle_scan(trie_raw, Pattern.from_bytes(p))
                           for p in c.trie_patterns}
        out.append(c)
    return out


# -- the index stack ---------------------------------------------------------


@dataclass
class Stack:
    tree: SuffixIndex
    anc: AncestryIndex
    tree_dict: PairDict
    layered: LayeredIndex
    trie: SuffixIndex
    trie_dict: PairDict

    def fingerprint(self) -> tuple[int, ...]:
        """Sizes that any correct rebuild reproduces exactly."""
        return (len(self.tree), len(self.tree_dict), len(self.trie),
                len(self.trie_dict),
                *(len(layer.tree) for layer in self.layered.layers.values()),
                *(len(d) for d in self.layered.dicts.values()))


def build_stack(corpus: Corpus, call) -> Stack:
    """Build every index of one corpus.  ``call(name, fn, *args)`` runs
    each top-level build (inside a span when tracing); the layered
    index's ``build_layer``/``build_layer_dict`` calls are traced through
    the module names instead."""
    tree = call("build_suffix_tree", build_suffix_tree, make_text(corpus.raw, 1))
    anc = call("build_ancestry", build_ancestry, tree)
    tree_dict = call("build_tree_halving_dict", build_tree_halving_dict, tree)
    layered = build_layered_index(corpus.raw, LAYERS_P)
    trie = call("build_suffix_trie", build_suffix_trie,
                make_text(corpus.trie_raw, 1))
    trie_dict = call("build_trie_halving_dict", build_trie_halving_dict, trie)
    return Stack(tree, anc, tree_dict, layered, trie, trie_dict)


# -- the query mix -----------------------------------------------------------


@dataclass
class Entry:
    """One call of the mix.  ``algo`` names the ledger-charging algorithm
    for simulated calls and is None for threaded calls, whose ledger the
    library does not expose."""

    label: str
    fn: Callable
    args: tuple
    algo: Optional[str]
    m: int
    param: int                     # p for trie-par, j for interleaved
    expected: tuple[int, ...]


def make_entries(corpora: list[Corpus], stacks: list[Stack],
                 rng: random.Random) -> list[Entry]:
    """Every text pattern runs through seq, tree-par2 and interleaved
    j=2/4, and alternately through threaded tree-par2 or threaded
    interleaved j=2.  Every trie pattern runs through trie-par p=2/4, and
    every other one through threaded trie-par p=2.  Threaded calls use at
    most two lanes.  The list is shuffled once so that calls of one
    algorithm do not run back to back."""
    entries = []
    for corpus, st in zip(corpora, stacks):
        for i, raw in enumerate(corpus.patterns):
            pat = Pattern.from_bytes(raw)
            want = corpus.expected[raw]
            m = pat.m
            entries += [
                Entry("seq", seq_query, (st.tree, pat), "seq", m, 1, want),
                Entry("tree-par2", par_query_tree2,
                      (st.tree, st.anc, st.tree_dict, pat), "tree-par2", m, 2,
                      want),
                Entry("interleaved-j2", par_query_interleaved,
                      (st.layered, pat, 2), "interleaved", m, 2, want),
                Entry("interleaved-j4", par_query_interleaved,
                      (st.layered, pat, 4), "interleaved", m, 4, want),
                Entry("tree-par2/threaded", par_query_tree2_threaded,
                      (st.tree, st.anc, st.tree_dict, pat), None, m, 2, want)
                if i % 2 == 0 else
                Entry("interleaved-j2/threaded", par_query_interleaved_threaded,
                      (st.layered, pat, 2), None, m, 2, want),
            ]
        for i, raw in enumerate(corpus.trie_patterns):
            pat = Pattern.from_bytes(raw)
            want = corpus.trie_expected[raw]
            m = pat.m
            entries += [Entry("trie-par-p%d" % p, par_query_trie,
                              (st.trie, st.trie_dict, pat, p), "trie-par", m, p,
                              want) for p in (2, 4)]
            if i % 2 == 0:
                entries.append(Entry("trie-par-p2/threaded",
                                     par_query_trie_threaded,
                                     (st.trie, st.trie_dict, pat, 2), None, m,
                                     2, want))
    rng.shuffle(entries)
    return entries


def law_violation(e: Entry, led: StepLedger, found: bool) -> Optional[str]:
    """The paper's ledger laws for one simulated call; a message when one
    is broken, None otherwise."""
    m = e.m
    if e.algo == "trie-par":
        p = e.param
        if found and led.work != m + p - 1:
            return "trie-par work %d != m+p-1 (m=%d p=%d)" % (led.work, m, p)
        if led.span > -(-m // p) + int(math.log2(p)):
            return "trie-par span %d > ceil(m/p)+lg p (m=%d p=%d)" % (
                led.span, m, p)
    elif e.algo == "tree-par2":
        if led.nav_chars > -(-5 * m // 4) + 2:
            return "tree-par2 nav %d > ceil(5m/4)+2 (m=%d)" % (led.nav_chars, m)
        if led.span > m + 4:
            return "tree-par2 span %d > m+4 (m=%d)" % (led.span, m)
    elif e.algo == "interleaved":
        j = e.param
        if found and m >= j and led.span > 4 * (m / j) * math.log2(j):
            return "interleaved span %d > 4(m/j)lg j (m=%d j=%d)" % (
                led.span, m, j)
    return None
