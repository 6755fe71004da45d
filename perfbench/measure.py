"""One run of one workload, measured from outside the library.

A run lasts about the given seconds and has a fixed number of rounds,
each with an equal share of that time.  Each round builds the workload's
index stack (set-up), then until its share is spent alternates short
slices of the workload's call list, called with one caller (a closed
loop), with a dump and load of the containers and with the command-line
query against the saved tree container.  So every metric takes samples
from the whole run, which evens out the host's speed drifting over tens
of seconds.  The first round makes one untimed warm-up pass over the
list before its queries.  Every call's answer is checked outside the
timed region.

Untraced runs give the end-to-end metrics.  A traced run records a span
around each call into a layer and derives the per-layer self times from
the spans; it runs half of its query phase untraced and half traced, and
reports the difference as the tracing overhead.
"""

from __future__ import annotations

import gc
import io
import itertools
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import parsuffix.cli as cli
import parsuffix.interleaved as interleaved_mod
import parsuffix.query as query_mod
import parsuffix.serial as serial_mod
import parsuffix.treeparallel as treeparallel_mod
import parsuffix.trieparallel as trieparallel_mod
from parsuffix.ledger import StepLedger
from parsuffix.serial import Container, dump_container, load_container
from parsuffix.textmodel import Pattern
from parsuffix.treeparallel import par_query_tree2

from tracing import Tracer
from workloads import (LAYERS_P, WORKLOADS, build_stack, law_violation,
                       make_corpora, make_entries)

CLI_PATTERNS = 24   # patterns in the CLI's pattern file, per text
SLICE_S = 0.75      # query slice between two save/load or CLI samples
LEDGER_KINDS = ("nav_chars", "probes", "shortens", "compares")
# The counters each algorithm charges; the others stay 0 by design.
LEDGER_COUNTERS = {
    "seq": ("nav_chars", "compares"),
    "trie-par": ("nav_chars", "probes"),
    "tree-par2": LEDGER_KINDS,
    "interleaved": ("nav_chars", "probes", "compares"),
}

# Layer functions the library calls through its own module names; the
# traced run wraps them so that a query splits into its layers.
TRACED_NAMES = [
    (query_mod, "navigate"), (query_mod, "verify_against_text"),
    (query_mod, "occurrences"),
    (treeparallel_mod, "verify_against_text"),
    (treeparallel_mod, "occurrences"),
    (trieparallel_mod, "occurrences"),
    (interleaved_mod, "verify_against_text"), (interleaved_mod, "occurrences"),
    (interleaved_mod, "build_layer"), (interleaved_mod, "build_layer_dict"),
    (serial_mod, "load_container"), (cli, "build_ancestry"),
]


class Ops:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def error(self, what: str) -> None:
        self.check(False, "%s raised: %s" % (what, traceback.format_exc(limit=3)))


def _plain_call(name, fn, *args):
    return fn(*args)


# -- phases -----------------------------------------------------------------


def _build(corpora, call, tracer):
    """Build every index of every text; returns the stacks and the wall
    time."""
    gc.collect()
    with tracer.span("setup") if tracer else nullcontext():
        t0 = perf_counter()
        stacks = [build_stack(c, call) for c in corpora]
        return stacks, perf_counter() - t0


def _call(e, qid, tracer, ops, lat):
    """One checked call of the mix; returns its ledger when simulated."""
    led = StepLedger() if e.algo else None
    args = e.args + (led,) if led is not None else e.args
    try:
        if tracer is None:
            t0 = perf_counter()
            res = e.fn(*args)
            t1 = perf_counter()
        else:
            tracer.query_id = qid
            t0 = perf_counter()
            res = tracer.call(e.label, e.fn, *args)
            t1 = perf_counter()
    except Exception:
        ops.error("%s m=%d" % (e.label, e.m))
        return None
    lat.append(t1 - t0)
    if not ops.check(res.positions == e.expected,
                     "%s m=%d returned %d positions, oracle %d" %
                     (e.label, e.m, len(res.positions), len(e.expected))):
        return None
    if led is not None:
        broken = law_violation(e, led, res.found)
        ops.check(broken is None, broken)
    return led


def _warm_up(entries, ops):
    """One untimed pass over the list.  Its simulated calls give the
    ledger counts: the list is fixed by the seed, so they repeat exactly."""
    per_algo: dict[str, dict[str, int]] = {}
    for e in entries:
        led = _call(e, -1, None, ops, array("d"))
        if led is None:
            continue
        acc = per_algo.setdefault(e.algo, dict.fromkeys(
            ("calls", "work", "span") + LEDGER_KINDS, 0))
        acc["calls"] += 1
        acc["work"] += led.work
        acc["span"] += led.span
        for kind in LEDGER_KINDS:
            acc[kind] += led.counter(kind)
    return per_algo


def _query_slice(entries, pos, seconds, tracer, ops, lat):
    """Calls the list from position ``pos`` on, cyclically, for
    ``seconds``; appends latencies and returns the next position."""
    n = len(entries)
    t_end = perf_counter() + seconds
    while True:
        _call(entries[pos % n], pos, tracer, ops, lat)
        pos += 1
        if perf_counter() >= t_end:
            break
    if tracer:
        tracer.query_id = -1
    return pos


def _save_load(corpora, stacks, call, tracer, ops):
    """Dump and load the tree and interleaved containers of every text;
    every load is checked by dumping it again.  Returns the dump time,
    the load time and the blobs, or None when a call raised."""
    conts = []
    for c, st in zip(corpora, stacks):
        conts.append(Container("tree", c.raw, 1, st.tree, st.tree_dict))
        conts.append(Container("interleaved", c.raw, LAYERS_P,
                               layered=st.layered))
    try:
        with tracer.span("dump") if tracer else nullcontext():
            t0 = perf_counter()
            blobs = [call("dump_container", dump_container, k) for k in conts]
            t1 = perf_counter()
        with tracer.span("load") if tracer else nullcontext():
            t2 = perf_counter()
            loaded = [call("load_container", load_container, b) for b in blobs]
            t3 = perf_counter()
    except Exception:
        ops.error("dump/load")
        return None
    for k, b, got in zip(conts, blobs, loaded):
        ops.check(dump_container(got) == b,
                  "%s container changed in a dump/load round trip" % k.kind)
    return t1 - t0, t3 - t2, blobs


def _cli_jobs(corpora, stacks, blobs, workdir):
    """Saves each text's tree container and a pattern file; returns the
    ``parsuffix query --algo tree-par2 --stats`` arguments and the lines
    it must print: oracle positions plus the ledger of the same simulated
    call on the in-memory index."""
    jobs = []
    for i, (c, st) in enumerate(zip(corpora, stacks)):
        index_path = workdir / ("tree%d.idx" % i)
        index_path.write_bytes(blobs[2 * i])
        pats = c.patterns[::max(1, len(c.patterns) // CLI_PATTERNS)]
        pattern_path = workdir / ("patterns%d.txt" % i)
        pattern_path.write_bytes(b"".join(p + b"\n" for p in pats))
        expected = []
        for raw in pats:
            pat = Pattern.from_bytes(raw)
            led = StepLedger()
            par_query_tree2(st.tree, st.anc, st.tree_dict, pat, led)
            expected.append("%s\twork=%d span=%d probes=%d" % (
                " ".join(map(str, c.expected[raw])), led.work, led.span,
                led.probes))
        jobs.append((["query", "--index", str(index_path), "--pattern-file",
                      str(pattern_path), "--algo", "tree-par2", "--stats"],
                     expected))
    return jobs


def _cold_cli(jobs, call, tracer, ops):
    """Runs every CLI job once, in process; returns the wall time."""
    total = 0.0
    with tracer.span("cli") if tracer else nullcontext():
        for argv, expected in jobs:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = call("cli.main", cli.main, argv)
            except Exception:
                ops.error("cli.main")
                continue
            total += perf_counter() - t0
            ops.check(rc == 0 and out.getvalue().splitlines() == expected,
                      "cli query exited %r with output differing from the "
                      "oracle: %s" % (rc, err.getvalue()[-200:]))
    return total


def _host_ref_ms():
    """Wall time of a fixed pure-Python loop.  The host's speed swings
    by a third or more, within a run and between runs; sampled through
    the run, this tells that drift apart from a change in the library."""
    t0 = perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i & 1023] = d.get((i * 7) & 1023, 0) + 1
    return (perf_counter() - t0) * 1e3


# -- metrics ------------------------------------------------------------------


def _tail(lat):
    """The 99th percentile when at least ten samples lie beyond it,
    otherwise the highest percentile that has ten beyond it."""
    xs = sorted(lat)
    n = len(xs)
    q = 0.99 if n >= 1000 else max(0.5, 1 - 10 / n)
    return xs[min(n - 1, math.ceil(q * n) - 1)], 100 * q


def _per_rep(tr, own, kids, phase, names):
    """Median over the ``phase`` spans of the summed self time of their
    direct children with the given names."""
    totals = []
    for s in tr.ids(phase):
        totals.append(sum(own[c] for c in kids.get(s, ())
                          if tr.names[tr.name[c]] in names))
    return statistics.median(totals)


def _layer_times(tr):
    own = tr.self_times()
    dur = tr.durations()
    kids = tr.children()

    def query_us(*names):
        vals = [own[i] for i in tr.ids(*names) if tr.qid[i] >= 0]
        return statistics.median(vals) * 1e6

    cli_self = []
    for s in tr.ids("cli"):
        total = 0.0
        for main in kids.get(s, ()):
            total += dur[main] - sum(
                dur[c] for c in kids.get(main, ())
                if tr.names[tr.name[c]] in ("load_container", "build_ancestry"))
        cli_self.append(total)

    return {
        "suffixindex.build_tree_s": _per_rep(tr, own, kids, "setup",
                                             {"build_suffix_tree"}),
        "suffixindex.build_trie_s": _per_rep(tr, own, kids, "setup",
                                             {"build_suffix_trie"}),
        "suffixindex.navigate_us": query_us("navigate"),
        "suffixindex.verify_us": query_us("verify_against_text"),
        "suffixindex.occurrences_us": query_us("occurrences"),
        "query.seq_us": query_us("seq"),
        "ancestry.build_s": _per_rep(tr, own, kids, "setup", {"build_ancestry"}),
        "halving.build_tree_dict_s": _per_rep(tr, own, kids, "setup",
                                              {"build_tree_halving_dict"}),
        "halving.build_trie_dict_s": _per_rep(tr, own, kids, "setup",
                                              {"build_trie_halving_dict"}),
        "interleaved.build_layer_s": _per_rep(tr, own, kids, "setup",
                                              {"build_layer"}),
        "interleaved.build_layer_dict_s": _per_rep(tr, own, kids, "setup",
                                                   {"build_layer_dict"}),
        "treeparallel.query_us": query_us("tree-par2"),
        "interleaved.query_us.j2": query_us("interleaved-j2"),
        "interleaved.query_us.j4": query_us("interleaved-j4"),
        "trieparallel.query_us": query_us("trie-par-p2", "trie-par-p4"),
        "treeparallel.threaded_query_us": query_us("tree-par2/threaded"),
        "interleaved.threaded_query_us": query_us("interleaved-j2/threaded"),
        "trieparallel.threaded_query_us": query_us("trie-par-p2/threaded"),
        "serial.dump_s": _per_rep(tr, own, kids, "dump", {"dump_container"}),
        "serial.load_s": _per_rep(tr, own, kids, "load", {"load_container"}),
        "cli.query_self_s": statistics.median(cli_self),
    }


def _ledger_metrics(per_algo):
    return {"ledger.%s_per_query.%s" % (kind, algo):
            per_algo[algo][kind] / per_algo[algo]["calls"]
            for algo, kinds in LEDGER_COUNTERS.items() for kind in kinds}


def _structure_metrics(corpora, stacks, entries, blobs):
    nodes = sum(len(st.tree) + sum(len(layer.tree) for layer in
                                   st.layered.layers.values())
                for st in stacks)
    dict_entries = dict_nodes = 0
    for st in stacks:
        dict_entries += len(st.tree_dict) + len(st.trie_dict)
        dict_nodes += len(st.tree) + len(st.trie)
        for k, d in st.layered.dicts.items():
            dict_entries += len(d)
            dict_nodes += len(st.layered.layers[k // 2].tree)
    return {
        "suffixindex.nodes_per_char": nodes / sum(len(c.raw) for c in corpora),
        "suffixindex.occ_per_query":
            sum(len(e.expected) for e in entries) / len(entries),
        "halving.entries_per_node": dict_entries / dict_nodes,
        "serial.bytes": sum(len(b) for b in blobs),
    }


# -- one run ------------------------------------------------------------------


def run(workload, seed, seconds, trace, outdir: Path, small=False,
        reps=None):
    """Measure one workload; returns (metrics, ops, meta)."""
    spec = WORKLOADS[workload]
    reps = reps or spec.rounds
    seed_key = "%s:%d" % (workload, seed)
    corpora = make_corpora(spec, seed_key, small)
    tracer = Tracer() if trace else None
    call = tracer.call if tracer else _plain_call
    patched = (lambda: tracer.patched(TRACED_NAMES)) if tracer else nullcontext
    ops = Ops()
    setup_times, save, load, cold = [], [], [], []
    lat, plain_lat, host_ref = array("d"), array("d"), []
    pos = plain_pos = 0
    stacks = first = None
    workdir = outdir / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    def query_slice(entries):
        nonlocal pos, plain_pos
        host_ref.append(_host_ref_ms())
        if tracer:
            plain_pos = _query_slice(entries, plain_pos, SLICE_S / 2, None,
                                     ops, plain_lat)
            with patched():
                pos = _query_slice(entries, pos, SLICE_S / 2, tracer, ops,
                                   lat)
        else:
            pos = _query_slice(entries, pos, SLICE_S, None, ops, lat)

    try:
        for r in range(reps):
            round_end = perf_counter() + seconds / reps
            # free the last round's indexes first
            stacks = entries = blobs = jobs = None
            with patched():
                stacks, took = _build(corpora, call, tracer)
            setup_times.append(took)
            prints = [st.fingerprint() for st in stacks]
            first = first or prints
            ops.check(prints == first, "rebuild gave index sizes %r, first "
                                       "build %r" % (prints, first))
            entries = make_entries(corpora, stacks, random.Random(seed_key))
            if r == 0:
                t0 = perf_counter()
                per_algo = _warm_up(entries, ops)
                round_end += perf_counter() - t0
            # Query slices alternate with a save/load or a CLI query,
            # whichever has taken less time so far, until the round's time
            # is spent and each has run once in the round.
            for step in itertools.count():
                if jobs and perf_counter() >= round_end:
                    break
                if step % 2 == 0:
                    query_slice(entries)
                    continue
                with patched():
                    if blobs is None or sum(save) + sum(load) <= sum(cold):
                        saved = _save_load(corpora, stacks, call, tracer, ops)
                        if saved is None:
                            break
                        save.append(saved[0])
                        load.append(saved[1])
                        blobs = saved[2]
                    else:
                        jobs = jobs or _cli_jobs(corpora, stacks, blobs,
                                                 workdir)
                        cold.append(_cold_cli(jobs, call, tracer, ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tail, tail_pct = _tail(lat)
    sim = list(per_algo.values())
    sim_calls = sum(acc["calls"] for acc in sim)
    text_chars = sum(len(c.raw) for c in corpora)
    if tracer:
        metrics = _layer_times(tracer)
        metrics.update(_ledger_metrics(per_algo))
        metrics.update(_structure_metrics(corpora, stacks, entries, blobs))
        metrics["trace.overhead_pct"] = 100 * (
            (sum(lat) / len(lat)) / (sum(plain_lat) / len(plain_lat)) - 1)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "query_p50_us": statistics.median(lat) * 1e6,
            "query_p99_us": tail * 1e6,
            "queries_per_s": len(lat) / sum(lat),
            # Means: a run has only a few of these samples, and the host's
            # speed switches between a fast and a slow level; a median of
            # few samples jumps between the two, a mean moves smoothly.
            "save_s": statistics.mean(save),
            "load_s": statistics.mean(load),
            "cold_query_s": statistics.mean(cold),
            "index_bytes_per_char": sum(len(b) for b in blobs) / text_chars,
            "peak_mem_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ledger_work_per_query": sum(a["work"] for a in sim) / sim_calls,
            "ledger_span_per_query": sum(a["span"] for a in sim) / sim_calls,
        }

    mix: dict[str, int] = {}
    for e in entries:
        mix[e.label] = mix.get(e.label, 0) + 1
    threaded = sum(v for k, v in mix.items() if k.endswith("/threaded"))
    meta = {
        "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace, "small": small,
        "loop": "closed, one caller in one process",
        "texts": [{"family": c.family, "n": len(c.raw),
                   "trie_n": len(c.trie_raw), "patterns": len(c.patterns),
                   "trie_patterns": len(c.trie_patterns)} for c in corpora],
        "pattern_lengths": list(spec.lengths),
        "trie_pattern_lengths": list(spec.trie_lengths),
        "pattern_kinds": list(spec.kinds),
        "mix_calls_per_pass": mix,
        "mix_shares": {k: round(v / len(entries), 4) for k, v in mix.items()},
        "passes": round(pos / len(entries), 2), "query_samples": len(lat),
        "query_tail_percentile": tail_pct,
        "reps": reps, "setup_s_each": setup_times, "save_s_each": save,
        "load_s_each": load, "cold_query_s_each": cold,
        "host_ref_loop_ms": {"median": statistics.median(host_ref),
                             "min": min(host_ref), "max": max(host_ref)},
        "ledger_per_algorithm": per_algo,
        "ledger_gap": "ledger counts come from the %d simulated calls per "
                      "pass only; the %d threaded calls per pass have none, "
                      "because the threaded modes charge a throwaway "
                      "StepLedger" % (len(entries) - threaded, threaded),
        "failed_frac": ops.failed / max(1, ops.attempted),
        "failures": ops.failures,
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "processor": platform.processor(),
                    "nproc": os.cpu_count()},
        "python": sys.version.split()[0],
        "git_sha": git_sha(outdir.parent),
    }
    if tracer:
        spans = outdir / ("%s-seed%d.spans.jsonl.gz" % (workload, seed))
        tracer.write(str(spans))
        meta["spans_file"] = str(spans.relative_to(outdir.parent))
        meta["span_count"] = len(tracer.start)
    return metrics, ops, meta


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
