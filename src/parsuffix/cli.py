"""Command-line front end: build, query, bench, selftest.

Positions are printed 1-based and ascending.  The selftest seed can be
overridden with the ``PARSUFFIX_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .ancestry import AncestryError, AncestryIndex, build_ancestry
from .harness import EquivalenceError, generate_corpus, run_case
from .interleaved import par_query_interleaved, par_query_interleaved_threaded
from .ledger import StepLedger
from .query import QueryResult, seq_query
from .serial import Container, ContainerError, build_container, load_file, \
    save_file
from .textmodel import Pattern
from .treeparallel import par_query_tree2, par_query_tree2_threaded
from .trieparallel import ParameterError, par_query_trie, \
    par_query_trie_threaded

ALGOS = ("seq", "trie-par", "tree-par2", "interleaved")


class CliError(Exception):
    pass


def _warn(msg: str) -> None:
    print("warning: %s" % msg, file=sys.stderr)


def _read_patterns(args: argparse.Namespace) -> list[bytes]:
    pats: list[bytes] = []
    for s in args.pattern or []:
        pats.append(s.encode())
    if args.pattern_file:
        with open(args.pattern_file, "rb") as fh:
            pats.extend(line for line in fh.read().splitlines() if line)
    if not pats:
        raise CliError("no patterns given (use --pattern or --pattern-file)")
    return pats


def _clamp_p(p: int, m: int) -> int:
    """Largest power of two <= p that is < 2m (the library errors on
    oversized p; the CLI clamps and warns instead)."""
    q = 1
    while q * 2 <= p and q * 2 < 2 * m:
        q *= 2
    if q != p:
        _warn("p=%d unusable for m=%d; clamped to %d" % (p, m, q))
    return q


def _dict_size(cont: Container) -> int:
    if cont.dct is not None:
        return len(cont.dct)
    return sum(len(d) for d in cont.layered.dicts.values())


def _node_count(cont: Container) -> int:
    if cont.index is not None:
        return len(cont.index.nodes)
    return sum(len(l.tree.nodes) for l in cont.layered.layers.values())


def cmd_build(args: argparse.Namespace) -> int:
    with open(args.text, "rb") as fh:
        raw = fh.read()
    cont = build_container(raw, args.index, args.p)
    save_file(args.out, cont)
    print("index=%s nodes=%d dict_entries=%d bytes=%d" %
          (args.index, _node_count(cont), _dict_size(cont),
           os.path.getsize(args.out)))
    return 0


def _run_query(cont: Container, anc: Optional[AncestryIndex], raw_pat: bytes,
               algo: str, p: int, threaded: bool,
               ledger: StepLedger) -> QueryResult:
    pat = Pattern.from_bytes(raw_pat)
    if algo == "seq":
        if cont.index is None:
            raise CliError("seq needs a trie or tree index")
        return seq_query(cont.index, pat, ledger)
    if algo == "trie-par":
        if cont.kind != "trie":
            raise CliError("trie-par needs a trie index")
        p = _clamp_p(p, pat.m)
        if threaded:
            return par_query_trie_threaded(cont.index, cont.dct, pat, p)
        return par_query_trie(cont.index, cont.dct, pat, p, ledger)
    if algo == "tree-par2":
        if cont.kind != "tree":
            raise CliError("tree-par2 needs a tree index")
        if pat.m < 2:
            _warn("tree-par2 needs m >= 2; answering sequentially")
            return seq_query(cont.index, pat, ledger)
        if threaded:
            return par_query_tree2_threaded(cont.index, anc, cont.dct, pat)
        return par_query_tree2(cont.index, anc, cont.dct, pat, ledger)
    if algo == "interleaved":
        if cont.kind != "interleaved":
            raise CliError("interleaved needs an interleaved index")
        j = min(p, cont.layered.p)
        if j != p:
            _warn("j=%d exceeds index layers; clamped to %d" % (p, j))
        if threaded:
            return par_query_interleaved_threaded(cont.layered, pat, j)
        return par_query_interleaved(cont.layered, pat, j, ledger)
    raise CliError("unknown algorithm %r" % algo)


def cmd_query(args: argparse.Namespace) -> int:
    cont = load_file(args.index)
    anc = build_ancestry(cont.index) \
        if cont.kind == "tree" and args.algo == "tree-par2" else None
    for raw_pat in _read_patterns(args):
        led = StepLedger()
        res = _run_query(cont, anc, raw_pat, args.algo, args.p,
                         args.threads, led)
        if args.count:
            line = str(len(res.positions))
        else:
            line = " ".join(str(i) for i in res.positions)
        if args.stats:
            line += "\twork=%d span=%d probes=%d" % (led.work, led.span,
                                                     led.probes)
        print(line)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cont = load_file(args.index)
    anc = build_ancestry(cont.index) if cont.kind == "tree" else None
    algos = {"trie": ("seq", "trie-par"),
             "tree": ("seq", "tree-par2"),
             "interleaved": ("interleaved",)}[cont.kind]
    print("m\talgorithm\twork\tspan\tprobes")
    for raw_pat in _read_patterns(args):
        for algo in algos:
            led = StepLedger()
            try:
                _run_query(cont, anc, raw_pat, algo, args.p, False, led)
            except (CliError, ParameterError) as exc:
                _warn("%s skipped for m=%d: %s" % (algo, len(raw_pat), exc))
                continue
            print("%d\t%s\t%d\t%d\t%d" % (len(raw_pat), algo, led.work,
                                          led.span, led.probes))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    seed = int(os.environ.get("PARSUFFIX_SEED", args.seed))
    cases = generate_corpus(args.trials, seed, n_lo=min(8, args.n),
                            n_hi=args.n, sigmas=(args.sigma,))
    records = []
    failures = 0
    for case in cases:
        try:
            rep = run_case(case, threaded=args.threads)
        except EquivalenceError as exc:
            print("FAIL %s" % exc)
            failures += 1
            break
        records.append({
            "seed": case.seed, "n": case.n, "sigma": case.sigma,
            "m": case.m, "mode": case.mode,
            "runs": [{"name": r.name, "work": r.work, "span": r.span,
                      "matches": len(r.positions)} for r in rep.runs],
            "skipped": rep.skipped,
        })
    ok = failures == 0
    summary = {"schema": "parsuffix-selftest", "version": 1,
               "seed": seed, "trials": args.trials, "n": args.n,
               "sigma": args.sigma, "ok": ok, "cases": records}
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(summary, fh, indent=1)
    ran = sum(len(c["runs"]) for c in records)
    print("cases=%d runs=%d seed=%d result=%s" %
          (len(records), ran, seed, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="parsuffix",
                                  description="Suffix-index build and "
                                              "parallel query toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and serialize an index")
    b.add_argument("--text", required=True, help="input file (raw bytes)")
    b.add_argument("--index", required=True,
                   choices=("trie", "tree", "interleaved"))
    b.add_argument("--p", type=int, default=1,
                   help="layer count for interleaved indexes (power of two)")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    def add_pattern_flags(q):
        q.add_argument("--pattern", action="append",
                       help="pattern string (repeatable)")
        q.add_argument("--pattern-file",
                       help="newline-separated raw byte patterns")
        q.add_argument("--p", type=int, default=2,
                       help="lanes (trie-par) / layers (interleaved)")

    q = sub.add_parser("query", help="run queries against a saved index")
    q.add_argument("--index", required=True)
    add_pattern_flags(q)
    q.add_argument("--algo", required=True, choices=ALGOS)
    grp = q.add_mutually_exclusive_group()
    grp.add_argument("--count", action="store_true",
                     help="print occurrence counts")
    grp.add_argument("--locate", action="store_true",
                     help="print sorted 1-based positions (default)")
    q.add_argument("--stats", action="store_true",
                   help="append work/span/probe columns")
    q.add_argument("--threads", action="store_true",
                   help="use the threaded execution mode")
    q.set_defaults(func=cmd_query)

    be = sub.add_parser("bench", help="work/span table over patterns")
    be.add_argument("--index", required=True)
    add_pattern_flags(be)
    be.set_defaults(func=cmd_bench)

    s = sub.add_parser("selftest", help="randomized oracle equivalence run")
    s.add_argument("--n", type=int, default=256, help="max text length")
    s.add_argument("--sigma", type=int, default=4, help="alphabet size")
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--threads", action="store_true")
    s.add_argument("--report", help="write a JSON report here")
    s.set_defaults(func=cmd_selftest)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ContainerError, AncestryError, ParameterError, OSError,
            ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
