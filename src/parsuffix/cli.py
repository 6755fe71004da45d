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

from .ancestry import AncestryError, build_ancestry
from .harness import (ALGORITHMS, Algorithm, EquivalenceError,
                      generate_corpus, run_case)
from .lanes import Mapper, seq_map, thread_map
from .ledger import StepLedger
from .query import QueryResult
from .serial import Container, ContainerError, build_container, load_file, \
    save_file
from .textmodel import Pattern
from .trieparallel import ParameterError


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


def cmd_build(args: argparse.Namespace) -> int:
    with open(args.text, "rb") as fh:
        raw = fh.read()
    cont = build_container(raw, args.index, args.p)
    save_file(args.out, cont)
    indexes, dicts = cont.blocks()
    print("index=%s nodes=%d dict_entries=%d bytes=%d" %
          (args.index, sum(map(len, indexes)), sum(map(len, dicts)),
           os.path.getsize(args.out)))
    return 0


def _run_query(algo: Algorithm, cont: Container, pat: Pattern, p: int,
               mapper: Mapper, ledger: StepLedger) -> QueryResult:
    """Runs one query, clamping an unusable lane count to the largest
    usable power of two; an algorithm without a lane count that cannot
    take the pattern answers it sequentially."""
    param = p if algo.lane else None
    why = algo.unusable(pat, param, cont)
    if why and algo.lane:
        param = 1 << (max(p, 1).bit_length() - 1)
        while param > 1 and algo.unusable(pat, param, cont):
            param //= 2
        _warn("%s=%d unusable for m=%d (%s); clamped to %d" %
              (algo.lane, p, pat.m, why, param))
    elif why:
        _warn("%s unusable for m=%d (%s); answering sequentially" %
              (algo.name, pat.m, why))
        algo = ALGORITHMS["seq"]
    return algo.run(cont, pat, param, ledger, mapper)


def cmd_query(args: argparse.Namespace) -> int:
    algo = ALGORITHMS[args.algo]
    cont = load_file(args.index)
    if cont.kind not in algo.kinds:
        raise CliError("%s needs a %s index" % (algo.name,
                                                " or ".join(algo.kinds)))
    if algo.name == "tree-par2":
        build_ancestry(cont.index)     # once, before the first pattern
    mapper = thread_map if args.threads else seq_map
    for raw_pat in _read_patterns(args):
        led = StepLedger()
        res = _run_query(algo, cont, Pattern.from_bytes(raw_pat), args.p,
                         mapper, led)
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
    algos = [a for a in ALGORITHMS.values() if cont.kind in a.kinds]
    if ALGORITHMS["tree-par2"] in algos:
        build_ancestry(cont.index)     # once, before the first pattern
    print("m\talgorithm\twork\tspan\tprobes")
    for raw_pat in _read_patterns(args):
        pat = Pattern.from_bytes(raw_pat)
        for algo in algos:
            # no lane count to clamp: its row would hold seq's counts
            why = None if algo.lane else algo.unusable(pat, None, cont)
            if why:
                _warn("%s skipped for m=%d (%s)" % (algo.name, pat.m, why))
                continue
            led = StepLedger()
            _run_query(algo, cont, pat, args.p, seq_map, led)
            print("%d\t%s\t%d\t%d\t%d" % (pat.m, algo.name, led.work,
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
    q.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    grp = q.add_mutually_exclusive_group()
    grp.add_argument("--count", action="store_true",
                     help="print occurrence counts")
    grp.add_argument("--locate", action="store_true",
                     help="print sorted 1-based positions (default)")
    q.add_argument("--stats", action="store_true",
                   help="append work/span/probe columns")
    q.add_argument("--threads", action="store_true",
                   help="run the lanes on the shared thread pool")
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
