"""Benchmark of parsuffix: build, persist and query workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rare-navigate --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

The library is imported from the checkout's ``src``.  A run prints one
JSON line describing the run (texts, mix, machine, ...) and, as its last
line, the result: ``correct``, ``attempted``, ``failed`` and the metrics
that ``BENCHMARK.json`` declares, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``.  Spans of traced runs are written to
``.perfbench/`` in the checkout.  ``--smoke`` runs every workload briefly
on small inputs, in both modes, and checks that every declared metric is
emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def one_run(measure, workload, seed, seconds, trace, small=False, reps=None):
    """Measure one workload; returns (description, result).  The metrics
    and their units are those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    metrics, ops, meta = measure.run(workload, seed, seconds, trace, OUT,
                                     small=small, reps=reps)
    meta["why"] = next(w["why"] for w in spec["workloads"]
                       if w["name"] == workload)
    if set(metrics) != set(units):
        raise RuntimeError("emitted metrics differ from BENCHMARK.json: "
                           "missing %s, undeclared %s" %
                           (sorted(set(units) - set(metrics)),
                            sorted(set(metrics) - set(units))))
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return meta, result


def smoke(measure) -> int:
    ok = True
    for workload in measure.WORKLOADS:
        for trace in (0, 1):
            meta, result = one_run(measure, workload, 1, 0.2, trace,
                                   small=True, reps=1)
            ok &= result["correct"]
            print("smoke %s trace=%d: %d metrics, %d/%d operations failed%s"
                  % (workload, trace, len(result["metrics"]),
                     result["failed"], result["attempted"],
                     "" if result["correct"] else ": %s" % meta["failures"]))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check the metrics")
    args = ap.parse_args(argv)

    if not (SRC / "parsuffix" / "__init__.py").is_file():
        print("perfbench: no library source at %s" % SRC, file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True   # leave no caches in the source tree
    sys.path.insert(0, str(SRC))
    import measure   # imports the library from SRC

    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(measure)
    if args.workload not in measure.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(measure.WORKLOADS))
    meta, result = one_run(measure, args.workload, args.seed, args.seconds,
                           args.trace)
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                        args.trace))).write_text(
        json.dumps({"run": meta, "result": result}, indent=1))
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
