"""End-to-end keyword-query benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload aw_paper_queries --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One workload runs per process.  The report lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  ``--workload all`` runs every workload in a fresh
process, one after another, and exits non-zero if any of them failed to
run.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("aw_paper_queries", "scale_facets", "scale_appends",
             "service_mixed")


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        code = subprocess.call(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = _manifest()
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.workload == "all":
        return _run_all(args)

    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro  # noqa: F401 - fail fast when the program is missing
    from perfbench import inproc, service

    trace = bool(args.trace)
    if args.workload == "service_mixed":
        outcome = service.run(args.seed, trace)
    elif args.workload == "scale_appends":
        outcome = inproc.run_appends(args.seed, args.seconds, trace)
    else:
        outcome = inproc.run_fixed_set(args.workload, args.seed,
                                       args.seconds, trace)
    names = [m["name"] for m in
             manifest["per_layer" if trace else "end_to_end"]]
    outcome.emit(names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
