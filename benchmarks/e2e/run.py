#!/usr/bin/env python3
"""The end-to-end benchmark: file, serve and in-memory paths.

One workload, as the driver runs it (the last line of stdout is the
result object; the lines before it print every metric by name with its
unit)::

    python3 benchmarks/e2e/run.py --workload file_check --seed 7 \\
        --seconds 10 --trace 0

Every workload, each in a fresh process, as a person runs it::

    python3 benchmarks/e2e/run.py [--seed N] [--runs N] [--workload NAME]...
        [--traced] [--smoke] [--check-repeat] [--out RESULTS.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --write BENCHMARK.json

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import spec
import suite

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", default=[],
                        choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=1, metavar="N",
                        help="suite: N runs per workload, at seeds SEED.."
                             "SEED+N-1; from 4 on, their quartile spread "
                             "is printed (the driver takes 10)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of one run "
                             f"(default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run the one --workload in this process: "
                             "0 = end-to-end metrics, wrappers off; "
                             "1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also make each workload's traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="inputs ~50x smaller and a one-second window")
    parser.add_argument("--check-repeat", action="store_true",
                        help="suite twice, in alternating order; non-zero "
                             "exit if a metric moves by more than its bound")
    parser.add_argument("--out", metavar="PATH",
                        help="suite: write the result set as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets written by --out")
    parser.add_argument("--write", metavar="PATH",
                        help="write the driver's BENCHMARK.json and exit")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help=argparse.SUPPRESS)  # the self-test's fault
    args = parser.parse_args(argv)
    if args.write:
        with open(args.write, "w") as fp:
            json.dump(spec.contract(), fp, indent=2)
            fp.write("\n")
        return 0
    if args.compare:
        return suite.compare_files(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec.RUN_SECONDS)
    if args.trace is not None:
        if len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        sys.path.insert(0, SRC)  # the program, run straight from source
        import measure

        return measure.run_workload(
            args.workload[0], args.seed, args.seconds, bool(args.trace),
            args.smoke, args.corrupt_digest,
        )
    return suite.main(args)


if __name__ == "__main__":
    sys.exit(main())
