#!/usr/bin/env python3
"""Parent-vs-change measurement with ``benchmarks/e2e`` in one command.

    python3 scripts/bench_ab.py BASE [--runs N] [--seed S] [--workload NAME]...
    make bench-ab BASE=<rev> [RUNS=N]

Checks ``BASE`` out under ``.bench_tmp/``, gives it *this tree's*
``benchmarks/e2e`` (both sides are measured by identical benchmark
code), then makes ``N`` pairs of ``run.py --runs 1 --out`` suite runs,
one seed per pair, alternating which side goes first.  The pairs are
folded into one result set per side (kept as
``.bench_tmp/bench-ab-{base,change}.json``), compared with the
benchmark's own ``--compare`` rule, and the pairs each side won are
printed per metric -- the "at least nine of ten pairs" half of a gain
claim, which ``--compare`` alone does not show.

The checkout is a ``git archive`` export rather than a ``git worktree``:
nothing is registered in ``.git``, so removing the directory is the
whole clean-up, whichever way this script exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from statistics import median
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join("benchmarks", "e2e")
sys.path.insert(0, os.path.join(ROOT, E2E))

import spec  # noqa: E402  (benchmarks/e2e, this tree's)
import suite  # noqa: E402


def export_base(rev: str, dest: str) -> None:
    """``rev``'s tree at ``dest``, with this tree's benchmark files."""
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.rmtree(os.path.join(dest, E2E), ignore_errors=True)
    shutil.copytree(
        os.path.join(ROOT, E2E), os.path.join(dest, E2E),
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def run_suite(tree: str, seed: int, workloads: List[str], out: str
              ) -> Dict[str, Any]:
    """One ``run.py --runs 1`` over ``tree``; its result set.  The exit
    code is not checked here: failed operations are in the set and
    ``compare`` reports them."""
    cmd = [sys.executable, os.path.join(tree, E2E, "run.py"),
           "--runs", "1", "--seed", str(seed), "--out", out]
    for name in workloads:
        cmd += ["--workload", name]
    subprocess.run(cmd, stdout=subprocess.DEVNULL)
    with open(out) as fp:
        return json.load(fp)


def fold(sets: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The one-seed result sets of one side as a single N-run set."""
    out = sets[0]
    for other in sets[1:]:
        out["seeds"] += other["seeds"]
        for name, row in other["workloads"].items():
            dst = out["workloads"][name]
            for key in ("attempted", "failed"):
                dst[key] += row[key]
            for key in ("digests", "stats"):
                dst[key] += row[key]
            for key, values in row["samples"].items():
                dst["samples"].setdefault(key, []).extend(values)
            for metric, entry in row["end_to_end"].items():
                dst["end_to_end"].setdefault(
                    metric, {"unit": entry["unit"], "values": []}
                )["values"] += entry["values"]
    for row in out["workloads"].values():
        for entry in row["end_to_end"].values():
            entry["value"] = median(entry["values"])
            entry["spread"] = suite.iqr_share(entry["values"])
    return out


def print_pairs_won(base: Dict[str, Any], change: Dict[str, Any]) -> None:
    better = {m.name: m.better for m in spec.END_TO_END}
    print(f"\n{'workload':18s} {'metric':16s} {'change won':>10s} "
          f"{'base won':>9s} {'pairs':>6s} {'change/base':>12s}")
    for name, row in base["workloads"].items():
        for metric, entry in row["end_to_end"].items():
            there = change["workloads"][name]["end_to_end"].get(metric)
            if there is None or metric not in better:
                continue
            pairs = list(zip(entry["values"], there["values"]))
            up = sum(b > a for a, b in pairs)
            down = sum(b < a for a, b in pairs)
            won, lost = (up, down) if better[metric] == "higher" else (down, up)
            ratio = there["value"] / entry["value"] if entry["value"] else 0.0
            print(f"{name:18s} {metric:16s} {won:>10d} {lost:>9d} "
                  f"{len(pairs):>6d} {ratio:>11.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("--runs", type=int, default=10, metavar="N",
                        help="pairs of runs (default 10)")
    parser.add_argument("--seed", type=int, default=7,
                        help="pair i runs both sides at seed SEED+i")
    parser.add_argument("--workload", action="append", default=[],
                        choices=[w.name for w in spec.WORKLOADS])
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    keep = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(keep, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bench-ab-", dir=keep)
    try:
        trees = {"base": os.path.join(tmp, "base"), "change": ROOT}
        export_base(args.base, trees["base"])
        sets: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
        for i in range(args.runs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                print(f"pair {i + 1}/{args.runs}: {side}", file=sys.stderr)
                sets[side].append(run_suite(
                    trees[side], args.seed + i, args.workload,
                    os.path.join(tmp, f"{side}-{i}.json"),
                ))
        folded = {side: fold(runs) for side, runs in sets.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for side, result_set in folded.items():
        with open(os.path.join(keep, f"bench-ab-{side}.json"), "w") as fp:
            json.dump(result_set, fp, indent=1, sort_keys=True)
            fp.write("\n")
    print(f"# first = {args.base}, second = this tree; "
          f"{args.runs} alternating pairs, seeds {folded['base']['seeds']}")
    code = suite.compare(folded["base"], folded["change"])
    print_pairs_won(folded["base"], folded["change"])
    return code


if __name__ == "__main__":
    sys.exit(main())
