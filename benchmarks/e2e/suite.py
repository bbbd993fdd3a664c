"""Every workload, each run in a fresh process, and what follows from
having them side by side: the summary table, the cross-path identity
check, result sets on disk, and the comparison of two result sets.

A child process per run keeps ``VmHWM`` honest and leaves no cache or
warmed import for the next workload.  This module never imports the
program; it only starts ``run.py --workload ... --trace ...`` and reads
what that prints.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from statistics import median, quantiles
from typing import Any, Dict, List, Optional

import spec

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: A run is given this long before it is killed and counted as failed
#: (the driver's own limit for one run).
RUN_TIMEOUT_S = 180


def host(numpy_backend: Optional[str]) -> Dict[str, Any]:
    """What a result set must share with another to be compared;
    ``numpy_backend`` is what the runs themselves reported (a version,
    or ``REPRO_NO_NUMPY`` for the program's pure-Python fallback)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_backend,
        "machine": platform.machine(),
    }


def iqr_share(values: List[float]) -> Optional[float]:
    """The distance between the first and third quartile as a share of
    the median -- the driver's steadiness measure; needs four values."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def run_child(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool, corrupt: bool = False) -> Dict[str, Any]:
    """One run of one workload in a fresh process: its result object,
    its ``detail`` record and its exit code.  The metric lines it
    printed are passed through."""
    cmd = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    if corrupt:
        cmd.append("--corrupt-digest")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout = -1, exc.stdout or ""
        stderr = f"{name}: no result within {RUN_TIMEOUT_S} s\n"
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    result: Optional[Dict[str, Any]] = None
    detail: Dict[str, Any] = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    if result is None:  # it died before reporting: one failed operation
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    return {"result": result, "detail": detail, "exit": code}


def measure_set(names: List[str], seeds: List[int], seconds: float,
                traced: bool, smoke: bool, corrupt: bool = False
                ) -> Dict[str, Any]:
    """Run ``names`` in the given order once per seed (and once more,
    traced, at the first seed) and fold the runs into one result set."""
    rows: Dict[str, Dict[str, Any]] = {
        name: {"end_to_end": {}, "per_layer": {}, "attempted": 0,
               "failed": 0, "digests": [], "stats": [], "traced_stats": None,
               "samples": {}}
        for name in names
    }
    numpy_backend = None
    for seed in seeds:
        for name in names:
            child = run_child(name, seed, seconds, False, smoke, corrupt)
            numpy_backend = child["detail"].get("numpy", numpy_backend)
            row = rows[name]
            _count(row, child)
            row["digests"].append(child["detail"].get("digest"))
            row["stats"].append(child["detail"].get("stats"))
            for key in ("inputs", "epoch_samples", "events_per_input",
                        "epochs_per_input", "fp_rate"):
                row["samples"].setdefault(key, []).append(
                    child["detail"].get(key))
            for metric, got in child["result"]["metrics"].items():
                entry = row["end_to_end"].setdefault(
                    metric, {"unit": got["unit"], "values": []})
                entry["values"].append(got["value"])
        if traced and seed == seeds[0]:
            for name in names:
                child = run_child(name, seed, seconds, True, smoke, corrupt)
                _count(rows[name], child)
                rows[name]["per_layer"] = child["result"]["metrics"]
                rows[name]["traced_stats"] = child["detail"].get("stats")
    for row in rows.values():
        for entry in row["end_to_end"].values():
            entry["value"] = median(entry["values"])
            entry["spread"] = iqr_share(entry["values"])
    _cross_path_gate(rows, len(seeds))
    return {"host": host(numpy_backend), "seeds": seeds, "seconds": seconds,
            "smoke": smoke, "spec": spec.describe(), "workloads": rows}


def _count(row: Dict[str, Any], child: Dict[str, Any]) -> None:
    result = child["result"]
    row["attempted"] += result["attempted"]
    row["failed"] += result["failed"]
    if child["exit"] != 0 and not result["failed"]:
        row["failed"] += 1  # exited badly without saying what failed


def _cross_path_gate(rows: Dict[str, Dict[str, Any]], seeds: int) -> None:
    """The four OCEAN paths deliver one trace, so at each seed their
    report digests and the engine's work counts must be identical.  A
    mismatch fails every operation of the workloads involved."""
    ocean = [name for name in rows
             if spec.WORKLOADS_BY_NAME[name].kind in spec.OCEAN_KINDS]
    for field in ("digests", "stats"):
        for i in range(seeds):
            seen = [rows[name][field][i] for name in ocean]
            if any(one != seen[0] or one is None for one in seen):
                print(f"FAILED: {field} differ across {', '.join(ocean)} "
                      f"(seed #{i}): {seen}", file=sys.stderr)
                for name in ocean:
                    rows[name]["failed"] = rows[name]["attempted"]
    # The traced run (made at the first seed) must count the same work.
    for name in ocean:
        traced = rows[name]["traced_stats"]
        if traced is not None and traced != rows[name]["stats"][0]:
            print(f"FAILED: {name}: traced run's engine counts differ "
                  f"from the plain run's", file=sys.stderr)
            rows[name]["failed"] = rows[name]["attempted"]


def failed_share(row: Dict[str, Any]) -> float:
    return row["failed"] / max(row["attempted"], 1)


def print_set(result_set: Dict[str, Any]) -> None:
    """Every metric by name with its unit: the median over the set's
    runs and, from four runs on, their quartile spread."""
    print(f"\n# host {json.dumps(result_set['host'], sort_keys=True)} "
          f"seeds {result_set['seeds']} seconds {result_set['seconds']}")
    for name, row in result_set["workloads"].items():
        for metric, entry in row["end_to_end"].items():
            note = ""
            if entry.get("spread") is not None:
                note = (f"  iqr/median {entry['spread']:.1%} "
                        f"of {len(entry['values'])} runs")
            print(f"{name:18s} {metric:42s} {entry['value']:>14.6g} "
                  f"{entry['unit']}{note}")
        print(f"{name:18s} {'failed_share':42s} {failed_share(row):>14.6g} "
              f"ratio  ({row['failed']} of {row['attempted']} operations)")
        for metric, entry in row["per_layer"].items():
            print(f"{name:18s} {metric:42s} {entry['value']:>14.6g} "
                  f"{entry['unit']}")


def any_failed(result_set: Dict[str, Any]) -> bool:
    return any(row["failed"] or not row["attempted"]
               for row in result_set["workloads"].values())


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> int:
    """Print, per metric and workload, both medians, how much worse the
    second is, the bound, and both sets' quartile spreads; the exit
    code says whether any median is worse by more than its bound or any
    spread (``setup_s`` excepted) is wider than it -- the driver's rule
    for accepting the benchmark."""
    if first["host"]["numpy"] != second["host"]["numpy"]:
        print(f"not comparable: numpy backend {first['host']['numpy']} vs "
              f"{second['host']['numpy']}", file=sys.stderr)
        return 2
    bounds = {m.name: m for m in spec.END_TO_END}
    beyond = 0
    print(f"\n{'workload':18s} {'metric':16s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'iqr/median':>13s}")
    for name, row in first["workloads"].items():
        other = second["workloads"].get(name)
        if other is None:
            continue
        for metric, entry in row["end_to_end"].items():
            if metric not in other["end_to_end"] or metric not in bounds:
                continue
            there = other["end_to_end"][metric]
            a, b, bound = entry["value"], there["value"], bounds[metric].bound
            worse = (b - a) / a if a else 0.0
            if bounds[metric].better == "higher":
                worse = -worse
            spreads = [s for s in (entry.get("spread"), there.get("spread"))
                       if s is not None]
            verdict = ""
            if worse > bound:
                verdict = "  BEYOND BOUND"
            elif metric != "setup_s" and any(s > bound for s in spreads):
                verdict = "  UNSTEADY"
            beyond += bool(verdict)
            print(f"{name:18s} {metric:16s} {a:>12.6g} {b:>12.6g} "
                  f"{worse:>+9.1%} {bound:>6.0%} "
                  f"{' '.join(f'{s:6.1%}' for s in spreads):>13s}{verdict}")
        a, b = failed_share(row), failed_share(other)
        print(f"{name:18s} {'failed_share':16s} {a:>12.6g} {b:>12.6g}"
              + ("  BEYOND BOUND" if b > a else ""))
        beyond += b > a
    return 1 if beyond else 0


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        return compare(json.load(fa), json.load(fb))


def main(args: Any) -> int:
    names = args.workload or [w.name for w in spec.WORKLOADS]
    seeds = [args.seed + i for i in range(args.runs)]
    first = measure_set(names, seeds, args.seconds, args.traced, args.smoke,
                        args.corrupt_digest)
    print_set(first)
    code = 1 if any_failed(first) else 0
    if args.check_repeat:
        # The other order, so that no workload always follows the same
        # neighbour's heat and page cache.
        second = measure_set(names[::-1], seeds, args.seconds, False,
                             args.smoke, args.corrupt_digest)
        print_set(second)
        code = max(code, compare(first, second),
                   1 if any_failed(second) else 0)
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(first, fp, indent=1, sort_keys=True)
            fp.write("\n")
    return code
