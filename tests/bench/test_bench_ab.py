"""scripts/bench_ab.py: folding one-seed result sets into one per side.

The script's measuring half is ``benchmarks/e2e/run.py`` itself; what
it adds is the fold (N one-run sets -> one N-run set, medians and
spreads recomputed) and the pairs-won table, checked here on synthetic
result sets.
"""

import importlib.util
import os

import pytest

ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(ROOT, "scripts", "bench_ab.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_run(seed, events_per_s, rss, failed=0):
    return {
        "host": {"numpy": "x"},
        "seeds": [seed],
        "workloads": {
            "file_check": {
                "attempted": 10,
                "failed": failed,
                "digests": [f"d{seed}"],
                "stats": [{"epochs": 5}],
                "samples": {"inputs": [10]},
                "per_layer": {},
                "end_to_end": {
                    "events_per_s": {"unit": "1/s", "values": [events_per_s],
                                     "value": events_per_s, "spread": None},
                    "peak_rss_mb": {"unit": "MB", "values": [rss],
                                    "value": rss, "spread": None},
                },
            }
        },
    }


def test_fold_concatenates_runs_and_recomputes_medians(bench_ab):
    folded = bench_ab.fold([
        one_run(7, 100.0, 80.0),
        one_run(8, 300.0, 82.0, failed=1),
        one_run(9, 200.0, 81.0),
        one_run(10, 400.0, 83.0),
    ])
    row = folded["workloads"]["file_check"]
    assert folded["seeds"] == [7, 8, 9, 10]
    assert (row["attempted"], row["failed"]) == (40, 1)
    assert row["digests"] == ["d7", "d8", "d9", "d10"]
    assert row["samples"]["inputs"] == [10, 10, 10, 10]
    speed = row["end_to_end"]["events_per_s"]
    assert speed["values"] == [100.0, 300.0, 200.0, 400.0]
    assert speed["value"] == 250.0
    assert speed["spread"] == pytest.approx(1.0)  # (375 - 125) / 250


def test_pairs_won_respects_each_metrics_direction(bench_ab, capsys):
    base = bench_ab.fold([one_run(7, 100.0, 80.0), one_run(8, 100.0, 80.0),
                          one_run(9, 100.0, 80.0)])
    change = bench_ab.fold([one_run(7, 250.0, 79.0), one_run(8, 90.0, 80.0),
                            one_run(9, 260.0, 85.0)])
    bench_ab.print_pairs_won(base, change)
    rows = {
        tuple(line.split()[:2]): line.split()[2:]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("file_check")
    }
    # higher is better: the change won pairs 1 and 3
    assert rows["file_check", "events_per_s"] == ["2", "1", "3", "2.50x"]
    # lower is better: one win, one tie, one loss
    assert rows["file_check", "peak_rss_mb"] == ["1", "1", "3", "1.00x"]
