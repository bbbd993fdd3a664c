"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``;
outside tier-1's ``testpaths``).

One ``--smoke --traced`` suite run feeds most assertions: inputs ~50x
smaller, a one-second window, every workload untraced and traced.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
OCEAN = ("paper_ocean", "file_check", "serve_thread", "serve_process")
IN_PROCESS = ("cols_addr", "cols_addr_small_h", "cols_taint",
              "paper_ocean", "file_check")


def run_suite(*args, timeout=300):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run_suite("--smoke", "--traced", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fp:
        return json.load(fp)["workloads"]


def layer(smoke, workload, metric):
    return smoke[workload]["per_layer"][metric]["value"]


def test_contract_is_the_committed_file():
    contract = spec.contract()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        assert json.load(fp) == contract
    assert [w["name"] for w in contract["workloads"]] == [
        "cols_addr", "cols_addr_small_h", "cols_taint", "paper_ocean",
        "file_check", "serve_thread", "serve_process",
    ]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(contract["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_every_named_metric_is_reported(smoke):
    assert sorted(smoke) == sorted(w.name for w in spec.WORKLOADS)
    for name, row in smoke.items():
        assert sorted(row["end_to_end"]) == sorted(
            m.name for m in spec.END_TO_END), name
        assert sorted(row["per_layer"]) == sorted(
            m.name for m in spec.PER_LAYER), name
        for metric, entry in row["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
        assert row["attempted"] > 0 and row["failed"] == 0, name


def test_layers_account_for_the_sweep(smoke):
    for name in IN_PROCESS:
        assert abs(layer(smoke, name, "bench.untraced_share")) <= 0.10, name


def test_engine_counts_equal_on_the_four_ocean_paths(smoke):
    for count in ("epochs", "blocks", "meets", "wing_summaries_combined",
                  "window_high_water"):
        seen = {layer(smoke, name, f"core.framework.{count}")
                for name in OCEAN}
        assert len(seen) == 1 and seen != {0}, (count, seen)
    assert len({d for name in OCEAN for d in smoke[name]["digests"]}) == 1


def test_layers_show_only_where_they_run(smoke):
    for name in smoke:
        serve = name.startswith("serve_")
        file_fed = name in ("file_check", "serve_thread", "serve_process")
        assert (layer(smoke, name, "resilience.checkpoint.save_s") > 0
                ) == serve, name
        assert (layer(smoke, name, "core.columnar.pickle_roundtrip_s") > 0
                ) == (name == "serve_process"), name
        assert (layer(smoke, name, "core.columnar.from_rows_s") > 0
                ) == file_fed, name


def test_a_corrupted_digest_is_caught(tmp_path):
    out = tmp_path / "corrupt.json"
    proc = run_suite("--smoke", "--workload", "file_check",
                     "--corrupt-digest", "--out", str(out))
    assert proc.returncode != 0
    with open(out) as fp:
        row = json.load(fp)["workloads"]["file_check"]
    assert row["failed"] == row["attempted"] > 0


def test_no_result_without_the_program(tmp_path):
    """The driver also runs the command where only ``BENCHMARK.json``
    and ``paths`` exist: non-zero exit, no result line."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cols_addr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
