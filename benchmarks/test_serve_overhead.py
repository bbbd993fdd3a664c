"""Serve-path overhead budget.

Pushing a stream trace file through the daemon (framing, Unix socket,
bounded queue, shard executor hop) must stay within ``BUDGET`` of
feeding the same file to the engine offline via ``run_source`` -- the
wire is bookkeeping around the same per-epoch analysis, not a second
analysis.

Timing-sensitive: skipped under ``REPRO_CI=1`` (see ``conftest.py``);
the serve-vs-offline *result* equivalence always runs.
"""

import gc
import json
import time

import pytest

from repro.core.framework import ButterflyEngine
from repro.serve import (
    ServeConfig,
    ServerThread,
    build_report,
    make_hello,
    push_trace,
)
from repro.serve.server import make_guard
from repro.trace.serialize import (
    iter_load,
    save_stream_file,
    stream_header,
)

#: Serve wall-clock over offline wall-clock for the core workload.
#: The core trace's epochs are deliberately small, so the per-epoch
#: transport cost (frame encode, loopback socket, queue hand-off,
#: executor hop) is maximally visible: measured ~2.3x on a quiet dev
#: host.  The budget guards the *shape* -- a constant factor per epoch
#: -- so a regression to O(trace) buffering or double analysis still
#: fails loudly, while loopback chatter does not flake the gate.
BUDGET = 3.0


@pytest.fixture(scope="module")
def core_trace(core_partition, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-bench") / "core.stream.jsonl"
    save_stream_file(core_partition, str(path))
    return path


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    sock = tmp_path_factory.mktemp("serve-bench") / "serve.sock"
    with ServerThread(ServeConfig(unix_path=str(sock))) as thread:
        yield thread


def offline_run(path):
    with open(path) as fp:
        header = stream_header(fp, str(path))
    guard = make_guard("addrcheck", frozenset(header["preallocated"]))
    with ButterflyEngine(guard) as engine:
        engine.run_source(iter_load(str(path)))
        return header, engine, guard


def _interleaved_best(fns, repeats=10):
    """Best-of timings, round-robin so host drift hits every
    configuration equally (see test_streaming_overhead)."""
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    gc.disable()
    try:
        for _ in range(repeats):
            for i, fn in enumerate(fns):
                gc.collect()
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def test_serve_within_budget(timing_guard, daemon, core_trace):
    counter = iter(range(10_000))

    def run_offline():
        offline_run(core_trace)

    def run_served():
        push_trace(
            daemon.address, str(core_trace), f"bench-{next(counter)}"
        )

    # Re-measure before failing: noise rarely loses three independent
    # rounds, a real regression loses them all.
    for attempt in range(3):
        offline, served = _interleaved_best([run_offline, run_served])
        if served <= offline * BUDGET:
            return
    assert served <= offline * BUDGET, (
        f"serve path too slow on 3 measurements: {served * 1e3:.2f} ms "
        f"vs {offline * 1e3:.2f} ms offline "
        f"(ratio {served / offline:.3f}, budget {BUDGET})"
    )


def test_serve_changes_no_results(daemon, core_trace):
    """The wire must be invisible: identical report, window bound held."""
    header, engine, guard = offline_run(core_trace)
    hello = make_hello(
        "bench-ref", header["threads"], header["epochs"],
        header["preallocated"], "addrcheck",
    )
    expected = json.loads(
        json.dumps(build_report("bench-ref", hello, engine, guard))
    )
    served = push_trace(daemon.address, str(core_trace), "bench-ref")
    assert served == expected
    assert served["window_high_water"] <= served["window_bound"]
