"""Streaming overhead budget (PR acceptance criterion).

Feeding the engine one epoch at a time through an
:class:`~repro.core.stream.EpochSource` adds only the per-epoch
generator hop plus the eviction bookkeeping, so a streamed run of the
microbench-core workload must stay within 5% of the materialized run.

At scale the same comparison is ``file_check`` against
``paper_ocean`` in ``benchmarks/e2e`` (one OCEAN trace, streamed from
disk vs. materialized).

Timing-sensitive: skipped under ``REPRO_CI=1``; on a live host the two
configurations are measured interleaved so clock drift hits both.

The last test is the one overhead guard that times with the cyclic
collector *on*: decoding a version 2 (row) stream beside a resident heap
must cost what it costs with the collector off (``docs/perf.md``,
"Decode").
"""

import gc
import random
import time

from repro.core.epoch import partition_auto
from repro.core.framework import ButterflyEngine
from repro.core.stream import PartitionSource
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.obs.recorder import Recorder, normalize_events
from repro.trace.generator import simulated_alloc_program
from repro.trace.serialize import iter_load

from tests.trace.v2_stream import save_v2_file

#: The acceptance budget: streamed slowdown over materialized.
BUDGET = 1.05

#: Decode with the collector enabled over decode under ``gc.disable()``
#: (1.6-2.3x before the decoder paused the collector per record).
GC_BUDGET = 1.25


def _interleaved_best(fns, repeats=14):
    """Best-of timings, measured round-robin so slow-host drift lands
    on every configuration equally (see test_resilience_overhead)."""
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


def test_streaming_within_budget(timing_guard, core_partition):
    def run_materialized():
        with ButterflyEngine(ButterflyAddrCheck()) as engine:
            engine.run(core_partition)

    def run_streamed():
        with ButterflyEngine(ButterflyAddrCheck()) as engine:
            engine.run_source(PartitionSource(core_partition))

    # A single-digit-percent budget on wall clock can still lose to a
    # burst of host noise; a genuine regression fails every re-measure,
    # noise almost never fails three independent ones.
    for attempt in range(3):
        materialized, streamed = _interleaved_best(
            [run_materialized, run_streamed]
        )
        if streamed <= materialized * BUDGET:
            return
    assert streamed <= materialized * BUDGET, (
        f"streamed feed too slow on 3 measurements: "
        f"{streamed * 1e3:.2f} ms vs {materialized * 1e3:.2f} ms "
        f"materialized (ratio {streamed / materialized:.4f}, "
        f"budget {BUDGET})"
    )


def test_streaming_changes_no_results(core_partition):
    """Streaming must be invisible: identical errors, stats, events."""
    mat_guard = ButterflyAddrCheck()
    mat_rec = Recorder()
    with ButterflyEngine(mat_guard, recorder=mat_rec) as engine:
        mat_stats = engine.run(core_partition)
    st_guard = ButterflyAddrCheck()
    st_rec = Recorder()
    with ButterflyEngine(st_guard, recorder=st_rec) as engine:
        st_stats = engine.run_source(PartitionSource(core_partition))
    assert st_stats == mat_stats
    assert [
        (r.kind, r.location, r.ref, r.block) for r in st_guard.errors
    ] == [(r.kind, r.location, r.ref, r.block) for r in mat_guard.errors]
    assert normalize_events(st_rec.events) == normalize_events(
        mat_rec.events
    )


def test_decode_does_not_pay_the_cyclic_collector(timing_guard, tmp_path):
    """This file's other guard, ``test_serve_overhead`` and
    ``test_resilience_overhead`` all time under ``gc.disable()``: they
    compare two configurations of one engine and want collections --
    whose timing depends on what else the process holds -- out of both
    sides.  That is also how a third of ``file_check`` went unseen:
    ``json.loads`` makes two lists per event, every ~700 of them start a
    collection, and a collection's cost grows with the resident heap.
    So this guard must leave the collector on, keep a heap resident for
    it to walk, and compare *totals* (a best-of would pick the one
    repeat no full collection landed in).  It decodes a version 2 file:
    a version 3 record parses to one string per block, so only rows
    still give the collector anything to count.
    """
    program = simulated_alloc_program(
        random.Random(5), num_threads=4, total_events=30_000
    )
    path = tmp_path / "t.stream.jsonl"
    save_v2_file(partition_auto(program, 2048), path)
    resident = [[i] for i in range(400_000)]  # >= 30 MB the collector tracks

    def decode():
        for _row in iter_load(path).epochs():
            pass

    def total(repeats=8):
        t0 = time.perf_counter()
        for _ in range(repeats):
            decode()
        return time.perf_counter() - t0

    assert gc.isenabled()
    decode()
    for attempt in range(3):
        collected = total()
        gc.disable()
        try:
            uncollected = total()
        finally:
            gc.enable()
        if collected <= uncollected * GC_BUDGET:
            break
    del resident
    assert collected <= uncollected * GC_BUDGET, (
        f"decode pays the collector on 3 measurements: "
        f"{collected * 1e3:.1f} ms with it enabled vs "
        f"{uncollected * 1e3:.1f} ms under gc.disable() (ratio "
        f"{collected / uncollected:.2f}, budget {GC_BUDGET})"
    )
