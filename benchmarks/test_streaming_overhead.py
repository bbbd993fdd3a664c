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
"""

import time

from repro.core.framework import ButterflyEngine
from repro.core.stream import PartitionSource
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.obs.recorder import Recorder, normalize_events

#: The acceptance budget: streamed slowdown over materialized.
BUDGET = 1.05


def _interleaved_best(fns, repeats=14):
    """Best-of timings, measured round-robin so slow-host drift lands
    on every configuration equally (see test_resilience_overhead)."""
    import gc

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
