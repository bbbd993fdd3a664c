"""Fault-free supervision overhead budget (PR acceptance criterion).

Wrapping a backend in :class:`~repro.resilience.SupervisedBackend` with
no fault plan adds only a per-task decision lookup (which short-circuits
when no plan is installed) and the ordered-collect bookkeeping, so a
fault-free supervised serial run must stay within 2% of the bare serial
run on the microbench-core workload.

This live interleaved ratio is the only measurement of supervision
overhead: no ``benchmarks/e2e`` workload runs supervised.

Timing-sensitive: skipped under ``REPRO_CI=1``; on a live host the two
configurations are measured interleaved so clock drift hits both.
"""

import time

from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.resilience import SupervisedBackend

#: The acceptance budget: fault-free supervised-serial slowdown over
#: bare serial.
BUDGET = 1.02


def _interleaved_best(fns, repeats=14):
    """Best-of timings, measured round-robin so slow-host drift lands
    on every configuration equally.  Scheduling noise is additive, so
    the minimum over many samples converges on the true cost; the one
    systematic bias left is the garbage collector, whose cycles can
    repeatedly land inside the same configuration's window -- so GC is
    paused during measurement and drained right before each sample.
    One untimed warmup round absorbs lazy-import and allocator churn
    left behind by earlier benchmarks."""
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


def test_fault_free_supervision_within_budget(timing_guard, core_partition):
    def run_bare():
        with ButterflyEngine(ButterflyAddrCheck()) as engine:
            engine.run(core_partition)

    def run_supervised():
        backend = SupervisedBackend("serial")
        try:
            with ButterflyEngine(
                ButterflyAddrCheck(), backend=backend
            ) as engine:
                engine.run(core_partition)
        finally:
            backend.close()

    # A single-digit-percent budget on wall clock can still lose to a
    # burst of host noise; a genuine regression fails every re-measure,
    # noise almost never fails three independent ones.
    for attempt in range(3):
        bare, supervised = _interleaved_best([run_bare, run_supervised])
        if supervised <= bare * BUDGET:
            return
    assert supervised <= bare * BUDGET, (
        f"fault-free supervision too slow on 3 measurements: "
        f"{supervised * 1e3:.2f} ms vs {bare * 1e3:.2f} ms bare "
        f"(ratio {supervised / bare:.4f}, budget {BUDGET})"
    )


def test_supervision_changes_no_results(core_partition):
    """Supervision must be invisible: identical errors and stats."""
    bare = ButterflyAddrCheck()
    with ButterflyEngine(bare) as engine:
        stats_bare = engine.run(core_partition)
    guarded = ButterflyAddrCheck()
    backend = SupervisedBackend("serial")
    try:
        with ButterflyEngine(guarded, backend=backend) as engine:
            stats_sup = engine.run(core_partition)
    finally:
        backend.close()
    assert stats_sup == stats_bare
    assert [
        (r.kind, r.location, r.ref, r.block) for r in guarded.errors
    ] == [(r.kind, r.location, r.ref, r.block) for r in bare.errors]
