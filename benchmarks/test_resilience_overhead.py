"""Fault-free supervision overhead budget.

Every pooled backend is supervised (:class:`repro.core.parallel.PoolBackend`:
ordered collect with a per-task timeout, result validation, retry and
ladder bookkeeping), so the question is what that costs when nothing
fails.  The yardstick is the loop it replaced, kept here as a
test-local reference: submit every unit, ``result()`` in order, nothing
else.  The merged pool must return the same results and stay within
10% of that bare loop on the microbench-core workload (measured on a
2-vCPU host: 1.01-1.06 threads, 1.02-1.08 processes).

The guard this replaces budgeted 1.02 for a "supervised serial" backend
against the bare serial one -- but the engine never fans out on a
non-concurrent backend, so both sides ran the same code and the ratio
measured only noise.

This live interleaved ratio is the only measurement of supervision
overhead: no ``benchmarks/e2e`` workload runs a pooled backend.

Timing-sensitive: skipped under ``REPRO_CI=1``; on a live host the two
configurations are measured interleaved so clock drift hits both.
"""

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.framework import ButterflyEngine
from repro.core.parallel import ExecutionBackend, PoolBackend
from repro.lifeguards.addrcheck import ButterflyAddrCheck

#: The acceptance budget: fault-free merged-pool slowdown over the bare
#: submit-all / collect-in-order loop on the same executor type.
BUDGET = 1.10

WORKERS = 2


def _apply(payload):
    fn, args = payload
    return fn(*args)


class BareReferencePool(ExecutionBackend):
    """The unsupervised loop the merged pool replaced: no timeout, no
    validation, no retry, no telemetry."""

    concurrent = True

    def __init__(self, kind):
        self.name = kind
        self.shares_memory = kind == "threads"
        self._executor = (
            ThreadPoolExecutor(WORKERS) if kind == "threads"
            else ProcessPoolExecutor(WORKERS)
        )

    def map_ordered(self, fn, items):
        futures = [self._executor.submit(_apply, (fn, item)) for item in items]
        return [future.result() for future in futures]

    def close(self):
        self._executor.shutdown(wait=True)


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


def _run(backend, partition):
    guard = ButterflyAddrCheck()
    stats = ButterflyEngine(guard, backend=backend).run(partition)
    return stats, [(r.kind, r.location, r.ref, r.block) for r in guard.errors]


@pytest.mark.parametrize("kind", ["threads", "processes"])
def test_fault_free_supervision_within_budget(
    kind, timing_guard, core_partition
):
    # Both pools are built once and kept warm: the budget is on the
    # fan-out loop, not on worker start-up.
    with BareReferencePool(kind) as bare_pool, PoolBackend(
        kind, WORKERS
    ) as pool:
        # A single-digit-percent budget on wall clock can still lose to
        # a burst of host noise; a genuine regression fails every
        # re-measure, noise almost never fails three independent ones.
        for attempt in range(3):
            bare, supervised = _interleaved_best([
                lambda: _run(bare_pool, core_partition),
                lambda: _run(pool, core_partition),
            ])
            if supervised <= bare * BUDGET:
                break
    print(f"\nsupervised / bare ({kind}): {supervised / bare:.3f}")
    assert supervised <= bare * BUDGET, (
        f"fault-free supervision too slow on 3 measurements: "
        f"{supervised * 1e3:.2f} ms vs {bare * 1e3:.2f} ms bare "
        f"(ratio {supervised / bare:.4f}, budget {BUDGET})"
    )


@pytest.mark.parametrize("kind", ["threads", "processes"])
def test_supervision_changes_no_results(kind, core_partition):
    """Supervision must be invisible: identical errors and stats to the
    bare loop and to the serial reference schedule."""
    with BareReferencePool(kind) as bare_pool, PoolBackend(
        kind, WORKERS
    ) as pool:
        assert (
            _run(pool, core_partition)
            == _run(bare_pool, core_partition)
            == _run("serial", core_partition)
        )
