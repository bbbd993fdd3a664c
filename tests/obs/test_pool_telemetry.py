"""The pooled backend's one telemetry set, seen through an engine run."""

import random

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.core.parallel import PoolBackend
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.obs import Recorder
from repro.resilience import FaultPlan, RetryPolicy
from repro.trace.generator import simulated_alloc_program


def test_faulted_pooled_run_carries_task_and_fault_events():
    """A faulted pooled run logs ``backend.task.*`` (with the in-worker
    duration) *and* ``resilience.*``.  Before the pools merged one run
    could produce only one family: the supervising wrapper dropped the
    bare pool's per-task telemetry."""
    prog = simulated_alloc_program(
        random.Random(5), num_threads=3, total_events=120, num_locations=8
    )
    part = partition_by_global_order(prog, 8)
    rec = Recorder()
    backend = PoolBackend(
        "threads",
        RetryPolicy(max_retries=8, backoff_base=0.0),
        FaultPlan(crash=0.2, corrupt=0.1, seed=3),
    )
    with backend, ButterflyEngine(
        ButterflyAddrCheck(), backend=backend, recorder=rec
    ) as engine:
        engine.run(part)

    completes = [e for e in rec.events if e["ev"] == "backend.task.complete"]
    faults = [e for e in rec.events if e["ev"] == "resilience.fault"]
    assert completes and faults
    assert all(
        isinstance(e["dur_ns"], int) and e["dur_ns"] >= 0 for e in completes
    )
    # However often a unit is retried, it is submitted and completes
    # exactly once as far as the backend.* family is concerned.
    assert (
        rec.counters["backend.tasks_submitted"]
        == rec.counters["backend.tasks_completed"]
        == len(completes)
    )
    assert rec.counters["resilience.retries"] == len(faults)
    # One span per batch, under one name.
    assert rec.spans["backend.map"][0] == rec.counters["backend.batches"]
    assert "resilience.map" not in rec.spans
    assert "resilience.batches" not in rec.counters
