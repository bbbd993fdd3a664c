"""Tests for the pool's supervision (retry, timeout, healing, ladder)."""

import time
from dataclasses import dataclass

import pytest

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.core.parallel import PoolBackend, SerialBackend, get_backend
from repro.errors import AnalysisError, ResilienceError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.obs import Recorder
from repro.resilience import DEGRADATION_LADDER, FaultPlan, RetryPolicy

import random

from repro.trace.generator import simulated_alloc_program

#: Zero-delay policy so retry tests don't sleep.
FAST = RetryPolicy(backoff_base=0.0)


def _pool(rung, **kwargs):
    """A pool standing on ``rung`` of the ladder.  ``"serial"`` is a
    threads pool stepped down to the last rung, where units run inline
    under the same retry/validation contract."""
    if rung != "serial":
        return PoolBackend(rung, **kwargs)
    pool = PoolBackend("threads", **kwargs)
    assert pool._degrade() and pool.name == "serial"
    return pool


def _square(x):
    return x * x


def _boom(x):
    raise ValueError("boom")


@dataclass(frozen=True)
class KillFirstAttempt(FaultPlan):
    """Every task's first execution dies; retries are clean.

    Module-level so it pickles into process-pool workers.
    """

    def decide(self, key, attempt):
        return "kill" if attempt == 0 else None


@dataclass(frozen=True)
class KillTaskZeroTwice(FaultPlan):
    """Task 0's first two executions die: two pool incidents in a row,
    the count that steps a pool down one rung."""

    def decide(self, key, attempt):
        return "kill" if key[1] == 0 and attempt < 2 else None


@dataclass(frozen=True)
class CrashFirstAttempt(FaultPlan):
    def decide(self, key, attempt):
        return "crash" if attempt == 0 else None


@dataclass(frozen=True)
class CorruptFirstAttempt(FaultPlan):
    def decide(self, key, attempt):
        return "corrupt" if attempt == 0 else None


class TestBackendSurface:
    def test_name_and_capabilities_track_inner(self):
        # The name is the current rung's; capabilities follow it.
        with PoolBackend("threads") as backend:
            assert backend.name == "threads"
            assert backend.concurrent
        with PoolBackend("processes") as backend:
            assert backend.name == "processes"
            assert backend.concurrent

    def test_serial_inner_not_concurrent(self):
        # The serial backend is not a pool and a pool cannot start on
        # the serial rung: nothing supervised sits inside a serial run.
        backend = get_backend("serial")
        assert isinstance(backend, SerialBackend)
        assert not backend.concurrent
        with pytest.raises(AnalysisError, match="threads or processes"):
            PoolBackend("serial")

    def test_ladder_constant(self):
        assert DEGRADATION_LADDER == ("processes", "threads", "serial")

    def test_policy_and_plan_reach_a_named_pool(self):
        plan = FaultPlan(crash=0.5)
        with get_backend("threads", FAST, plan) as backend:
            assert (backend.policy, backend.plan) == (FAST, plan)
            # An instance passes through untouched: its own policy stands.
            assert get_backend(backend, policy=RetryPolicy()) is backend
            assert backend.policy is FAST

    @pytest.mark.parametrize("kind", ["crash", "hang", "kill", "corrupt"])
    def test_compute_faults_on_the_serial_backend_are_refused(self, kind):
        # The serial backend fans nothing out, so the plan would never
        # fire; that used to run clean and report success.
        for spec in ("serial", None):
            with pytest.raises(ResilienceError, match="threads.processes"):
                get_backend(spec, plan=FaultPlan(**{kind: 0.5}))
        # Transport faults are the producer's, not the backend's.
        assert isinstance(
            get_backend("serial", plan=FaultPlan(disconnect=0.5)),
            SerialBackend,
        )


class TestFaultFreeMapping:
    @pytest.mark.parametrize("inner", ["serial", "threads", "processes"])
    def test_matches_plain_backend(self, inner):
        items = [(i,) for i in range(16)]
        with _pool(inner, policy=FAST) as backend:
            assert backend.map_ordered(_square, items) == [
                i * i for i in range(16)
            ]

    @pytest.mark.parametrize("inner", ["serial", "threads"])
    def test_empty_batch(self, inner):
        with _pool(inner, policy=FAST) as backend:
            assert backend.map_ordered(_square, []) == []


class TestRetries:
    @pytest.mark.parametrize("inner", ["serial", "threads"])
    def test_crash_first_attempt_recovers(self, inner):
        plan = CrashFirstAttempt()
        with _pool(inner, policy=FAST, plan=plan) as backend:
            assert backend.map_ordered(_square, [(i,) for i in range(6)]) == [
                i * i for i in range(6)
            ]

    @pytest.mark.parametrize("inner", ["serial", "threads"])
    def test_corrupt_first_attempt_recovers(self, inner):
        plan = CorruptFirstAttempt()
        with _pool(inner, policy=FAST, plan=plan) as backend:
            assert backend.map_ordered(_square, [(i,) for i in range(6)]) == [
                i * i for i in range(6)
            ]

    @pytest.mark.parametrize("inner", ["serial", "threads"])
    def test_permanent_fault_exhausts_retries(self, inner):
        plan = FaultPlan(crash=1.0)
        policy = RetryPolicy(max_retries=2, backoff_base=0.0)
        with _pool(inner, policy=policy, plan=plan) as backend:
            with pytest.raises(
                ResilienceError,
                match=r"failed 3 times \(max_retries=2\): "
                      r"InjectedFault: injected crash",
            ):
                backend.map_ordered(_square, [(1,), (2,)])

    def test_real_task_exception_retries_then_raises(self):
        # A genuine (non-injected) failure follows the same contract.
        policy = RetryPolicy(max_retries=1, backoff_base=0.0)
        with PoolBackend("threads", policy=policy) as backend:
            with pytest.raises(
                ResilienceError,
                match=r"failed 2 times \(max_retries=1\): ValueError: boom",
            ) as caught:
                backend.map_ordered(_boom, [(1,)])
        # The give-up keeps its cause: it is raised from the task's
        # last exception, not in place of it.
        assert isinstance(caught.value.__cause__, ValueError)

    def test_giveup_names_a_corrupt_result_and_a_timeout(self):
        policy = RetryPolicy(max_retries=0, backoff_base=0.0)
        with PoolBackend(
            "threads", policy=policy, plan=FaultPlan(corrupt=1.0)
        ) as backend:
            with pytest.raises(ResilienceError, match="failed validation"):
                backend.map_ordered(_square, [(1,)])
        _hang_state["hangs"] = 1
        policy = RetryPolicy(max_retries=0, task_timeout=0.05)
        with PoolBackend("threads", policy=policy) as backend:
            with pytest.raises(ResilienceError, match="no result within 0.05s"):
                backend.map_ordered(_hang, [(0,)])

    def test_retry_events_logged(self):
        rec = Recorder()
        plan = CrashFirstAttempt()
        with PoolBackend("threads", policy=FAST, plan=plan) as backend:
            backend.recorder = rec
            backend.map_ordered(_square, [(i,) for i in range(4)])
        assert rec.counters["resilience.faults"] >= 1
        assert rec.counters["resilience.faults.crash"] >= 1
        assert rec.counters["resilience.retries"] >= 1
        kinds = {ev["ev"] for ev in rec.events}
        assert {"resilience.fault", "resilience.retry"} <= kinds

    def test_a_crash_in_a_worker_process_is_a_task_level_fault(self):
        # The injected exception must unpickle in the parent; when it
        # did not, every crash broke (and recycled) the process pool.
        rec = Recorder()
        with PoolBackend("processes", FAST, CrashFirstAttempt()) as pool:
            pool.recorder = rec
            assert pool.map_ordered(_square, [(i,) for i in range(4)]) == [
                0, 1, 4, 9
            ]
        assert rec.counters["resilience.faults.crash"] == 4
        assert "resilience.pool_recycles" not in rec.counters


_hang_state = {"hangs": 0}


def _hang(x):
    """Task 0 sleeps far past the test's task timeout on each of its
    first ``_hang_state["hangs"]`` executions (they run one at a time:
    a retry starts only once the previous execution timed out)."""
    if x == 0 and _hang_state["hangs"] > 0:
        _hang_state["hangs"] -= 1
        time.sleep(1.0)
    return x * x


class TestTimeoutsAndHealing:
    def test_timed_out_task_is_retried_on_a_fresh_pool(self):
        _hang_state["hangs"] = 1
        rec = Recorder()
        policy = RetryPolicy(task_timeout=0.15, backoff_base=0.0)
        with PoolBackend("threads", policy=policy) as backend:
            backend.recorder = rec
            assert backend.map_ordered(_hang, [(i,) for i in range(4)]) == [
                0, 1, 4, 9
            ]
        assert rec.counters["resilience.faults.timeout"] >= 1
        assert rec.counters["resilience.pool_recycles"] >= 1
        assert any(
            ev["ev"] == "resilience.pool.recycle" and ev["reason"] == "timeout"
            for ev in rec.events
        )

    def test_broken_process_pool_is_recycled(self):
        rec = Recorder()
        policy = RetryPolicy(backoff_base=0.0)
        plan = KillFirstAttempt()
        with PoolBackend("processes", policy=policy, plan=plan) as backend:
            backend.recorder = rec
            assert backend.map_ordered(_square, [(i,) for i in range(3)]) == [
                0, 1, 4
            ]
        assert rec.counters["resilience.pool_recycles"] >= 1


class TestDegradationLadder:
    def test_threads_degrade_to_serial_mid_batch(self):
        _hang_state["hangs"] = 2
        rec = Recorder()
        policy = RetryPolicy(task_timeout=0.15, backoff_base=0.0)
        with PoolBackend("threads", policy=policy) as backend:
            backend.recorder = rec
            result = backend.map_ordered(_hang, [(i,) for i in range(5)])
            assert result == [0, 1, 4, 9, 16]
            assert backend.name == "serial"
            # The engine's fan-out contract was fixed at construction.
            assert backend.concurrent
        degrades = [ev for ev in rec.events if ev["ev"] == "resilience.degrade"]
        assert degrades == [
            {
                "seq": degrades[0]["seq"],
                "ev": "resilience.degrade",
                "from_backend": "threads",
                "to_backend": "serial",
                "after_failures": 2,
            }
        ]

    def test_processes_degrade_to_threads(self):
        rec = Recorder()
        policy = RetryPolicy(backoff_base=0.0)
        plan = KillTaskZeroTwice()
        with PoolBackend("processes", policy=policy, plan=plan) as backend:
            backend.recorder = rec
            assert backend.map_ordered(_square, [(i,) for i in range(4)]) == [
                0, 1, 4, 9
            ]
            assert backend.name == "threads"
        assert any(
            ev["ev"] == "resilience.degrade"
            and ev["from_backend"] == "processes"
            and ev["to_backend"] == "threads"
            for ev in rec.events
        )

    def test_serial_cannot_degrade_further(self):
        backend = _pool("serial")
        assert backend._degrade() is False
        assert backend.name == "serial"


class TestEngineIntegration:
    def test_supervised_faulty_run_matches_fault_free(self):
        prog = simulated_alloc_program(
            random.Random(5),
            num_threads=3,
            total_events=120,
            num_locations=8,
            inject_error_rate=0.2,
        )
        part = partition_by_global_order(prog, 8)
        ref = ButterflyAddrCheck()
        ref_stats = ButterflyEngine(ref).run(part)

        plan = FaultPlan(crash=0.15, corrupt=0.1, seed=3)
        policy = RetryPolicy(max_retries=8, backoff_base=0.0)
        guard = ButterflyAddrCheck()
        with PoolBackend("threads", policy=policy, plan=plan) as backend:
            with ButterflyEngine(guard, backend=backend) as engine:
                stats = engine.run(part)
        assert stats == ref_stats
        assert [
            (r.kind, r.location, r.ref, r.block) for r in guard.errors
        ] == [(r.kind, r.location, r.ref, r.block) for r in ref.errors]

    def test_fault_provenance_carries_epoch_and_thread(self):
        prog = simulated_alloc_program(
            random.Random(5),
            num_threads=3,
            total_events=120,
            num_locations=8,
        )
        part = partition_by_global_order(prog, 8)
        rec = Recorder()
        plan = CrashFirstAttempt()
        policy = RetryPolicy(max_retries=8, backoff_base=0.0)
        guard = ButterflyAddrCheck()
        with PoolBackend("threads", policy=policy, plan=plan) as backend:
            with ButterflyEngine(
                guard, backend=backend, recorder=rec
            ) as engine:
                engine.run(part)
        faults = [ev for ev in rec.events if ev["ev"] == "resilience.fault"]
        assert faults
        assert all(
            ev["epoch"] is not None and ev["thread"] is not None
            for ev in faults
        )


class TestPooledBackendLeakFix:
    """A failing batch must not leak in-flight futures -- here with the
    fail-fast policy, where the first failure ends the batch."""

    FAIL_FAST = RetryPolicy(max_retries=0)

    def test_plain_path_discards_executor_on_failure(self):
        backend = PoolBackend("threads", self.FAIL_FAST)
        backend.map_ordered(_square, [(1,)])
        with pytest.raises(ResilienceError, match="ValueError: boom"):
            backend.map_ordered(_boom, [(i,) for i in range(8)])
        # The suspect executor was dropped; the next use builds a fresh
        # pool lazily instead of reusing one with abandoned futures.
        assert backend._executor is None
        assert backend.map_ordered(_square, [(3,)]) == [9]
        backend.close()

    def test_instrumented_path_discards_executor_on_failure(self):
        backend = PoolBackend("threads", self.FAIL_FAST)
        backend.recorder = rec = Recorder()
        with pytest.raises(ResilienceError, match="ValueError: boom"):
            backend.map_ordered(_boom, [(i,) for i in range(8)])
        assert backend._executor is None
        assert [
            ev["attempts"] for ev in rec.events
            if ev["ev"] == "resilience.giveup"
        ] == [1]
        assert "resilience.retries" not in rec.counters
        backend.close()
