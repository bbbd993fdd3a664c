"""Resilience determinism: fault-injected runs must change nothing.

The pool's whole contract is that recovery is invisible: a run
surviving injected crashes, corruptions, kills, and hangs -- including
one that degraded down the backend ladder mid-run, or one that was
killed at an epoch boundary and resumed -- produces error logs,
``EngineStats``, and published summaries *bit-identical* to a fault-free
serial run.  These properties pin that down on randomized traces and
randomized fault schedules.

A pool carries its own fault plan, so each hypothesis example builds
and closes one (executors are lazy: an example pays only for the
workers it uses), and only examples in which a fault was actually
detected count (:func:`_faulty_pool`).
"""

import random
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.core.parallel import PoolBackend
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.obs import Recorder, normalize_events
from repro.resilience import Checkpointer, FaultPlan, RetryPolicy
from repro.resilience.checkpoint import load_checkpoint
from repro.trace.generator import simulated_alloc_program

#: Deep retry budget + zero backoff: a fault schedule cannot plausibly
#: exhaust it (p ~ rate^31 per task -- hypothesis DID find the rate^9
#: tail with a budget of 8), and retries cost no wall time.
POLICY = RetryPolicy(max_retries=30, backoff_base=0.0, jitter=0.0,
                     degrade_after=99)


@contextmanager
def _faulty_pool(kind, workers, plan):
    """A pool under ``plan``, closed on exit.

    An example whose assertions held is then *discarded* unless the
    pool detected at least one fault: a plan that never fires (a
    one-thread trace has no fan-out to inject into) proves nothing, and
    must not count toward the examples a test ran.
    """
    pool = PoolBackend(kind, workers, POLICY, plan)
    pool.recorder = Recorder(keep_events=False)
    try:
        yield pool
    finally:
        pool.close()
    assume(pool.recorder.counters.get("resilience.faults", 0) > 0)


def _stats_tuple(stats):
    return (
        stats.epochs_processed,
        stats.first_pass_instructions,
        stats.second_pass_instructions,
        stats.meets,
        stats.wing_summaries_combined,
    )


def _report_list(errors):
    return [(r.kind, r.location, r.ref, r.block, r.detail) for r in errors]


def _sos_states(guard):
    return (guard.sos.published(), guard.sos.frontier)


def _addr_fingerprint(guard, stats):
    return (
        _stats_tuple(stats),
        _report_list(guard.errors),
        _sos_states(guard),
        guard.block_work,
    )


def _program(seed, threads):
    return simulated_alloc_program(
        random.Random(seed),
        num_threads=threads,
        total_events=60,
        num_locations=6,
        inject_error_rate=0.2,
    )


class TestFaultInjectionPreservesResults:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
        fault_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_crash_corrupt_on_threads(self, seed, threads, h, fault_seed):
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)
        ref = ButterflyAddrCheck()
        ref_print = _addr_fingerprint(ref, ButterflyEngine(ref).run(part))

        plan = FaultPlan(crash=0.2, corrupt=0.15, seed=fault_seed)
        guard = ButterflyAddrCheck()
        with _faulty_pool("threads", 4, plan) as backend:
            stats = ButterflyEngine(guard, backend=backend).run(part)
            assert _addr_fingerprint(guard, stats) == ref_print

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
        fault_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_crash_kill_on_processes(self, seed, threads, h, fault_seed):
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)
        ref = ButterflyAddrCheck()
        ref_print = _addr_fingerprint(ref, ButterflyEngine(ref).run(part))

        # Low kill rate: every kill costs a pool teardown + respawn.
        plan = FaultPlan(crash=0.1, kill=0.02, corrupt=0.1, seed=fault_seed)
        guard = ButterflyAddrCheck()
        with _faulty_pool("processes", 2, plan) as backend:
            stats = ButterflyEngine(guard, backend=backend).run(part)
            assert _addr_fingerprint(guard, stats) == ref_print

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
        fault_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_hang_faults_on_threads(self, seed, threads, h, fault_seed):
        # Zero-length hangs exercise the hang path (private-copy
        # execution) without wall-clock cost.  (This ran on a
        # "supervised serial" backend whose fan-out the engine never
        # called, so no hang was ever injected.)
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)
        ref = ButterflyAddrCheck()
        ref_print = _addr_fingerprint(ref, ButterflyEngine(ref).run(part))

        plan = FaultPlan(crash=0.15, hang=0.2, corrupt=0.1,
                         seed=fault_seed, hang_s=0.0)
        guard = ButterflyAddrCheck()
        with _faulty_pool("threads", 4, plan) as backend:
            stats = ButterflyEngine(guard, backend=backend).run(part)
            assert _addr_fingerprint(guard, stats) == ref_print

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
        fault_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_racecheck_under_faults(self, seed, threads, h, fault_seed):
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)
        ref = ButterflyRaceCheck()
        ref_stats = ButterflyEngine(ref).run(part)

        plan = FaultPlan(crash=0.2, corrupt=0.1, seed=fault_seed)
        guard = ButterflyRaceCheck()
        with _faulty_pool("threads", 4, plan) as backend:
            stats = ButterflyEngine(guard, backend=backend).run(part)
            assert _stats_tuple(stats) == _stats_tuple(ref_stats)
            assert _report_list(guard.errors) == _report_list(ref.errors)
            assert [
                (r.kind, r.location, r.body_ref) for r in guard.races
            ] == [(r.kind, r.location, r.body_ref) for r in ref.races]


class TestFaultInjectionPreservesEventLog:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
        fault_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_normalized_log_matches_fault_free_serial(
        self, seed, threads, h, fault_seed
    ):
        """``resilience.*`` events are fault-schedule telemetry; after
        :func:`normalize_events` drops them (with ``backend.*`` and the
        wall-clock fields), a faulty run's log equals the fault-free
        serial log -- no analysis event is lost or duplicated."""
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)

        ref_rec = Recorder()
        ButterflyEngine(
            ButterflyAddrCheck(), recorder=ref_rec
        ).run(part)
        ref_log = normalize_events(ref_rec.events)

        plan = FaultPlan(crash=0.2, corrupt=0.15, seed=fault_seed)
        rec = Recorder()
        with _faulty_pool("threads", 4, plan) as backend:
            # The engine points the pool's recorder at its own.
            ButterflyEngine(
                ButterflyAddrCheck(), backend=backend, recorder=rec
            ).run(part)
            assert normalize_events(rec.events) == ref_log
        # The raw log does carry the fault telemetry it just filtered,
        # next to the per-task telemetry of the same pool.
        kinds = {ev["ev"] for ev in rec.events}
        assert {"resilience.fault", "backend.task.complete"} <= kinds


class TestDegradationPreservesResults:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
    )
    @settings(max_examples=6, deadline=None)
    def test_forced_full_ladder_matches_serial(self, seed, threads, h):
        """A run that degrades processes -> threads -> serial mid-run
        (forced by recording pool incidents directly) stays identical."""
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)
        ref = ButterflyAddrCheck()
        ref_print = _addr_fingerprint(ref, ButterflyEngine(ref).run(part))

        backend = PoolBackend(
            "processes", 2,
            RetryPolicy(backoff_base=0.0, jitter=0.0, degrade_after=1),
        )
        guard = ButterflyAddrCheck()
        engine = ButterflyEngine(guard, backend=backend)
        engine.attach(part)
        mid = part.num_epochs // 2
        for lid in range(part.num_epochs):
            if lid == mid:
                backend._pool_incident("forced")  # processes -> threads
            if lid == mid + 1:
                backend._pool_incident("forced")  # threads -> serial
            engine.feed_epoch(lid)
        engine.finish()
        backend.close()
        assert backend.name == "serial"
        assert _addr_fingerprint(guard, engine.stats) == ref_print


class TestResumeUnderFaults:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        fault_seed=st.integers(0, 1_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_faulty_checkpointed_run_resumes_identically(
        self, seed, threads, fault_seed, tmp_path_factory
    ):
        """Kill a fault-injected pooled run at an epoch boundary,
        resume it on a *different* backend: still bit-identical."""
        h = 6
        prog = _program(seed, threads)
        part = partition_by_global_order(prog, h)
        if part.num_epochs < 3:
            return
        ref = ButterflyAddrCheck()
        ref_print = _addr_fingerprint(ref, ButterflyEngine(ref).run(part))

        path = str(tmp_path_factory.mktemp("ck") / "run.ckpt")
        plan = FaultPlan(crash=0.2, corrupt=0.1, seed=fault_seed)
        with _faulty_pool("threads", 4, plan) as backend:
            engine = ButterflyEngine(ButterflyAddrCheck(), backend=backend)
            engine.enable_checkpoints(Checkpointer(path, {"h": h}))
            engine.attach(part)
            stop_after = max(2, part.num_epochs // 2)
            for lid in range(stop_after):
                engine.feed_epoch(lid)

        ck = load_checkpoint(path)
        resumed = ButterflyEngine(ck.analysis)  # plain serial from here
        resumed.attach(part)
        ck.restore_into(resumed)
        for lid in range(ck.next_epoch, part.num_epochs):
            resumed.feed_epoch(lid)
        resumed.finish()
        assert _addr_fingerprint(ck.analysis, resumed.stats) == ref_print
