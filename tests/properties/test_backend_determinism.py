"""Backend determinism: serial, threads, and processes must agree.

The engine's parallel fan-out commits in the serial schedule's order,
so every observable output -- ``EngineStats``, error reports (including
their order), per-block work counters, and published summaries -- must
be *identical* across execution backends, not merely equivalent.  These
properties pin that down on randomized traces for every lifeguard and
for the generic dataflow analyses.

Pool backends are shared at module scope so hypothesis examples reuse
the workers instead of paying pool spin-up per example (the engine
never owns a backend passed in as an instance).
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.core.parallel import PoolBackend
from repro.core.reaching_defs import ReachingDefinitions
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.obs import Recorder, normalize_events
from repro.trace.generator import (
    simulated_alloc_program,
    simulated_taint_program,
)
from repro.verify.reference import ReferenceAddrCheck

THREADS = PoolBackend("threads")
PROCESSES = PoolBackend("processes")
BACKENDS = [("serial", "serial"), ("threads", THREADS), ("processes", PROCESSES)]


def _stats_tuple(stats):
    return (
        stats.epochs_processed,
        stats.first_pass_instructions,
        stats.second_pass_instructions,
        stats.meets,
        stats.wing_summaries_combined,
    )


def _run(make_guard, prog, h):
    """Run one guard per backend; return {name: (guard, stats_tuple)}."""
    out = {}
    for name, backend in BACKENDS:
        guard = make_guard()
        with ButterflyEngine(guard, backend=backend) as engine:
            stats = engine.run(partition_by_global_order(prog, h))
        out[name] = (guard, _stats_tuple(stats))
    return out


def _report_list(errors):
    """Order-sensitive fingerprint of an error log."""
    return [(r.kind, r.location, r.ref, r.block, r.detail) for r in errors]


def _sos_states(guard):
    """Value-comparable snapshot of a guard's SOS history."""
    return (guard.sos.published(), guard.sos.frontier)


class TestAddrCheckDeterminism:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
        err=st.floats(0.0, 0.3),
    )
    @settings(max_examples=20, deadline=None)
    def test_backends_bit_identical(self, seed, threads, h, err):
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
            inject_error_rate=err,
        )
        runs = _run(ButterflyAddrCheck, prog, h)
        ref_guard, ref_stats = runs["serial"]
        for name in ("threads", "processes"):
            guard, stats = runs[name]
            assert stats == ref_stats, name
            assert _report_list(guard.errors) == _report_list(
                ref_guard.errors
            ), name
            assert guard.block_work == ref_guard.block_work, name
            assert _sos_states(guard) == _sos_states(ref_guard), name
            assert guard.recorded_accesses == ref_guard.recorded_accesses, name

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
        err=st.floats(0.0, 0.3),
    )
    @settings(max_examples=20, deadline=None)
    def test_optimized_matches_reference(self, seed, threads, h, err):
        """The scanner fast path reports exactly the reference
        implementation's errors, work counters, and state."""
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
            inject_error_rate=err,
        )
        part = partition_by_global_order(prog, h)
        ref = ReferenceAddrCheck()
        ref_stats = ButterflyEngine(ref).run(part)
        opt = ButterflyAddrCheck()
        opt_stats = ButterflyEngine(opt).run(part)
        assert _stats_tuple(opt_stats) == _stats_tuple(ref_stats)
        assert set(_report_list(opt.errors)) == set(_report_list(ref.errors))
        assert opt.block_work == ref.block_work
        assert _sos_states(opt) == _sos_states(ref)
        assert opt.recorded_accesses == ref.recorded_accesses


class TestRaceCheckDeterminism:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
    )
    @settings(max_examples=15, deadline=None)
    def test_backends_bit_identical(self, seed, threads, h):
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
        )
        runs = _run(ButterflyRaceCheck, prog, h)
        ref_guard, ref_stats = runs["serial"]
        for name in ("threads", "processes"):
            guard, stats = runs[name]
            assert stats == ref_stats, name
            assert _report_list(guard.errors) == _report_list(
                ref_guard.errors
            ), name


class TestTaintCheckDeterminism:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
        mode=st.sampled_from(["relaxed", "sc"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_backends_bit_identical(self, seed, threads, h, mode):
        prog = simulated_taint_program(
            random.Random(seed),
            num_threads=threads,
            total_events=50,
            num_locations=5,
        )
        runs = _run(lambda: ButterflyTaintCheck(mode=mode), prog, h)
        ref_guard, ref_stats = runs["serial"]
        for name in ("threads", "processes"):
            guard, stats = runs[name]
            assert stats == ref_stats, name
            assert _report_list(guard.errors) == _report_list(
                ref_guard.errors
            ), name
            assert _sos_states(guard) == _sos_states(ref_guard), name


def _metrics_fingerprint(rec):
    """The recorder's deterministic content.

    ``backend.*`` telemetry (fan-out batches, task submit/complete,
    queue depth) exists only on concurrent backends and is excluded by
    contract; everything else must be bit-identical across backends.
    """
    return (
        {k: v for k, v in rec.counters.items()
         if not k.startswith("backend.")},
        {k: v for k, v in rec.gauges.items()
         if not k.startswith("backend.")},
        {k: v[0] for k, v in rec.spans.items()
         if not k.startswith("backend.")},
    )


def _instrumented_run(make_guard, prog, h):
    """One recorded run per backend; return {name: (log, metrics)}."""
    out = {}
    for name, backend in BACKENDS:
        rec = Recorder()
        guard = make_guard()
        with ButterflyEngine(guard, backend=backend, recorder=rec) as engine:
            engine.run(partition_by_global_order(prog, h))
        out[name] = (normalize_events(rec.events), _metrics_fingerprint(rec))
    return out


class TestObservabilityDeterminism:
    """The event log and metrics are analysis facts, not schedule facts.

    After :func:`normalize_events` (drop ``backend.*``, strip wall-clock
    fields, renumber), the logs of all three backends must compare
    equal -- including the order of error events, since all emission
    happens on the serial commit path.
    """

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
        err=st.floats(0.0, 0.3),
    )
    @settings(max_examples=10, deadline=None)
    def test_addrcheck_logs_identical(self, seed, threads, h, err):
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
            inject_error_rate=err,
        )
        runs = _instrumented_run(ButterflyAddrCheck, prog, h)
        ref_log, ref_metrics = runs["serial"]
        assert any(ev["ev"] == "epoch.summary" for ev in ref_log)
        for name in ("threads", "processes"):
            log, metrics = runs[name]
            assert log == ref_log, name
            assert metrics == ref_metrics, name

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
    )
    @settings(max_examples=8, deadline=None)
    def test_racecheck_logs_identical(self, seed, threads, h):
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=50,
            num_locations=5,
        )
        runs = _instrumented_run(ButterflyRaceCheck, prog, h)
        ref_log, ref_metrics = runs["serial"]
        for name in ("threads", "processes"):
            log, metrics = runs[name]
            assert log == ref_log, name
            assert metrics == ref_metrics, name

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
    )
    @settings(max_examples=8, deadline=None)
    def test_taintcheck_logs_identical(self, seed, threads, h):
        prog = simulated_taint_program(
            random.Random(seed),
            num_threads=threads,
            total_events=40,
            num_locations=5,
        )
        runs = _instrumented_run(ButterflyTaintCheck, prog, h)
        ref_log, ref_metrics = runs["serial"]
        for name in ("threads", "processes"):
            log, metrics = runs[name]
            assert log == ref_log, name
            assert metrics == ref_metrics, name

    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 10),
        err=st.floats(0.0, 0.3),
    )
    @settings(max_examples=10, deadline=None)
    def test_optimized_reference_same_errors_and_epoch_counts(
        self, seed, threads, h, err
    ):
        """Differential: the scanner fast path and the reference
        implementation emit the same error *events* and identical
        per-epoch error counts in ``epoch.summary``."""
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=60,
            num_locations=6,
            inject_error_rate=err,
        )
        logs = {}
        for optimized in (False, True):
            rec = Recorder()
            guard = ButterflyAddrCheck() if optimized else ReferenceAddrCheck()
            with ButterflyEngine(guard, recorder=rec) as engine:
                stats = engine.run(partition_by_global_order(prog, h))
            logs[optimized] = normalize_events(rec.events)
            # The per-epoch rows account for the whole run.
            rows = [
                ev for ev in logs[optimized] if ev["ev"] == "epoch.summary"
            ]
            assert [r["epoch"] for r in rows] == list(
                range(stats.epochs_processed)
            )
            assert (
                sum(r["instructions"] for r in rows)
                == stats.first_pass_instructions
            )
            assert sum(r["meets"] for r in rows) == stats.meets
            assert rows[-1]["errors_total"] == len(guard.errors)

        def error_set(log):
            return {
                frozenset(
                    (k, tuple(v) if isinstance(v, list) else v)
                    for k, v in ev.items()
                    if k != "seq"
                )
                for ev in log
                if ev["ev"] == "error"
            }

        def epoch_rows(log):
            return [ev for ev in log if ev["ev"] == "epoch.summary"]

        assert error_set(logs[True]) == error_set(logs[False])
        assert epoch_rows(logs[True]) == epoch_rows(logs[False])


class TestReachingDefsDeterminism:
    @given(
        seed=st.integers(0, 10_000),
        threads=st.integers(1, 3),
        h=st.integers(1, 8),
    )
    @settings(max_examples=15, deadline=None)
    def test_backends_identical_dataflow(self, seed, threads, h):
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=threads,
            total_events=50,
            num_locations=6,
        )
        runs = _run(lambda: ReachingDefinitions(keep_history=True), prog, h)
        ref_guard, ref_stats = runs["serial"]
        for name in ("threads", "processes"):
            guard, stats = runs[name]
            assert stats == ref_stats, name
            assert guard.block_in == ref_guard.block_in, name
            assert guard.block_out == ref_guard.block_out, name
