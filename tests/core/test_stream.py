"""The bounded-memory streaming pipeline: EpochSource, eviction, and
the feed_blocks contract."""

import pickle
import random

import pytest

from repro.core.epoch import (
    partition_auto,
    partition_fixed,
    partition_from_boundaries,
)
from repro.core.framework import ButterflyAnalysis, ButterflyEngine
from repro.core.stream import EpochSource, PartitionSource
from repro.errors import AnalysisError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.obs.recorder import Recorder, normalize_events
from repro.trace.events import Instr
from repro.trace.generator import ColumnarAllocSource, simulated_alloc_program
from repro.trace.program import TraceProgram
from repro.trace.serialize import iter_load, save_stream_file
from repro.verify.reference import ReferenceAddrScanner


class RecordingAnalysis(ButterflyAnalysis):
    def __init__(self):
        self.calls = []

    def first_pass(self, block):
        self.calls.append(("first", block.block_id))
        return block.block_id

    def meet(self, butterfly, wing_summaries):
        return wing_summaries

    def second_pass(self, butterfly, side_in):
        self.calls.append(("second", butterfly.body.block_id))

    def epoch_update(self, lid, summaries):
        self.calls.append(("epoch", lid))


def nop_partition(threads=2, per_thread=6, h=2):
    prog = TraceProgram.from_lists(
        *[[Instr.nop() for _ in range(per_thread)] for _ in range(threads)]
    )
    return partition_fixed(prog, h)


def alloc_case(threads=4, events=2000, h=16, seed=3):
    prog = simulated_alloc_program(
        random.Random(seed),
        num_threads=threads,
        total_events=events,
        num_locations=64,
        inject_error_rate=0.02,
    )
    return prog, partition_auto(prog, h)


class TestPartitionSource:
    def test_shape_mirrors_partition(self):
        partition = nop_partition(threads=3, per_thread=8, h=2)
        source = PartitionSource(partition)
        assert source.num_threads == 3
        assert source.num_epochs == partition.num_epochs
        rows = list(source)
        assert len(rows) == partition.num_epochs
        assert all(len(row) == 3 for row in rows)
        assert rows[2][1].block_id == (2, 1)

    def test_seek_starts_mid_stream(self):
        source = PartitionSource(nop_partition(per_thread=10, h=2))
        rows = list(source.epochs(start=3))
        assert rows[0][0].lid == 3
        assert len(rows) == source.num_epochs - 3

    def test_partition_cache_is_evicted_behind_the_reader(self):
        partition = nop_partition(per_thread=40, h=2)
        for _ in PartitionSource(partition).epochs():
            pass
        # The cache never accumulates more than the live window.
        assert len(partition._blocks) <= 3 * partition.num_threads

    def test_preallocated_surfaces_program_set(self):
        prog, partition = alloc_case()
        assert PartitionSource(partition).preallocated == frozenset(
            prog.preallocated
        )


class TestRunSourceEquivalence:
    def test_same_callback_sequence_as_materialized_run(self):
        mat = RecordingAnalysis()
        ButterflyEngine(mat).run(nop_partition(threads=3, per_thread=12))
        streamed = RecordingAnalysis()
        ButterflyEngine(streamed).run_source(
            PartitionSource(nop_partition(threads=3, per_thread=12))
        )
        assert streamed.calls == mat.calls

    def test_same_errors_stats_and_event_log(self):
        prog, partition = alloc_case()
        mat_guard = ButterflyAddrCheck(
            initially_allocated=prog.preallocated
        )
        mat_rec = Recorder()
        mat_engine = ButterflyEngine(mat_guard, recorder=mat_rec)
        mat_stats = mat_engine.run(partition)

        _, partition2 = alloc_case()
        st_guard = ButterflyAddrCheck(
            initially_allocated=prog.preallocated
        )
        st_rec = Recorder()
        st_engine = ButterflyEngine(st_guard, recorder=st_rec)
        st_stats = st_engine.run_source(PartitionSource(partition2))

        assert st_stats == mat_stats
        assert [r.identity() for r in st_guard.errors] == [
            r.identity() for r in mat_guard.errors
        ]
        assert normalize_events(st_rec.events) == normalize_events(
            mat_rec.events
        )

    def test_unbounded_source_finishes_where_the_feed_stops(self):
        partition = nop_partition(threads=2, per_thread=12, h=2)

        class Unbounded(EpochSource):
            def epochs(self, start=0):
                for lid in range(start, partition.num_epochs):
                    yield partition.epoch_blocks(lid)

        source = Unbounded(partition.num_threads)
        assert source.num_epochs is None
        streamed = RecordingAnalysis()
        ButterflyEngine(streamed).run_source(source)
        mat = RecordingAnalysis()
        ButterflyEngine(mat).run(nop_partition(threads=2, per_thread=12, h=2))
        assert streamed.calls == mat.calls


class TestWindowBound:
    def test_500_epoch_trace_stays_within_three_epochs(self):
        # The regression the streaming PR exists for: peak resident
        # summaries on a long trace is the 3-epoch window, not O(run).
        threads = 4
        partition = nop_partition(threads=threads, per_thread=500, h=1)
        assert partition.num_epochs == 500
        engine = ButterflyEngine(RecordingAnalysis())
        engine.run_source(PartitionSource(partition))
        assert engine.window_high_water == 3 * threads
        # Post-run bookkeeping is the tail window, not 500 epochs.
        assert len(engine._summaries) <= 3 * threads
        assert engine._first_pass_errors == {}
        assert len(engine._window) <= 3 * threads

    def test_streamed_run_bounds_the_sos_history(self):
        # The analysis' per-epoch SOS history is the other unbounded
        # structure; a streamed run sheds it behind the second pass.
        prog, partition = alloc_case(events=4000)
        guard = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        ButterflyEngine(guard).run_source(PartitionSource(partition))
        assert len(guard.sos.published()) <= 2
        assert guard.sos.frontier == partition.num_epochs + 1
        # Materialized runs keep the full history for post-run
        # inspection -- and flag identical errors either way.
        _, partition2 = alloc_case(events=4000)
        mat = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        ButterflyEngine(mat).run(partition2)
        assert len(mat.sos.published()) == partition2.num_epochs + 2
        assert guard.sos.get(guard.sos.frontier) == mat.sos.get(
            mat.sos.frontier
        )
        assert [r.identity() for r in guard.errors] == [
            r.identity() for r in mat.errors
        ]

    def test_streamed_run_bounds_the_work_ledger(self):
        # The simulator's per-block work ledger was the third unbounded
        # structure -- 99% of the pickled guard a serve daemon
        # checkpoints after 4,000 epochs.  It leaves with the history:
        # the guard's pickle at epoch 2,000 is what it was at epoch 200.
        threads = 4
        source = ColumnarAllocSource(
            3, num_threads=threads, num_epochs=2000, events_per_block=64
        )
        guard = ButterflyAddrCheck(initially_allocated=source.preallocated)
        pickled = {}
        with ButterflyEngine(guard) as engine:
            engine.attach_source(source)
            for lid, row in enumerate(source.epochs()):
                engine.feed_blocks(lid, row)
                assert len(guard.block_work) <= 3 * threads
                # A committed epoch's rows outlive its second pass by
                # one feed: a reader between feeds sees each row final.
                assert lid == 0 or (lid - 1, 0) in guard.block_work
                if lid + 1 in (200, 2000):
                    pickled[lid + 1] = len(pickle.dumps(guard))
            engine.finish()
        assert 0 < len(guard.block_work) <= 3 * threads
        assert pickled[2000] <= 1.1 * pickled[200]

    def test_materialized_run_obeys_the_same_bound(self):
        partition = nop_partition(threads=2, per_thread=100, h=1)
        engine = ButterflyEngine(RecordingAnalysis())
        engine.run(partition)
        assert engine.window_high_water == 3 * 2

    def test_gauge_and_counter_exported(self):
        partition = nop_partition(threads=2, per_thread=20, h=2)
        rec = Recorder()
        engine = ButterflyEngine(RecordingAnalysis(), recorder=rec)
        engine.run_source(PartitionSource(partition))
        snap = rec.snapshot()
        assert snap["counters"]["stream.epochs_received"] == (
            partition.num_epochs
        )
        assert 0 < snap["gauges"]["engine.window_resident_blocks"] <= 6

    def test_counter_absent_on_materialized_runs(self):
        rec = Recorder()
        engine = ButterflyEngine(RecordingAnalysis(), recorder=rec)
        engine.run(nop_partition())
        assert "stream.epochs_received" not in rec.snapshot()["counters"]


class TestFeedBlocksContract:
    def feed_ready_engine(self, threads=2):
        partition = nop_partition(threads=threads, per_thread=8, h=2)
        engine = ButterflyEngine(RecordingAnalysis())
        engine.attach_source(PartitionSource(partition))
        return engine, partition

    def test_out_of_order_feed_is_rejected_and_non_poisoning(self):
        engine, partition = self.feed_ready_engine()
        engine.feed_blocks(0, partition.epoch_blocks(0))
        with pytest.raises(AnalysisError, match="must arrive in order"):
            engine.feed_blocks(2, partition.epoch_blocks(2))
        # A validation failure leaves the engine fully usable.
        engine.feed_blocks(1, partition.epoch_blocks(1))
        engine.feed_blocks(2, partition.epoch_blocks(2))
        engine.feed_blocks(3, partition.epoch_blocks(3))
        engine.finish()

    def test_wrong_row_width_rejected(self):
        engine, partition = self.feed_ready_engine()
        with pytest.raises(AnalysisError, match="one block per thread"):
            engine.feed_blocks(0, partition.epoch_blocks(0)[:1])
        engine.feed_blocks(0, partition.epoch_blocks(0))

    def test_mislabelled_block_rejected(self):
        engine, partition = self.feed_ready_engine()
        row = partition.epoch_blocks(1)
        with pytest.raises(AnalysisError, match="block"):
            engine.feed_blocks(0, row)
        engine.feed_blocks(0, partition.epoch_blocks(0))

    def test_mid_analysis_crash_poisons_until_reset(self):
        partition = nop_partition(threads=2, per_thread=8, h=2)

        class Exploding(RecordingAnalysis):
            def __init__(self):
                super().__init__()
                self.armed = False

            def first_pass(self, block):
                if self.armed:
                    raise RuntimeError("boom")
                return super().first_pass(block)

        analysis = Exploding()
        engine = ButterflyEngine(analysis)
        engine.attach_source(PartitionSource(partition))
        engine.feed_blocks(0, partition.epoch_blocks(0))
        analysis.armed = True
        with pytest.raises(RuntimeError, match="boom"):
            engine.feed_blocks(1, partition.epoch_blocks(1))
        # The engine refuses further work with a clear diagnosis ...
        with pytest.raises(AnalysisError, match="failed state"):
            engine.feed_blocks(1, partition.epoch_blocks(1))
        with pytest.raises(AnalysisError, match="failed state"):
            engine.finish()
        # ... and reset() + re-attach makes it fully usable again.
        analysis.armed = False
        engine.reset()
        engine.run_source(PartitionSource(partition))

    def test_rollback_undoes_the_partial_receive(self):
        partition = nop_partition(threads=2, per_thread=8, h=2)

        class Exploding(RecordingAnalysis):
            armed = False

            def first_pass(self, block):
                if self.armed and block.block_id[1] == 1:
                    raise RuntimeError("boom")
                return super().first_pass(block)

        analysis = Exploding()
        engine = ButterflyEngine(analysis)
        engine.attach_source(PartitionSource(partition))
        engine.feed_blocks(0, partition.epoch_blocks(0))
        before_summaries = dict(engine._summaries)
        before_window = dict(engine._window)
        analysis.armed = True
        with pytest.raises(RuntimeError):
            engine.feed_blocks(1, partition.epoch_blocks(1))
        assert engine._summaries == before_summaries
        assert engine._window == before_window
        assert engine._next_to_receive == 1

    def test_finish_before_known_length_raises(self):
        engine, partition = self.feed_ready_engine()
        engine.feed_blocks(0, partition.epoch_blocks(0))
        with pytest.raises(AnalysisError, match="before all epochs"):
            engine.finish()

    def test_double_attach_raises(self):
        engine, partition = self.feed_ready_engine()
        with pytest.raises(AnalysisError, match="already attached"):
            engine.attach_source(PartitionSource(partition))
        with pytest.raises(AnalysisError, match="already attached"):
            engine.attach(partition)


class _ExplodingScanner(ReferenceAddrScanner):
    """Thread 2's scan of epoch 1 raises, after threads 0 and 1 were
    scanned."""

    def __call__(self, block, running):
        if block.block_id == (1, 2):
            raise RuntimeError("boom")
        return super().__call__(block, running)


class _ExplodingGuard(ButterflyAddrCheck):
    def make_scanner(self):
        return _ExplodingScanner(self.use_idempotent_filter)


class _PickleEveryEpoch:
    """Stands in for a checkpointer: pickles the snapshot at each of
    the engine's safe points."""

    position = 0

    def __init__(self):
        self.snapshots = []
        self.flushes = 0

    def after_epoch(self, engine, lid):
        self.snapshots.append(pickle.dumps(engine.snapshot_state()))

    def save_now(self, engine):
        self.after_epoch(engine, None)

    def flush(self):
        self.flushes += 1


class TestStagedRows:
    """The serial schedule announces each row (``stage_row``) so a
    lifeguard may scan it in one pass; the hook is still called per
    block, a failed scan commits nothing, nothing staged is ever
    checkpointed."""

    def partition(self):
        # Every epoch-1 block reads a never-allocated location: under a
        # scan-then-commit-per-block schedule threads 0 and 1 would log
        # their errors before thread 2 blew up.
        prog = TraceProgram.from_lists(*[
            [Instr.malloc(10 + tid), Instr.read(10 + tid),
             Instr.read(90 + tid), Instr.free(10 + tid)]
            for tid in range(4)
        ])
        return partition_fixed(prog, 2)

    def test_a_scan_raising_mid_row_commits_none_of_the_row(self):
        partition = self.partition()
        guard = _ExplodingGuard()
        engine = ButterflyEngine(guard)
        engine.attach_source(PartitionSource(partition))
        engine.feed_blocks(0, partition.epoch_blocks(0))
        before = (
            engine.resume_position,
            dict(engine._summaries),
            dict(guard._summaries),
            [(r.kind, r.location, r.ref) for r in guard.errors.reports],
            dict(guard.block_work),
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.feed_blocks(1, partition.epoch_blocks(1))
        assert before == (
            engine.resume_position,
            engine._summaries,
            guard._summaries,
            [(r.kind, r.location, r.ref) for r in guard.errors.reports],
            guard.block_work,
        )
        assert not guard._staged_row and not guard._staged_scans
        with pytest.raises(AnalysisError, match="failed state"):
            engine.feed_blocks(1, partition.epoch_blocks(1))

    def test_the_hook_is_still_called_once_per_block_in_thread_order(self):
        partition = self.partition()
        calls = []

        class Counting(ButterflyAddrCheck):
            def first_pass(self, block):
                calls.append(block.block_id)
                return super().first_pass(block)

        guard = Counting()
        ButterflyEngine(guard).run_source(PartitionSource(partition))
        assert calls == [
            (lid, tid) for lid in range(2) for tid in range(4)
        ]
        reference = ButterflyAddrCheck()
        for lid in range(2):  # a direct caller: nothing staged
            for block in partition.epoch_blocks(lid):
                reference.first_pass(block)
        assert [
            (r.kind, r.location, r.ref) for r in reference.errors.reports
        ] == [
            (r.kind, r.location, r.ref) for r in guard.errors.reports
            if r.kind.value != "unsafe-isolation"
        ]

    def test_no_snapshot_pickles_a_staged_row(self):
        partition = self.partition()
        for guard in (ButterflyAddrCheck(), _ExplodingGuard()):
            engine = ButterflyEngine(guard)
            saver = _PickleEveryEpoch()
            engine.enable_checkpoints(saver)
            try:
                engine.run_source(PartitionSource(partition))
            except RuntimeError:
                # What a serve session does; a failed engine is flushed,
                # never snapshotted.
                taken = len(saver.snapshots)
                engine.checkpoint_now()
                assert (len(saver.snapshots), saver.flushes) == (taken, 1)
            else:
                assert saver.snapshots
            for blob in saver.snapshots:
                restored = pickle.loads(blob)["analysis"]
                assert not restored._staged_row
                assert not restored._staged_scans


class TestVariablePartitions:
    """Irregular explicit cuts -- unequal block sizes, zero-length
    blocks mid-stream and at the tail -- flow through every ingestion
    path identically (the shape adaptive serve sessions produce)."""

    def case(self, seed=11):
        prog = simulated_alloc_program(
            random.Random(seed),
            num_threads=3,
            total_events=300,
            num_locations=32,
            inject_error_rate=0.02,
        )
        boundaries = []
        for t in prog.threads:
            n = len(t)
            assert n >= 6  # the cuts below need room
            # Tiny first block, an empty block mid-stream, a fat middle,
            # and a zero-length tail.
            boundaries.append([1, 1, n // 3, n, n])
        return prog, boundaries

    def fingerprint(self, guard, stats):
        return (
            stats,
            [r.identity() for r in guard.errors],
        )

    def run_materialized(self, prog, boundaries):
        guard = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        stats = ButterflyEngine(guard).run(
            partition_from_boundaries(prog, boundaries)
        )
        return self.fingerprint(guard, stats)

    def test_streamed_and_file_runs_match_materialized(self, tmp_path):
        prog, boundaries = self.case()
        reference = self.run_materialized(prog, boundaries)

        guard = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        stats = ButterflyEngine(guard).run_source(
            PartitionSource(partition_from_boundaries(prog, boundaries))
        )
        assert self.fingerprint(guard, stats) == reference

        path = str(tmp_path / "irregular.stream.jsonl")
        save_stream_file(partition_from_boundaries(prog, boundaries), path)
        guard = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        stats = ButterflyEngine(guard).run_source(iter_load(path))
        assert self.fingerprint(guard, stats) == reference

    def test_zero_length_blocks_still_count_as_epochs(self):
        prog, boundaries = self.case()
        partition = partition_from_boundaries(prog, boundaries)
        assert partition.num_epochs == 5
        assert len(partition.block(1, 0)) == 0  # mid-stream empty block
        assert len(partition.block(4, 0)) == 0  # zero-length tail
        guard = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        stats = ButterflyEngine(guard).run(partition)
        assert stats.epochs_processed == 5
