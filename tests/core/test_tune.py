"""Adaptive epoch sizing: the SLO controller, block coalescing, the
engine's fold stage (against the wrapper it replaced), and the offline
epoch-size experiment (``repro.bench.harness``) with its tradeoff fit."""

import itertools
import os
import pickle
import random
import time

import pytest

from repro.bench.harness import (
    Oracle,
    TunePoint,
    fit_line,
    fit_tradeoff,
    measure_epoch_size,
)
from repro.core.columnar import ColumnarBlock
from repro.core.epoch import (
    Block,
    EpochController,
    SloConfig,
    merge_block_run,
    partition_auto,
    partition_from_boundaries,
)
from repro.core.framework import ButterflyAnalysis, ButterflyEngine
from repro.core.stream import EpochSource
from repro.errors import AnalysisError, ReproError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import PrecisionReport
from repro.resilience.checkpoint import Checkpoint, Checkpointer
from repro.serve.shards import make_guard
from repro.trace.events import Instr
from repro.trace.generator import (
    alloc_handoff_program,
    simulated_taint_program,
)
from repro.verify.generator import FAMILIES, AdversarialCaseGenerator

MS = 1_000_000  # observe() takes nanoseconds


class TestSloConfig:
    def test_defaults_are_valid(self):
        slo = SloConfig()
        assert slo.min_fold == 1
        assert slo.max_fold >= slo.min_fold

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_fold": 0},
            {"min_fold": 8, "max_fold": 4},
            {"target_fold_ms": 0.0},
            {"target_fold_ms": -5.0},
        ],
    )
    def test_invalid_configs_are_rejected(self, kwargs):
        with pytest.raises(ReproError):
            SloConfig(**kwargs)


def slo(**kw):
    base = dict(
        target_fold_ms=10.0, queue_high=3, queue_low=1, min_fold=1,
        max_fold=16,
    )
    base.update(kw)
    return SloConfig(**base)


class TestEpochController:
    def test_starts_at_min_fold(self):
        assert EpochController(slo(min_fold=2)).fold_factor == 2

    def test_deep_queue_doubles_up_to_max(self):
        c = EpochController(slo())
        for expected in (2, 4, 8, 16, 16):
            assert c.observe(queue_depth=5, fold_ns=1 * MS, rows=1) == expected

    def test_drained_queue_shrinks_additively(self):
        c = EpochController(slo())
        c.fold_factor = 4
        assert c.observe(queue_depth=0, fold_ns=1 * MS, rows=4) == 3
        assert c.observe(queue_depth=1, fold_ns=1 * MS, rows=3) == 2

    def test_mid_band_queue_holds_steady(self):
        c = EpochController(slo())
        c.fold_factor = 4
        assert c.observe(queue_depth=2, fold_ns=1 * MS, rows=4) == 4

    def test_slo_breach_halves_and_beats_a_deep_queue(self):
        c = EpochController(slo())
        c.fold_factor = 8
        # Queue says double, latency says halve: latency wins.
        assert c.observe(queue_depth=100, fold_ns=11 * MS, rows=8) == 4
        assert c.slo_breaches == 1

    def test_new_errors_shrink_before_queue_grows(self):
        c = EpochController(slo())
        c.fold_factor = 4
        assert (
            c.observe(queue_depth=5, fold_ns=1 * MS, rows=4, errors_delta=2)
            == 3
        )

    def test_never_shrinks_below_min_fold(self):
        c = EpochController(slo(min_fold=2))
        assert c.observe(queue_depth=0, fold_ns=50 * MS, rows=2) == 2

    def test_replayed_observations_reproduce_decisions(self):
        stream = [(5, 1 * MS, 0), (5, 1 * MS, 0), (0, 12 * MS, 1),
                  (2, 1 * MS, 0), (0, 1 * MS, 0)]
        runs = []
        for _ in range(2):
            c = EpochController(slo())
            runs.append([
                c.observe(queue_depth=q, fold_ns=ns, rows=1, errors_delta=e)
                for q, ns, e in stream
            ])
        assert runs[0] == runs[1]


def object_block(lid, tid, start, n, base=0):
    """A block that carries its ``Instr`` objects, as a partition's does."""
    instrs = tuple(Instr.write(base + k) for k in range(n))
    return Block(lid, tid, start, ColumnarBlock.from_instrs(instrs), instrs)


class TestMergeBlockRun:
    def test_single_block_passes_through(self):
        blk = object_block(3, 0, 6, 4)
        assert merge_block_run(3, [blk]) is blk

    def test_single_block_is_relabelled_to_the_analysis_epoch(self):
        blk = object_block(7, 1, 14, 4)
        merged = merge_block_run(2, [blk])
        assert (merged.lid, merged.tid, merged.start) == (2, 1, 14)
        assert merged.instrs == blk.instrs

    def test_object_blocks_concatenate_in_order(self):
        a = object_block(0, 0, 0, 3, base=0)
        b = object_block(1, 0, 3, 2, base=10)
        merged = merge_block_run(0, [a, b])
        assert len(merged) == 5
        assert merged.instrs == a.instrs + b.instrs
        # start inherited from the first block: global refs unchanged.
        assert merged.start == 0
        assert [merged.global_ref(i) for i in range(5)] == (
            [a.global_ref(i) for i in range(3)]
            + [b.global_ref(i) for i in range(2)]
        )

    def test_all_columnar_inputs_stay_columnar(self):
        a_instrs = tuple(Instr.write(k) for k in range(3))
        b_instrs = (Instr.malloc(9, 1), Instr.write(9))
        a = Block(0, 1, 0, columns=ColumnarBlock.from_instrs(a_instrs))
        b = Block(1, 1, 3, columns=ColumnarBlock.from_instrs(b_instrs))
        merged = merge_block_run(0, [a, b])
        assert merged.columns == ColumnarBlock.from_instrs(a_instrs + b_instrs)
        assert merged.instrs == a_instrs + b_instrs

    def test_blocks_with_and_without_instrs_merge_as_columns(self):
        a = Block(
            0, 0, 0,
            columns=ColumnarBlock.from_instrs((Instr.write(1),)),
        )
        b = object_block(1, 0, 1, 2)
        merged = merge_block_run(0, [a, b])
        assert merged._instrs is None
        assert merged.instrs == a.instrs + b.instrs


def pinned(fold):
    """A controller whose fold factor cannot move."""
    return EpochController(slo(min_fold=fold, max_fold=fold))


def shape_of(partition, num_epochs):
    return EpochSource(
        partition.num_threads, num_epochs, partition.program.preallocated
    )


def adaptive_pair(program, h, fold, backend="serial"):
    """An engine folding under a controller pinned at ``fold``."""
    partition = partition_auto(program, h)
    guard = ButterflyAddrCheck(initially_allocated=program.preallocated)
    engine = ButterflyEngine(guard, backend=backend, controller=pinned(fold))
    engine.attach_source(shape_of(partition, partition.num_epochs))
    return engine, guard, partition


def error_identities(guard):
    return [(r.kind, r.location, r.ref, r.block, r.detail)
            for r in guard.errors]


def feed_all(adaptive, partition):
    for lid in range(partition.num_epochs):
        adaptive.feed_blocks(lid, partition.epoch_blocks(lid))
    adaptive.finish()


class TestAdaptiveEngine:
    def program(self, seed=5, threads=3, events=96):
        return alloc_handoff_program(
            random.Random(seed),
            num_threads=threads,
            events_per_thread=events,
        )

    def test_folds_every_fold_factor_rows(self):
        prog = self.program()
        adaptive, _, partition = adaptive_pair(prog, 4, fold=3)
        try:
            feed_all(adaptive, partition)
        finally:
            adaptive.close()
        rows = partition.num_epochs
        expected_epochs = (rows + 2) // 3
        assert adaptive.rows_folded == rows
        assert adaptive.stats.epochs_processed == expected_epochs
        for tid, cuts in enumerate(adaptive.recorded_boundaries):
            assert len(cuts) == expected_epochs
            assert cuts[-1] == len(prog.threads[tid])
            assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    def test_out_of_order_rows_are_rejected(self):
        prog = self.program()
        adaptive, _, partition = adaptive_pair(prog, 4, fold=3)
        try:
            adaptive.feed_blocks(0, partition.epoch_blocks(0))
            with pytest.raises(AnalysisError, match="must arrive in order"):
                adaptive.feed_blocks(2, partition.epoch_blocks(2))
        finally:
            adaptive.close()

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda row: row + [row[-1]],
            lambda row: row[:-1],
            lambda row: [
                Block(b.lid + 1, b.tid, b.start, b.columns) for b in row
            ],
        ],
        ids=["one-block-too-many", "one-block-short", "wrong-block-ids"],
    )
    def test_malformed_row_is_refused_and_the_engine_stays_usable(
        self, mangle
    ):
        prog = self.program()
        clean, clean_guard, partition = adaptive_pair(prog, 4, fold=3)
        feed_all(clean, partition)

        engine, guard, _ = adaptive_pair(prog, 4, fold=3)
        for lid in range(4):  # one fold committed, one row buffered
            engine.feed_blocks(lid, partition.epoch_blocks(lid))

        def progress():
            return (
                engine.resume_position,
                [list(c) for c in engine.recorded_boundaries],
                list(engine._pending),
            )

        before = progress()
        assert before[0] == 3 and len(before[2]) == 1
        with pytest.raises(AnalysisError, match="epoch 4"):
            engine.feed_blocks(4, mangle(partition.epoch_blocks(4)))
        assert progress() == before
        # The corrected row is accepted and the run ends as a clean one.
        for lid in range(4, partition.num_epochs):
            engine.feed_blocks(lid, partition.epoch_blocks(lid))
        engine.finish()
        assert error_identities(guard) == error_identities(clean_guard)
        assert engine.recorded_boundaries == clean.recorded_boundaries
        assert engine.stats == clean.stats

    def test_finish_flushes_a_partial_fold(self):
        prog = self.program(events=40)
        adaptive, _, partition = adaptive_pair(prog, 8, fold=4)
        try:
            feed_all(adaptive, partition)
        finally:
            adaptive.close()
        rows = partition.num_epochs
        assert rows % 4 != 0  # the last fold really is a remainder
        assert adaptive.stats.epochs_processed == (rows + 3) // 4
        assert adaptive.rows_folded == rows

    def test_finish_counts_producer_rows_for_completeness(self):
        prog = self.program()
        adaptive, _, partition = adaptive_pair(prog, 4, fold=3)
        for lid in range(4):
            adaptive.feed_blocks(lid, partition.epoch_blocks(lid))
        with pytest.raises(
            AnalysisError, match=f"4/{partition.num_epochs}"
        ):
            adaptive.finish()

    def test_bit_identical_to_explicit_boundary_replay(self):
        prog = self.program()
        adaptive, guard, partition = adaptive_pair(prog, 4, fold=3)
        try:
            feed_all(adaptive, partition)
        finally:
            adaptive.close()
        boundaries = [list(c) for c in adaptive.recorded_boundaries]

        replay = partition_from_boundaries(prog, boundaries)
        replay_guard = ButterflyAddrCheck(
            initially_allocated=prog.preallocated
        )
        with ButterflyEngine(replay_guard) as engine:
            stats = engine.run(replay)
        assert error_identities(guard) == error_identities(replay_guard)
        assert stats.epochs_processed == adaptive.stats.epochs_processed

    def test_fixed_engine_records_no_boundaries(self):
        prog = self.program()
        partition = partition_auto(prog, 4)
        with ButterflyEngine(ButterflyAddrCheck()) as engine:
            engine.run(partition)
        assert engine.recorded_boundaries is None
        assert engine.resume_position == partition.num_epochs

    def test_snapshot_state_round_trips(self):
        prog = self.program()
        clean, clean_guard, partition = adaptive_pair(prog, 4, fold=2)
        feed_all(clean, partition)

        adaptive, guard, _ = adaptive_pair(prog, 4, fold=2)
        for lid in range(5):  # two folds committed, one row buffered
            adaptive.feed_blocks(lid, partition.epoch_blocks(lid))
        state = adaptive.snapshot_state()
        assert state["rows_folded"] == 4

        other = ButterflyEngine(guard, controller=pinned(2))
        other.attach_source(
            shape_of(partition, partition.num_epochs), Checkpoint({}, state)
        )
        assert other.rows_folded == 4
        assert other.resume_position == 4
        assert other.recorded_boundaries == state["boundaries"]
        # The buffered row is not in the snapshot: the feeder re-sends
        # from resume_position and the run ends as an uninterrupted one.
        for lid in range(4, partition.num_epochs):
            other.feed_blocks(lid, partition.epoch_blocks(lid))
        other.finish()
        assert error_identities(guard) == error_identities(clean_guard)
        assert other.recorded_boundaries == clean.recorded_boundaries
        assert other.stats == clean.stats

    def test_failed_fold_rolls_back_bookkeeping(self):
        class Exploding(ButterflyAnalysis):
            def __init__(self):
                self.armed = False
                self.fed = 0

            def first_pass(self, block):
                if self.armed:
                    raise RuntimeError("boom")
                self.fed += 1
                return None

            def meet(self, butterfly, wing_summaries):
                return None

            def second_pass(self, butterfly, side_in):
                pass

            def epoch_update(self, lid, summaries):
                pass

        prog = self.program()
        partition = partition_auto(prog, 4)
        analysis = Exploding()
        adaptive = ButterflyEngine(analysis, controller=pinned(2))
        adaptive.attach_source(EpochSource(partition.num_threads))
        adaptive.feed_blocks(0, partition.epoch_blocks(0))
        adaptive.feed_blocks(1, partition.epoch_blocks(1))
        committed_cuts = [list(c) for c in adaptive.recorded_boundaries]
        assert adaptive.rows_folded == 2

        analysis.armed = True
        adaptive.feed_blocks(2, partition.epoch_blocks(2))
        with pytest.raises(RuntimeError, match="boom"):
            adaptive.feed_blocks(3, partition.epoch_blocks(3))
        # The failed fold left no trace: progress, boundaries, and the
        # buffered rows all read as if the fold never started.
        assert adaptive.rows_folded == 2
        assert adaptive.resume_position == 2
        assert [list(c) for c in adaptive.recorded_boundaries] == (
            committed_cuts
        )
        assert len(adaptive._pending) == 2


# -- the fold stage against the wrapper it replaced --------------------------
#
# ``ReferenceAdaptiveEngine`` is the facade ``ButterflyEngine(controller=)``
# replaced, kept here verbatim as the oracle: it wraps a fixed engine,
# keeps its own producer-row coordinates, and rode checkpoints through a
# caller-owned ``extra_state`` callback (``RiderCheckpointer`` below).


def error_count(analysis):
    errors = getattr(analysis, "errors", None)
    return len(errors) if errors is not None else 0


class ReferenceAdaptiveEngine:
    def __init__(self, engine, controller, num_threads):
        self.engine = engine
        self.controller = controller
        self.num_threads = num_threads
        self._pending = []
        self.rows_folded = 0
        self.recorded_boundaries = [[] for _ in range(num_threads)]
        self._queue_depth = 0

    def __getattr__(self, name):
        return getattr(self.engine, name)

    @property
    def resume_position(self):
        return self.rows_folded

    def note_queue_depth(self, depth):
        self._queue_depth = depth

    def feed_blocks(self, lid, row):
        expected = self.rows_folded + len(self._pending)
        if lid != expected:
            raise AnalysisError(
                f"producer epochs must arrive in order: expected "
                f"{expected}, got {lid}"
            )
        self._pending.append(row)
        if len(self._pending) >= self.controller.fold_factor:
            self._fold(len(self._pending))

    def finish(self):
        if self._pending:
            self._fold(len(self._pending))
        self.engine.finish()

    def extra_state(self):
        return {
            "rows_folded": self.rows_folded,
            "boundaries": [list(c) for c in self.recorded_boundaries],
        }

    def _fold(self, count):
        rows = self._pending[:count]
        alid = self.engine.resume_position
        merged = [
            merge_block_run(alid, [rows[k][tid] for k in range(count)])
            for tid in range(self.num_threads)
        ]
        saved_rows = self.rows_folded
        saved_cut_lens = [len(c) for c in self.recorded_boundaries]
        for tid, blk in enumerate(merged):
            self.recorded_boundaries[tid].append(blk.start + len(blk))
        self.rows_folded += count
        del self._pending[:count]
        errors_before = error_count(self.engine.analysis)
        started = time.perf_counter_ns()
        try:
            self.engine.feed_blocks(alid, merged)
        except Exception:
            self.rows_folded = saved_rows
            for tid, n in enumerate(saved_cut_lens):
                del self.recorded_boundaries[tid][n:]
            self._pending[:0] = rows
            raise
        self.controller.observe(
            queue_depth=self._queue_depth,
            fold_ns=time.perf_counter_ns() - started,
            rows=count,
            errors_delta=(
                error_count(self.engine.analysis) - errors_before
            ),
        )


class RiderCheckpointer(Checkpointer):
    """The deleted ``extra_state`` channel: sample the wrapper's
    progress at the instant the wrapped engine is snapshotted."""

    def __init__(self, path, wrapper):
        super().__init__(path, {}, every=1)
        self.wrapper = wrapper
        self.rider = None

    def save_now(self, engine):
        super().save_now(engine)
        self.rider = self.wrapper.extra_state()


#: Queue depths the scripted feeder reports, cycled: bursts, drains and
#: the mid band, so a free-running controller grows and shrinks.
DEPTHS = (5, 5, 0, 2, 7, 0, 0, 4, 1, 3)

CONTROLLERS = {
    **{f"fold{n}": (lambda n=n: pinned(n)) for n in (1, 2, 3, 4)},
    # Latency can never breach, so decisions depend only on the
    # scripted depths and the (deterministic) per-fold error deltas.
    "free": lambda: EpochController(slo(target_fold_ms=1e9, max_fold=4)),
}


def generated_runs():
    gen = AdversarialCaseGenerator(4)
    for i in range(len(FAMILIES)):
        case = gen.case(i)
        yield case.label, case.partition()
    yield "handoff", partition_auto(
        alloc_handoff_program(
            random.Random(5), num_threads=3, events_per_thread=96
        ),
        4,
    )
    yield "taint", partition_auto(
        simulated_taint_program(
            random.Random(2), num_threads=3, total_events=240,
            taint_rate=0.2, untaint_rate=0.2,
        ),
        8,
    )


def engine_state(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)["engine"]


@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
@pytest.mark.parametrize("columnar", [False, True], ids=["object", "columnar"])
@pytest.mark.parametrize("lifeguard", ["addrcheck", "taintcheck"])
def test_fold_stage_matches_the_wrapper_it_replaced(
    tmp_path, lifeguard, columnar, controller
):
    labels = set()
    folds = 0
    for label, partition in generated_runs():
        labels.add(label)
        prealloc = partition.program.preallocated
        guard = make_guard(lifeguard, prealloc)
        engine = ButterflyEngine(guard, controller=CONTROLLERS[controller]())
        engine.attach_source(shape_of(partition, partition.num_epochs))
        ref_guard = make_guard(lifeguard, prealloc)
        inner = ButterflyEngine(ref_guard)
        inner.attach_source(shape_of(partition, None))
        ref = ReferenceAdaptiveEngine(
            inner, CONTROLLERS[controller](), partition.num_threads
        )
        path = str(tmp_path / f"{label}.ckpt")
        ref_path = str(tmp_path / f"{label}.ref.ckpt")
        engine.enable_checkpoints(Checkpointer(path, {}, every=1))
        rider = RiderCheckpointer(ref_path, ref)
        ref.enable_checkpoints(rider)

        def assert_identical(where):
            assert engine.resume_position == ref.resume_position, where
            assert engine.recorded_boundaries == ref.recorded_boundaries, where
            assert engine.stats == ref.stats, where
            assert engine.window_high_water == ref.window_high_water, where
            assert (
                engine.controller.fold_factor == ref.controller.fold_factor
            ), where
            assert error_identities(guard) == error_identities(ref_guard), where
            # The snapshot written mid-feed, against wrapped-engine
            # snapshot + rider.
            assert os.path.exists(path) == os.path.exists(ref_path), where
            if not os.path.exists(path):
                return
            state, ref_state = engine_state(path), engine_state(ref_path)
            for key in (
                "stats", "window", "window_high_water", "first_pass_errors",
                "next_to_receive", "next_to_process",
            ):
                assert state[key] == ref_state[key], (where, key)
            assert sorted(state["analysis"].summaries) == sorted(
                ref_state["analysis"].summaries
            ), where
            assert state["rows_folded"] == rider.rider["rows_folded"], where
            assert state["boundaries"] == rider.rider["boundaries"], where
            assert error_identities(state["analysis"]) == error_identities(
                ref_state["analysis"]
            ), where

        for lid, depth in zip(
            range(partition.num_epochs), itertools.cycle(DEPTHS)
        ):
            row = partition.epoch_blocks(lid)
            if columnar:
                row = [
                    Block(
                        b.lid, b.tid, b.start,
                        columns=ColumnarBlock.from_instrs(b.instrs),
                    )
                    for b in row
                ]
            for side in (engine, ref):
                side.note_queue_depth(depth)
                side.feed_blocks(lid, row)
            assert_identical(f"{label}: after row {lid}")
        engine.finish()
        ref.finish()
        assert_identical(f"{label}: after finish")
        folds += engine.stats.epochs_processed
    assert labels >= set(FAMILIES)
    assert folds > len(labels)  # runs really spanned several folds


class TestFitting:
    def test_fit_line_recovers_an_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        slope, intercept = fit_line(xs, [2 * x + 1 for x in xs])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_fit_line_degenerate_inputs(self):
        assert fit_line([], []) == (0.0, 0.0)
        assert fit_line([4.0], [7.0]) == (0.0, 7.0)
        # Constant x: no slope to fit, intercept is the mean.
        slope, intercept = fit_line([2.0, 2.0], [1.0, 3.0])
        assert slope == 0.0
        assert intercept == pytest.approx(2.0)

    def point(self, h, fp_rate, mean_ms):
        flags = round(fp_rate * 1000)
        return TunePoint(
            epoch_size=h, epochs=10, events=4000, butterfly=None,
            precision=PrecisionReport(
                true_errors=0, flagged=flags, true_positives=0,
                false_positives=flags, false_negatives=0, memory_ops=1000,
            ),
            epoch_seconds=[mean_ms / 1e3] * 10, wall_seconds=4.0,
        )

    def test_point_derives_its_flat_record(self):
        record = self.point(8, 0.3, 4.0).to_record()
        assert record == {
            "epoch_size": 8, "epochs": 10, "flagged": 300,
            "false_positives": 300, "fp_rate": pytest.approx(0.3),
            "mean_epoch_ms": pytest.approx(4.0),
            "max_epoch_ms": pytest.approx(4.0), "events_per_s": 1000.0,
        }

    def test_fit_tradeoff_sorts_and_fits(self):
        points = [
            self.point(8, 0.3, 4.0),
            self.point(2, 0.1, 1.0),
            self.point(4, 0.2, 2.0),
        ]
        curve = fit_tradeoff(points)
        assert [p.epoch_size for p in curve.points] == [2, 4, 8]
        assert curve.fp_slope == pytest.approx(0.1)  # per log2(h) step
        assert curve.latency_slope > 0
        assert curve.fp_monotone
        record = curve.to_record()
        assert record["fit"]["fp_rate_vs_log2_h"]["slope"] == (
            pytest.approx(0.1)
        )
        assert record["fp_monotone_nondecreasing"] is True

    def test_fit_tradeoff_flags_non_monotone_fp(self):
        curve = fit_tradeoff(
            [self.point(2, 0.3, 1.0), self.point(4, 0.1, 2.0)]
        )
        assert not curve.fp_monotone


class TestTuneWorkload:
    def test_handoff_sweep_has_rising_fp_curve(self):
        prog = alloc_handoff_program(
            random.Random(1), num_threads=4, events_per_thread=256
        )
        oracle = Oracle(prog)
        curve = fit_tradeoff(
            [measure_epoch_size(prog, h, oracle) for h in (32, 2, 8)]
        )
        assert [p.epoch_size for p in curve.points] == [2, 8, 32]
        assert all(
            p.epochs == len(p.epoch_seconds) > 0 for p in curve.points
        )
        assert all(p.wall_seconds > 0 for p in curve.points)
        # The handoff workload is error-free sequentially, so every
        # flag is a false positive -- and FPs grow with the window.
        assert len(oracle.errors) == 0
        assert all(
            p.precision.false_positives == p.precision.flagged
            for p in curve.points
        )
        assert curve.fp_slope > 0
