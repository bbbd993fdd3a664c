"""Unit tests for the two-pass engine's sequencing."""

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyAnalysis, ButterflyEngine
from repro.errors import AnalysisError
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


class RecordingAnalysis(ButterflyAnalysis):
    """Records the order of engine callbacks."""

    def __init__(self):
        self.calls = []

    def first_pass(self, block):
        self.calls.append(("first", block.block_id))
        return block.block_id

    def meet(self, butterfly, wing_summaries):
        self.calls.append(("meet", butterfly.body.block_id, tuple(sorted(wing_summaries))))
        return wing_summaries

    def second_pass(self, butterfly, side_in):
        self.calls.append(("second", butterfly.body.block_id))

    def epoch_update(self, lid, summaries):
        self.calls.append(("epoch", lid, tuple(sorted(summaries))))


def partition(threads=2, per_thread=6, h=2):
    prog = TraceProgram.from_lists(
        *[[Instr.nop() for _ in range(per_thread)] for _ in range(threads)]
    )
    return partition_fixed(prog, h)


class TestSequencing:
    def test_first_pass_runs_one_epoch_ahead_of_second(self):
        analysis = RecordingAnalysis()
        ButterflyEngine(analysis).run(partition())
        calls = analysis.calls
        # Epoch 1's first passes happen before epoch 0's second passes.
        i_first_e1 = calls.index(("first", (1, 0)))
        i_second_e0 = calls.index(("second", (0, 0)))
        assert i_first_e1 < i_second_e0

    def test_every_block_gets_both_passes(self):
        analysis = RecordingAnalysis()
        ButterflyEngine(analysis).run(partition(threads=3, per_thread=8))
        firsts = {c[1] for c in analysis.calls if c[0] == "first"}
        seconds = {c[1] for c in analysis.calls if c[0] == "second"}
        assert firsts == seconds

    def test_epoch_updates_in_order(self):
        analysis = RecordingAnalysis()
        ButterflyEngine(analysis).run(partition())
        epochs = [c[1] for c in analysis.calls if c[0] == "epoch"]
        assert epochs == [0, 1, 2]

    def test_meet_receives_wing_summaries(self):
        analysis = RecordingAnalysis()
        ButterflyEngine(analysis).run(partition(threads=2, per_thread=6, h=2))
        meets = {c[1]: c[2] for c in analysis.calls if c[0] == "meet"}
        # Body (1,0) has wings (0,1),(1,1),(2,1).
        assert meets[(1, 0)] == ((0, 1), (1, 1), (2, 1))

    def test_single_epoch_program(self):
        analysis = RecordingAnalysis()
        ButterflyEngine(analysis).run(partition(per_thread=2, h=4))
        kinds = [c[0] for c in analysis.calls]
        assert kinds.count("first") == 2
        assert kinds.count("second") == 2
        assert kinds.count("epoch") == 1


class TestStreamingAPI:
    def test_out_of_order_feed_rejected(self):
        engine = ButterflyEngine(RecordingAnalysis())
        engine.attach(partition())
        with pytest.raises(AnalysisError):
            engine.feed_epoch(1)

    def test_finish_before_all_epochs_rejected(self):
        engine = ButterflyEngine(RecordingAnalysis())
        part = partition()
        engine.attach(part)
        engine.feed_epoch(0)
        with pytest.raises(AnalysisError):
            engine.finish()

    def test_double_attach_rejected(self):
        engine = ButterflyEngine(RecordingAnalysis())
        engine.attach(partition())
        with pytest.raises(AnalysisError):
            engine.attach(partition())

    def test_unattached_feed_rejected(self):
        engine = ButterflyEngine(RecordingAnalysis())
        with pytest.raises(AnalysisError):
            engine.feed_epoch(0)

    def test_finish_idempotent(self):
        engine = ButterflyEngine(RecordingAnalysis())
        part = partition()
        engine.attach(part)
        for l in range(part.num_epochs):
            engine.feed_epoch(l)
        engine.finish()
        engine.finish()  # no-op


class TestReset:
    def test_reset_allows_reattach(self):
        engine = ButterflyEngine(RecordingAnalysis())
        engine.run(partition())
        with pytest.raises(AnalysisError):
            engine.attach(partition())
        engine.reset()
        engine.attach(partition())  # no error

    def test_reset_clears_stats(self):
        engine = ButterflyEngine(RecordingAnalysis())
        stats = engine.run(partition())
        assert stats.first_pass_instructions > 0
        engine.reset()
        assert engine.stats.first_pass_instructions == 0
        assert engine.stats.epochs_processed == 0

    def test_rerun_after_reset_counts_fresh(self):
        """Regression: reusing an engine must not accumulate stale
        counters from an earlier (possibly aborted) run."""
        engine = ButterflyEngine(RecordingAnalysis())
        first = engine.run(partition())
        engine.reset()
        engine.analysis = RecordingAnalysis()
        second = engine.run(partition())
        assert second == first

    def test_reset_after_midrun_error(self):
        engine = ButterflyEngine(RecordingAnalysis())
        part = partition()
        engine.attach(part)
        engine.feed_epoch(0)
        with pytest.raises(AnalysisError):
            engine.feed_epoch(2)  # out of order: aborts the run
        assert engine.stats.first_pass_instructions > 0
        engine.reset()
        engine.analysis = RecordingAnalysis()
        stats = engine.run(part)
        assert stats.first_pass_instructions == 12


class TestStats:
    def test_instruction_counters(self):
        analysis = RecordingAnalysis()
        engine = ButterflyEngine(analysis)
        stats = engine.run(partition(threads=2, per_thread=6))
        assert stats.first_pass_instructions == 12
        assert stats.second_pass_instructions == 12
        assert stats.epochs_processed == 3
        assert stats.meets == 6
