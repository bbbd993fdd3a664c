"""Failure-injection tests: the engine and analyses under misuse.

Production libraries fail loudly and precisely; these tests pin the
error behaviour down so misuse is a diagnosis, not a silent wrong
answer.
"""

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyAnalysis, ButterflyEngine
from repro.errors import AnalysisError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


def partition(threads=2, per_thread=6, h=2):
    prog = TraceProgram.from_lists(
        *[[Instr.nop() for _ in range(per_thread)] for _ in range(threads)]
    )
    return partition_fixed(prog, h)


class ExplodingAnalysis(ButterflyAnalysis):
    """Raises in a configurable phase."""

    def __init__(self, explode_in):
        self.explode_in = explode_in

    def _maybe(self, phase):
        if phase == self.explode_in:
            raise RuntimeError(f"injected failure in {phase}")

    def first_pass(self, block):
        self._maybe("first")
        return None

    def meet(self, butterfly, wing_summaries):
        self._maybe("meet")
        return None

    def second_pass(self, butterfly, side_in):
        self._maybe("second")

    def epoch_update(self, lid, summaries):
        self._maybe("epoch")


class TestAnalysisExceptionsPropagate:
    @pytest.mark.parametrize("phase", ["first", "meet", "second", "epoch"])
    def test_exception_is_not_swallowed(self, phase):
        engine = ButterflyEngine(ExplodingAnalysis(phase))
        with pytest.raises(RuntimeError, match=phase):
            engine.run(partition())


class TestEngineMisuse:
    def test_cannot_reuse_engine_across_partitions(self):
        guard = ButterflyAddrCheck()
        engine = ButterflyEngine(guard)
        engine.run(partition())
        with pytest.raises(AnalysisError):
            engine.run(partition())

    def test_feed_after_finish_rejected(self):
        engine = ButterflyEngine(ButterflyAddrCheck())
        part = partition()
        engine.attach(part)
        for lid in range(part.num_epochs):
            engine.feed_epoch(lid)
        engine.finish()
        with pytest.raises(AnalysisError):
            engine.feed_epoch(0)

    def test_skipping_an_epoch_rejected(self):
        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.attach(partition())
        engine.feed_epoch(0)
        with pytest.raises(AnalysisError):
            engine.feed_epoch(2)


class TestGuardReuse:
    def test_guard_cannot_be_run_twice(self):
        # A lifeguard's SOS history is single-use; re-running must fail
        # loudly rather than corrupt state.
        guard = ButterflyAddrCheck()
        ButterflyEngine(guard).run(partition())
        with pytest.raises(AnalysisError):
            ButterflyEngine(guard).run(partition())


class TestEngineMemoryDiscipline:
    def test_stale_summaries_evicted(self):
        guard = ButterflyAddrCheck()
        engine = ButterflyEngine(guard)
        prog = TraceProgram.from_lists([Instr.write(1)] * 40)
        engine.run(partition_fixed(prog, 2))
        # The engine retains at most the sliding window of summaries.
        assert len(engine.analysis.summaries) <= 3

    def test_lifeguard_evicts_its_own_summaries(self):
        # The window the engine evicts is the only one the guard has.
        guard = ButterflyAddrCheck()
        prog = TraceProgram.from_lists([Instr.write(1)] * 40, [Instr.read(1)] * 40)
        ButterflyEngine(guard).run(partition_fixed(prog, 2))
        assert len(guard.summaries) <= 3 * 2
        assert set(vars(guard)) >= {"summaries"}
        assert "_summaries" not in vars(guard)
