"""Unit tests for the workload-generation scaffolding."""

import random

import pytest

from repro.core.columnar import ColumnAppender
from repro.errors import WorkloadError
from repro.workloads.base import (
    PhasedTraceBuilder,
    StreamingWorkingSet,
    WorkloadSpec,
    shuffle_since,
    thread_region,
)


def events(ws, n):
    """``n`` events of ``ws`` as ``Instr`` objects."""
    out = ColumnAppender()
    ws.emit(out, n)
    assert len(out) == n
    return out.block().to_instrs()


class TestPhasedTraceBuilder:
    def test_phase_preserves_program_order(self):
        b = PhasedTraceBuilder(2, random.Random(0))
        for i in range(5):
            b.threads[0].write(i)
            b.threads[1].read(i)
        b.phase()
        prog = b.build()
        assert [i.dst for i in prog.threads[0]] == list(range(5))

    def test_barriers_order_phases_in_true_order(self):
        b = PhasedTraceBuilder(2, random.Random(0))
        b.threads[0].write(1)
        b.threads[1].write(2)
        b.phase()
        b.threads[0].write(3)
        b.threads[1].write(4)
        b.phase()
        prog = b.build()
        seen_phase2 = False
        for _, instr in prog.walk(prog.recorded_order()):
            if instr.dst in (3, 4):
                seen_phase2 = True
            elif seen_phase2:
                pytest.fail("phase-1 event after phase-2 in true order")

    def test_timesliced_order_runs_threads_in_blocks(self):
        b = PhasedTraceBuilder(2, random.Random(0))
        for out in b.threads:
            for _ in range(4):
                out.nop()
        b.phase()
        prog = b.build()
        ids = prog.timesliced_order.tolist()
        switches = sum(1 for a, bb in zip(ids, ids[1:]) if a != bb)
        assert switches == 1  # one switch per phase at two threads

    def test_a_phase_holds_only_what_was_appended_since_the_last(self):
        b = PhasedTraceBuilder(2, random.Random(0))
        b.threads[0].write(1)
        b.phase()
        b.phase()  # nothing appended: records nothing
        b.threads[1].write(2)
        b.phase()
        prog = b.build()
        assert prog.true_order.tolist() == [0, 1]
        assert prog.timesliced_order.tolist() == [0, 1]

    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            PhasedTraceBuilder(0, random.Random(0))


class TestStreamingWorkingSet:
    def test_emits_exact_count(self):
        ws = StreamingWorkingSet(random.Random(0), 0, 100, 0.5, 1)
        assert len(events(ws, 37)) == 37

    def test_respects_footprint(self):
        ws = StreamingWorkingSet(random.Random(0), 1000, 64, 0.3, 0)
        locs = {l for e in events(ws, 500) for l in e.accessed}
        assert locs
        assert min(locs) >= 1000
        assert max(locs) < 1064

    def test_stream_continues_across_calls(self):
        ws = StreamingWorkingSet(random.Random(0), 0, 10_000, 0.0, 0)
        first = {l for e in events(ws, 100) for l in e.accessed}
        second = {l for e in events(ws, 100) for l in e.accessed}
        # Pure streaming never revisits until the footprint wraps.
        assert not (first & second)

    def test_reuse_one_stays_in_hot_set(self):
        ws = StreamingWorkingSet(random.Random(0), 0, 1000, 1.0, 0)
        locs = {l for e in events(ws, 300) for l in e.accessed}
        assert max(locs) < ws.hot

    def test_compute_ratio(self):
        ws = StreamingWorkingSet(random.Random(0), 0, 100, 0.5, 3)
        mem = sum(1 for e in events(ws, 400) if e.accessed)
        assert mem == pytest.approx(100, rel=0.2)

    def test_tiny_footprint_rejected(self):
        with pytest.raises(WorkloadError):
            StreamingWorkingSet(random.Random(0), 0, 4, 0.5, 0)


class TestHelpers:
    def test_thread_regions_disjoint(self):
        assert thread_region(1) - thread_region(0) >= (1 << 20)

    def test_spec_is_frozen(self):
        spec = WorkloadSpec("X", "S", "i", 0.5, 0.5, 0.5, 0.1)
        with pytest.raises(Exception):
            spec.reuse = 0.9


class TestShuffleSince:
    def test_draws_and_order_match_a_list_shuffle(self):
        out = ColumnAppender()
        out.malloc(7, 3)
        out.read(1)
        out.nop()
        out.assign(2, 3, 4)
        out.write(5)
        out.jump(6)
        out.assign(8)
        before = out.block().to_instrs()
        rng, ref = random.Random(3), random.Random(3)
        shuffle_since(rng, out, 1)
        expected = list(before[1:])
        ref.shuffle(expected)
        assert out.block().to_instrs() == before[:1] + tuple(expected)
        assert rng.random() == ref.random()
