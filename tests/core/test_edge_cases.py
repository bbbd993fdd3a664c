"""Edge cases across the core: degenerate traces and partitions."""

import pytest

from repro.core.epoch import (
    partition_by_global_order,
    partition_fixed,
)
from repro.core.framework import ButterflyEngine
from repro.core.reaching_defs import ReachingDefinitions
from repro.core.reaching_exprs import ReachingExpressions
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.trace.events import Instr
from repro.trace.program import ThreadTrace, TraceProgram

ALL_ANALYSES = [
    ButterflyAddrCheck,
    ButterflyTaintCheck,
    ButterflyRaceCheck,
    ReachingDefinitions,
    ReachingExpressions,
]


@pytest.mark.parametrize("factory", ALL_ANALYSES)
class TestDegenerateInputs:
    def test_empty_single_thread(self, factory):
        prog = TraceProgram([ThreadTrace([])])
        analysis = factory()
        ButterflyEngine(analysis).run(partition_fixed(prog, 4))

    def test_single_instruction(self, factory):
        prog = TraceProgram.from_lists([Instr.nop()])
        analysis = factory()
        ButterflyEngine(analysis).run(partition_fixed(prog, 1))

    def test_one_thread_empty_one_not(self, factory):
        prog = TraceProgram(
            [ThreadTrace([Instr.nop()] * 5), ThreadTrace([])]
        )
        analysis = factory()
        ButterflyEngine(analysis).run(partition_fixed(prog, 2))

    def test_epoch_larger_than_trace(self, factory):
        prog = TraceProgram.from_lists([Instr.nop()] * 3, [Instr.nop()] * 3)
        analysis = factory()
        ButterflyEngine(analysis).run(partition_fixed(prog, 1000))

    def test_many_tiny_epochs(self, factory):
        prog = TraceProgram.from_lists([Instr.nop()] * 12)
        analysis = factory()
        ButterflyEngine(analysis).run(partition_fixed(prog, 1))


class TestGlobalOrderEdges:
    def test_single_event_program(self):
        prog = TraceProgram.from_lists([Instr.nop()])
        prog.true_order = [0]
        part = partition_by_global_order(prog, 4)
        assert part.num_epochs == 1

    def test_heartbeat_exactly_at_end(self):
        prog = TraceProgram.from_lists([Instr.nop()] * 4)
        prog.true_order = [0] * 4
        part = partition_by_global_order(prog, 4)
        # One full epoch plus the closing (empty) one.
        sizes = [len(part.block(l, 0)) for l in range(part.num_epochs)]
        assert sum(sizes) == 4

    def test_thread_that_never_runs_early(self):
        # Thread 1's events all arrive after thread 0 finished.
        prog = TraceProgram.from_lists(
            [Instr.nop()] * 6, [Instr.nop()] * 2
        )
        prog.true_order = [0] * 6 + [1, 1]
        part = partition_by_global_order(prog, 2)
        # Early epochs have empty thread-1 blocks.
        assert len(part.block(0, 1)) == 0
        recovered = sum(len(part.block(l, 1)) for l in range(part.num_epochs))
        assert recovered == 2


class TestMallocExtentEdges:
    def test_extent_spanning_epoch_boundary_events(self):
        # A malloc's extent is one event; accesses to each covered
        # location are checked individually.
        prog = TraceProgram.from_lists(
            [Instr.malloc(0, 8), Instr.read(0), Instr.read(7), Instr.read(8)]
        )
        guard = ButterflyAddrCheck()
        ButterflyEngine(guard).run(partition_fixed(prog, 2))
        assert {r.location for r in guard.errors} == {8}

    def test_partial_free(self):
        prog = TraceProgram.from_lists(
            [Instr.malloc(0, 4), Instr.free(0, 2), Instr.read(1),
             Instr.read(2)]
        )
        guard = ButterflyAddrCheck()
        ButterflyEngine(guard).run(partition_fixed(prog, 4))
        assert {r.location for r in guard.errors} == {1}
