"""Unit tests for the sequential (oracle/baseline) lifeguards."""

import random

import pytest

from repro.lifeguards.reports import ErrorKind
from repro.lifeguards.sequential import (
    SequentialAddrCheck,
    SequentialTaintCheck,
)
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs
from repro.trace.program import ThreadTrace, TraceProgram
from repro.workloads.registry import WORKLOADS

from tests.trace.test_program import schedule_refs


def stream(*instrs):
    return [((0, i), instr) for i, instr in enumerate(instrs)]


class TestSequentialAddrCheck:
    def test_clean_malloc_use_free(self):
        guard = SequentialAddrCheck()
        guard.run(stream(
            Instr.malloc(0, 2), Instr.write(0), Instr.read(1), Instr.free(0, 2)
        ))
        assert len(guard.errors) == 0

    def test_access_unallocated(self):
        guard = SequentialAddrCheck()
        guard.run(stream(Instr.read(5)))
        kinds = [r.kind for r in guard.errors]
        assert kinds == [ErrorKind.ACCESS_UNALLOCATED]

    def test_double_free(self):
        guard = SequentialAddrCheck()
        guard.run(stream(Instr.malloc(0), Instr.free(0), Instr.free(0)))
        assert [r.kind for r in guard.errors] == [ErrorKind.FREE_UNALLOCATED]

    def test_double_malloc(self):
        guard = SequentialAddrCheck()
        guard.run(stream(Instr.malloc(0), Instr.malloc(0)))
        assert [r.kind for r in guard.errors] == [ErrorKind.MALLOC_ALLOCATED]

    def test_use_after_free(self):
        guard = SequentialAddrCheck()
        guard.run(stream(Instr.malloc(0), Instr.free(0), Instr.write(0)))
        assert [r.kind for r in guard.errors] == [ErrorKind.ACCESS_UNALLOCATED]

    def test_initially_allocated_seed(self):
        guard = SequentialAddrCheck(initially_allocated=[5])
        guard.run(stream(Instr.read(5)))
        assert len(guard.errors) == 0

    def test_error_ref_points_at_instruction(self):
        guard = SequentialAddrCheck()
        guard.run(stream(Instr.nop(), Instr.read(5)))
        assert guard.errors.reports[0].ref == (0, 1)


class TestSequentialTaintCheck:
    def test_taint_propagates_through_assign(self):
        guard = SequentialTaintCheck()
        guard.run(stream(
            Instr.taint(1), Instr.assign(2, 1), Instr.jump(2)
        ))
        assert [r.kind for r in guard.errors] == [ErrorKind.TAINTED_JUMP]

    def test_untaint_stops_propagation(self):
        guard = SequentialTaintCheck()
        guard.run(stream(
            Instr.taint(1), Instr.untaint(1), Instr.assign(2, 1), Instr.jump(2)
        ))
        assert len(guard.errors) == 0

    def test_binop_or_semantics(self):
        guard = SequentialTaintCheck()
        guard.run(stream(
            Instr.taint(1), Instr.assign(3, 1, 2), Instr.jump(3)
        ))
        assert len(guard.errors) == 1

    def test_write_untaints(self):
        guard = SequentialTaintCheck()
        guard.run(stream(
            Instr.taint(1), Instr.write(1), Instr.jump(1)
        ))
        assert len(guard.errors) == 0

    def test_assign_from_clean_untaints_dst(self):
        guard = SequentialTaintCheck()
        guard.run(stream(
            Instr.taint(2), Instr.assign(2, 1), Instr.jump(2)
        ))
        assert len(guard.errors) == 0

    def test_clean_jump(self):
        guard = SequentialTaintCheck()
        guard.run(stream(Instr.jump(4)))
        assert len(guard.errors) == 0


def both_walks(program, make_guard):
    """The error logs' raw entries of ``run_order`` over the columns and
    of ``run`` over the recorded order's ``Instr`` objects, after
    checking that both walks counted the same events and left the
    guard's metadata in the same state."""
    walked, replayed = make_guard(program), make_guard(program)
    walked.run_order(program)
    replayed.run(
        (ref, program.threads[ref[0]][ref[1]])
        for ref in schedule_refs(program.recorded_order())
    )
    assert walked.events_processed == replayed.events_processed
    assert walked.snapshot_state() == replayed.snapshot_state()
    return walked.errors.entries, replayed.errors.entries


GUARDS = {
    "addrcheck": lambda program: SequentialAddrCheck(program.preallocated),
    "taintcheck": lambda program: SequentialTaintCheck(),
}


class TestRunOrderWalksColumns:
    """``run_order`` reads the threads' columns; replaying the recorded
    order's ``Instr`` objects through ``process`` must log the same
    errors, in the same order."""

    @pytest.mark.parametrize("guard", sorted(GUARDS))
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_registered_workload(self, name, guard):
        program = WORKLOADS[name].generate(3, 6000, seed=5)
        walked, replayed = both_walks(program, GUARDS[guard])
        assert walked == replayed

    @pytest.mark.parametrize("guard", sorted(GUARDS))
    @pytest.mark.parametrize("seed", range(6))
    def test_adversarial_programs(self, seed, guard):
        rng = random.Random(seed)
        threads = [
            adversarial_instrs(
                rng, 120, num_locations=12, ops=tuple(Op),
                straddle_stride=4, max_extent=3,
            )
            for _ in range(3)
        ]
        order = [t for t, instrs in enumerate(threads) for _ in instrs]
        rng.shuffle(order)
        program = TraceProgram(
            [ThreadTrace(instrs) for instrs in threads],
            true_order=order, preallocated=frozenset(range(0, 12, 3)),
        )
        walked, replayed = both_walks(program, GUARDS[guard])
        assert walked == replayed
        assert walked  # hostile soup always flags something
