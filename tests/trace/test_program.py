"""Unit tests for TraceProgram / ThreadTrace."""

import random

import numpy as np
import pytest

from repro.core.columnar import ColumnarBlock
from repro.errors import TraceError
from repro.trace.events import Instr, Op
from repro.trace.generator import random_program, simulated_taint_program
from repro.trace.program import ThreadTrace, TraceProgram
from repro.workloads.registry import WORKLOADS


def make_program():
    return TraceProgram.from_lists(
        [Instr.write(0), Instr.read(0)],
        [Instr.malloc(1), Instr.free(1)],
    )


class TestShape:
    def test_num_threads(self):
        assert make_program().num_threads == 2

    def test_total_instructions(self):
        assert make_program().total_instructions == 4

    def test_memory_op_count_excludes_alloc_events(self):
        # malloc/free are not accesses; write/read are.
        assert make_program().memory_op_count == 2

    def test_instr_at(self):
        prog = make_program()
        assert prog.instr_at((1, 0)).op.value == "malloc"

    def test_thread_trace_iteration(self):
        trace = ThreadTrace([Instr.nop(), Instr.nop()])
        assert len(trace) == 2
        assert all(i.op.value == "nop" for i in trace)

    def test_thread_trace_builds_its_columns_once(self):
        instrs = [Instr.nop(), Instr.read(1), Instr.assign(2, 1, 3)]
        trace = ThreadTrace(instrs)
        assert trace.columns == ColumnarBlock.from_instrs(instrs)
        assert ThreadTrace().columns.length == 0
        # Every partition's blocks are views of these arrays.
        with pytest.raises(ValueError):
            trace.columns.dst[0] = 7

    def test_a_decoded_thread_builds_its_instrs_on_first_read(self):
        instrs = [Instr.nop(), Instr.read(1), Instr.assign(2, 1, 3)]
        built = ThreadTrace(instrs)
        decoded = ThreadTrace(
            columns=ColumnarBlock.from_rows(built.columns.to_rows())
        )
        assert decoded == built
        with pytest.raises(ValueError):
            decoded.columns.dst[0] = 7
        # A cut hands over Instr objects only where the thread holds them.
        assert decoded.cut(1, 3)[1] is None
        assert built.cut(1, 3)[1][0] is instrs[1]
        assert decoded.instrs == tuple(instrs)
        assert decoded.cut(1, 3)[1] == tuple(instrs[1:3])


def per_instr_memory_ops(program):
    return sum(1 for trace in program.threads for i in trace if i.accessed)


class TestMemoryOpCount:
    """The column count agrees with counting ``Instr.accessed`` one
    event at a time."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_registered_workload(self, name):
        program = WORKLOADS[name].generate(3, 1200, seed=5)
        assert program.memory_op_count == per_instr_memory_ops(program) > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_programs(self, seed):
        for program in (
            simulated_taint_program(
                random.Random(seed), num_threads=3, total_events=200
            ),
            random_program(
                random.Random(seed), num_threads=3, length=60,
                ops=tuple(Op),
            ),
        ):
            assert program.memory_op_count == per_instr_memory_ops(program)


class TestValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            TraceProgram([]).validate()

    def test_valid_true_order(self):
        prog = make_program()
        prog.true_order = [0, 1, 0, 1]
        prog.validate()

    def test_true_order_must_cover_trace(self):
        prog = make_program()
        prog.true_order = [0]
        with pytest.raises(TraceError):
            prog.validate()

    def test_true_order_unknown_thread(self):
        prog = make_program()
        prog.true_order = [5]
        with pytest.raises(TraceError, match="one thread id per event"):
            prog.validate()

    def test_timesliced_order_validated_too(self):
        prog = make_program()
        prog.true_order = [0, 1, 0, 1]
        prog.timesliced_order = [0]
        with pytest.raises(TraceError):
            prog.validate()

    def test_a_schedule_is_one_thread_id_per_event(self):
        """Program order fixes each event's index, so a schedule holds
        thread ids alone: ``(thread, index)`` pairs are refused."""
        prog = make_program()
        prog.true_order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        with pytest.raises(TraceError, match="one thread id per event"):
            prog.validate()

    def test_schedules_are_read_only_and_stay_out_of_equality(self):
        prog, other = make_program(), make_program()
        prog.true_order = [0, 1, 0, 1]
        other.true_order = [1, 1, 0, 0]
        assert prog.true_order.dtype == np.int64
        with pytest.raises(ValueError):
            prog.true_order[0] = 1
        assert prog == other


class TestRecordedOrder:
    def test_missing_order_raises(self):
        with pytest.raises(TraceError):
            make_program().recorded_order()

    def test_walk_recorded_order(self):
        prog = make_program()
        prog.true_order = [1, 1, 0, 0]
        refs = [ref for ref, _ in prog.walk(prog.recorded_order())]
        assert refs == [(1, 0), (1, 1), (0, 0), (0, 1)]
