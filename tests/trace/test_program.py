"""Unit tests for TraceProgram / ThreadTrace."""

import pytest

from repro.core.columnar import ColumnarBlock
from repro.errors import TraceError
from repro.trace.events import Instr
from repro.trace.program import ThreadTrace, TraceProgram


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


class TestValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            TraceProgram([]).validate()

    def test_valid_true_order(self):
        prog = make_program()
        prog.true_order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        prog.validate()

    def test_true_order_must_respect_program_order(self):
        prog = make_program()
        prog.true_order = [(0, 1), (0, 0), (1, 0), (1, 1)]
        with pytest.raises(TraceError):
            prog.validate()

    def test_true_order_must_cover_trace(self):
        prog = make_program()
        prog.true_order = [(0, 0)]
        with pytest.raises(TraceError):
            prog.validate()

    def test_true_order_unknown_thread(self):
        prog = make_program()
        prog.true_order = [(5, 0)]
        with pytest.raises(TraceError):
            prog.validate()

    def test_timesliced_order_validated_too(self):
        prog = make_program()
        prog.true_order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        prog.timesliced_order = [(0, 1)]
        with pytest.raises(TraceError):
            prog.validate()


class TestRecordedOrder:
    def test_missing_order_raises(self):
        with pytest.raises(TraceError):
            make_program().recorded_order()

    def test_iter_recorded(self):
        prog = make_program()
        prog.true_order = [(1, 0), (1, 1), (0, 0), (0, 1)]
        refs = [ref for ref, _ in prog.iter_recorded()]
        assert refs == prog.true_order
