"""Unit tests for serializations and interleaving oracles."""

import random

import pytest

from repro.trace.events import Instr
from repro.trace.interleave import (
    all_interleavings,
    count_interleavings,
    is_valid_sc_order,
    random_interleave,
    relaxed_interleavings,
    relaxed_thread_orders,
    round_robin,
    serialize,
)
from repro.trace.program import TraceProgram


def two_by_two():
    return TraceProgram.from_lists(
        [Instr.write(0), Instr.write(1)],
        [Instr.read(0), Instr.read(1)],
    )


class TestRoundRobin:
    """``round_robin`` returns a schedule: one thread id per event."""

    def test_quantum_one_alternates(self):
        order = round_robin(two_by_two(), quantum=1)
        assert order.tolist() == [0, 1, 0, 1]

    def test_large_quantum_serializes(self):
        order = round_robin(two_by_two(), quantum=10)
        assert order.tolist() == [0, 0, 1, 1]

    def test_uneven_lengths(self):
        prog = TraceProgram.from_lists([Instr.nop()] * 3, [Instr.nop()])
        prog.true_order = round_robin(prog, quantum=1)
        assert prog.true_order.tolist() == [0, 1, 0, 0]
        prog.validate()

    def test_bad_quantum(self):
        with pytest.raises(ValueError):
            round_robin(two_by_two(), quantum=0)


class TestRandomInterleave:
    def test_is_valid(self):
        rng = random.Random(0)
        for _ in range(20):
            order = random_interleave(two_by_two(), rng)
            assert is_valid_sc_order(two_by_two(), order)

    def test_deterministic_given_seed(self):
        a = random_interleave(two_by_two(), random.Random(7))
        b = random_interleave(two_by_two(), random.Random(7))
        assert a == b


class TestAllInterleavings:
    def test_count_matches_multinomial(self):
        prog = two_by_two()
        orders = list(all_interleavings(prog))
        assert len(orders) == count_interleavings(prog) == 6

    def test_all_distinct_and_valid(self):
        prog = two_by_two()
        orders = [tuple(o) for o in all_interleavings(prog)]
        assert len(set(orders)) == len(orders)
        for order in orders:
            assert is_valid_sc_order(prog, list(order))

    def test_three_threads(self):
        prog = TraceProgram.from_lists(
            [Instr.nop()], [Instr.nop()], [Instr.nop()]
        )
        assert len(list(all_interleavings(prog))) == 6


class TestRelaxedOrders:
    def test_window_zero_is_program_order(self):
        trace = [Instr.write(0), Instr.write(1), Instr.write(2)]
        orders = list(relaxed_thread_orders(trace, window=0))
        assert orders == [[0, 1, 2]]

    def test_independent_ops_reorder(self):
        trace = [Instr.write(0), Instr.write(1)]
        orders = {tuple(o) for o in relaxed_thread_orders(trace, window=1)}
        assert orders == {(0, 1), (1, 0)}

    def test_dependent_ops_do_not_reorder(self):
        trace = [Instr.write(0), Instr.read(0)]
        orders = {tuple(o) for o in relaxed_thread_orders(trace, window=1)}
        assert orders == {(0, 1)}

    def test_relaxed_interleavings_superset_of_sc(self):
        prog = TraceProgram.from_lists(
            [Instr.write(0), Instr.write(1)],
            [Instr.read(2)],
        )
        sc = {tuple(o) for o in all_interleavings(prog)}
        relaxed = {tuple(o) for o in relaxed_interleavings(prog, window=1)}
        assert sc <= relaxed
        assert len(relaxed) > len(sc)


class TestRelaxedEdgeCases:
    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            list(relaxed_thread_orders([Instr.nop()], window=-1))

    def test_empty_trace_yields_one_empty_order(self):
        assert list(relaxed_thread_orders([], window=2)) == [[]]

    def test_relaxed_interleavings_with_empty_thread(self):
        prog = TraceProgram.from_lists(
            [Instr.write(0), Instr.write(1)], []
        )
        orders = [tuple(o) for o in relaxed_interleavings(prog, window=1)]
        assert len(orders) == len(set(orders))
        assert all(len(o) == 2 for o in orders)

    def test_relaxed_interleavings_of_empty_program(self):
        prog = TraceProgram.from_lists([])
        assert [list(o) for o in relaxed_interleavings(prog, window=1)] \
            == [[]]


class TestSerialize:
    def test_serialize_round_trip(self):
        prog = two_by_two()
        order = [ref for ref, _ in prog.walk(round_robin(prog, quantum=1))]
        instrs = serialize(prog, order)
        assert [i.op.value for i in instrs] == ["write", "read", "write", "read"]


class TestIsValidScOrder:
    def test_rejects_duplicates(self):
        prog = two_by_two()
        assert not is_valid_sc_order(prog, [(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_rejects_wrong_thread(self):
        prog = two_by_two()
        assert not is_valid_sc_order(prog, [(2, 0)])

    def test_rejects_incomplete(self):
        prog = two_by_two()
        assert not is_valid_sc_order(prog, [(0, 0), (0, 1)])
