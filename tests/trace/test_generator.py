"""Unit tests for random trace generation."""

import random

from repro.lifeguards.sequential import SequentialAddrCheck
from repro.trace.events import Op
from repro.trace.generator import (
    random_program,
    simulated_alloc_program,
    simulated_taint_program,
)


class TestRandomProgram:
    def test_shape(self):
        prog = random_program(random.Random(0), num_threads=3, length=5)
        assert prog.num_threads == 3
        assert all(len(t) == 5 for t in prog.threads)

    def test_respects_op_menu(self):
        prog = random_program(
            random.Random(0), length=50, ops=(Op.NOP,)
        )
        assert all(
            i.op is Op.NOP for t in prog.threads for i in t
        )


class TestSimulatedAllocProgram:
    def test_clean_run_has_no_true_errors(self):
        for seed in range(10):
            prog = simulated_alloc_program(
                random.Random(seed), num_threads=3, total_events=60
            )
            guard = SequentialAddrCheck()
            guard.run_order(prog)
            assert len(guard.errors) == 0, seed

    def test_injected_errors_are_detected(self):
        found_any = False
        for seed in range(10):
            prog = simulated_alloc_program(
                random.Random(seed),
                num_threads=2,
                total_events=80,
                inject_error_rate=0.2,
            )
            guard = SequentialAddrCheck()
            guard.run_order(prog)
            found_any = found_any or len(guard.errors) > 0
        assert found_any

    def test_true_order_valid(self):
        prog = simulated_alloc_program(random.Random(3), total_events=40)
        prog.validate()
        assert len(prog.true_order) == prog.total_instructions


class TestSimulatedTaintProgram:
    def test_structure(self):
        prog = simulated_taint_program(
            random.Random(1), num_threads=2, total_events=30
        )
        prog.validate()
        assert prog.total_instructions == 30

    def test_contains_taint_events(self):
        prog = simulated_taint_program(
            random.Random(2), total_events=200, taint_rate=0.3
        )
        ops = {i.op for t in prog.threads for i in t}
        assert Op.TAINT in ops


class TestColumnarAllocSource:
    def _source(self, **kw):
        from repro.trace.generator import ColumnarAllocSource

        params = dict(seed=13, num_threads=2, num_epochs=3,
                      events_per_block=64, num_locations=16,
                      change_period=8)
        params.update(kw)
        return ColumnarAllocSource(**params)

    def test_shape_and_totals(self):
        src = self._source()
        assert src.num_threads == 2
        assert src.num_epochs == 3
        assert src.total_events == 2 * 3 * 64
        assert src.preallocated == frozenset(range(16))
        rows = list(src.epochs())
        assert len(rows) == 3
        for lid, row in enumerate(rows):
            assert [b.tid for b in row] == [0, 1]
            for block in row:
                assert block.lid == lid
                assert len(block) == 64

    def test_deterministic_and_resumable(self):
        """Block (l, t) is a pure function of (seed, l, t): a fresh
        iteration and a mid-stream resume regenerate identical blocks."""
        a = list(self._source().epochs())
        b = list(self._source().epochs())
        assert a == b
        resumed = list(self._source().epochs(start=2))
        assert resumed == a[2:]

    def test_different_seeds_differ(self):
        a = list(self._source(seed=1).epochs())
        b = list(self._source(seed=2).epochs())
        assert a != b

    def test_events_are_legal_by_construction(self):
        """Sequential replay over any single thread's trace sees only
        accesses to preallocated locations plus a correctly alternating
        MALLOC/FREE of the thread's private scratch slot."""
        from repro.trace.events import Op as _Op

        src = self._source()
        scratch_states = {}
        for row in src.epochs():
            for block in row:
                scratch = 16 + block.tid
                for instr in block.instrs:
                    if instr.op in (_Op.MALLOC, _Op.FREE):
                        assert instr.dst == scratch
                        prev = scratch_states.get(block.tid, False)
                        assert (instr.op is _Op.MALLOC) == (not prev)
                        scratch_states[block.tid] = not prev
                    elif instr.op is _Op.WRITE:
                        assert 0 <= instr.dst < 16
                    else:
                        assert instr.op is _Op.READ
                        assert 0 <= instr.srcs[0] < 16

    def test_error_rate_targets_unallocated_location(self):
        src = self._source(error_rate=0.2)
        bad = 16 + 2  # num_locations + num_threads
        hits = 0
        for row in src.epochs():
            for block in row:
                for instr in block.instrs:
                    if instr.dst == bad or bad in instr.srcs:
                        hits += 1
        assert hits > 0

    def test_as_objects_is_same_trace(self):
        src = self._source()
        obj_rows = list(src.as_objects().epochs())
        col_rows = list(src.epochs())
        assert obj_rows == col_rows
        assert [b.instrs for row in obj_rows for b in row] == [
            b.columns.to_instrs() for row in col_rows for b in row
        ]

    def test_zero_errors_without_injection(self):
        """The default workload is error-free under butterfly AddrCheck
        (so bench errors==0 is a correctness signal, not luck)."""
        from repro.core.framework import ButterflyEngine
        from repro.lifeguards.addrcheck import ButterflyAddrCheck

        src = self._source()
        guard = ButterflyAddrCheck(initially_allocated=src.preallocated)
        with ButterflyEngine(guard, backend="serial") as engine:
            engine.run_source(src)
        assert len(guard.errors) == 0

    def test_bad_shapes_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            self._source(events_per_block=0)
        with _pytest.raises(ValueError):
            self._source(change_period=1)
