"""Unit tests for the timesliced baseline's mechanics."""

from dataclasses import replace

import pytest

from repro.sim import lba
from repro.sim.config import COSTS
from repro.sim.lba import LBASystem
from repro.trace.events import Instr
from repro.trace.program import ThreadTrace, TraceProgram
from repro.workloads.registry import get_benchmark


def program_with_orders():
    threads = [
        ThreadTrace([Instr.read(1), Instr.read(1), Instr.read(1)]),
        ThreadTrace([Instr.read(2), Instr.read(2), Instr.read(2)]),
    ]
    true_order = [0, 1, 0, 1, 0, 1]
    ts_order = [0, 0, 0, 1, 1, 1]
    prog = TraceProgram(
        threads, true_order=true_order, preallocated=frozenset({1, 2}),
        timesliced_order=ts_order,
    )
    prog.validate()
    return prog


class TestTimesliced:
    def test_prefers_recorded_timesliced_order(self):
        prog = program_with_orders()
        result = LBASystem().timesliced(prog)
        # The timesliced schedule has exactly one context switch.
        switches = (
            result.app_cycles
            - LBASystem().unmonitored_sequential(prog).app_cycles
        )
        # One switch at default 300 cycles (cache effects may differ
        # slightly between the two orders, so compare loosely).
        assert 0 < result.app_cycles

    def test_filter_suppresses_repeats(self):
        prog = program_with_orders()
        result = LBASystem().timesliced(prog)
        # 6 accesses over 2 locations: 4 of 6 filtered.
        assert result.extras["filter_rate"] == pytest.approx(4 / 6)

    def test_no_errors_on_preallocated(self):
        prog = program_with_orders()
        result = LBASystem().timesliced(prog)
        assert result.extras["errors"] == 0

    def test_errors_charged(self):
        threads = [ThreadTrace([Instr.read(9)])]
        prog = TraceProgram(threads, true_order=[0])
        result = LBASystem().timesliced(prog)
        assert result.extras["errors"] == 1
        assert result.lifeguard_cycles >= COSTS.error_handling_cycles

    def test_nops_never_dispatch(self):
        threads = [ThreadTrace([Instr.nop()] * 100)]
        prog = TraceProgram(threads, true_order=[0] * 100)
        result = LBASystem().timesliced(prog)
        assert result.lifeguard_cycles == 0

    def test_falls_back_to_round_robin_without_orders(self):
        prog = TraceProgram(
            [ThreadTrace([Instr.nop()] * 4), ThreadTrace([Instr.nop()] * 4)]
        )
        result = LBASystem().timesliced(prog)
        assert result.cycles > 0


class TestCostModelKnobs:
    """The timing responds to the cost model: each test re-prices
    ``COSTS`` for its own runs."""

    def test_error_cost_moves_butterfly_time(self, monkeypatch):
        prog = get_benchmark("OCEAN").generate(2, 6144, seed=9)
        cycles = []
        for cost in (0, 5000):
            monkeypatch.setattr(
                lba, "COSTS", replace(COSTS, error_handling_cycles=cost)
            )
            run = LBASystem().butterfly(prog, 2048)
            cycles.append(run.result.lifeguard_cycles)
        t_cheap, t_dear = cycles
        assert t_dear > t_cheap

    def test_barrier_cost_scales_with_epochs(self, monkeypatch):
        prog = get_benchmark("LU").generate(2, 6144, seed=9)
        monkeypatch.setattr(
            lba, "COSTS", replace(COSTS, epoch_barrier_cycles=10_000)
        )
        many = LBASystem().butterfly(prog, 256)
        few = LBASystem().butterfly(prog, 2048)
        assert many.result.lifeguard_cycles > few.result.lifeguard_cycles
