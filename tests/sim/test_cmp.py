"""Unit tests for cores and parallel execution."""

from repro.sim.cmp import (
    Core,
    run_parallel,
    run_serialized,
)
from repro.sim.config import MachineConfig
from repro.sim.memory import build_hierarchies
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


class TestCore:
    def test_nop_costs_one_cycle(self):
        core = Core(build_hierarchies(MachineConfig(), 1)[0])
        result = core.execute([Instr.nop()] * 10)
        assert result.cycles == 10
        assert result.memory_accesses == 0

    def test_memory_ops_add_latency(self):
        core = Core(build_hierarchies(MachineConfig(), 1)[0])
        result = core.execute([Instr.read(0)])
        assert result.cycles > 1
        assert result.memory_accesses == 1

    def test_assign_touches_all_locations(self):
        core = Core(build_hierarchies(MachineConfig(), 1)[0])
        result = core.execute([Instr.assign(0, 1, 2)])
        assert result.memory_accesses == 3


class TestRunParallel:
    def test_critical_path_is_max_thread(self):
        prog = TraceProgram.from_lists(
            [Instr.nop()] * 100, [Instr.nop()] * 10
        )
        result = run_parallel(prog, MachineConfig(cores=4))
        assert result.cycles == 100

    def test_parallel_faster_than_serial_for_balanced_work(self):
        prog = TraceProgram.from_lists(
            [Instr.nop()] * 50, [Instr.nop()] * 50
        )
        par = run_parallel(prog, MachineConfig(cores=4))
        ser = run_serialized(prog, MachineConfig(cores=4))
        assert par.cycles < ser.cycles


class TestRunSerialized:
    def test_uses_given_order(self):
        prog = TraceProgram.from_lists([Instr.nop()], [Instr.nop()])
        result = run_serialized(
            prog, MachineConfig(), order=[1, 0]
        )
        assert result.instructions == 2

    def test_falls_back_to_round_robin(self):
        prog = TraceProgram.from_lists([Instr.nop()] * 3, [Instr.nop()] * 3)
        result = run_serialized(prog, MachineConfig())
        assert result.instructions == 6
