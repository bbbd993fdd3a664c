"""Ablation benches for the design choices DESIGN.md calls out.

1. Epoch-size sweep beyond the paper's two points: the knob trades
   per-epoch fixed cost against window width (false positives).
2. Idempotent filtering: check-count and cycle savings.
3. Two-phase TaintCheck resolution (Section 6.2's false-positive
   optimization) vs. a single whole-window pass.
4. SC vs. relaxed Check termination: the precision cost of supporting
   relaxed consistency.
"""

import random

import pytest

from repro.bench.harness import Oracle, measure_epoch_size
from repro.bench.reporting import render_table
from repro.core.epoch import partition_by_global_order, partition_fixed
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.trace.events import Instr
from repro.trace.generator import simulated_taint_program
from repro.trace.program import TraceProgram
from repro.workloads.registry import get_benchmark

from .conftest import emit


class TestEpochSizeSweepAblation:
    """More points on the Figure 12/13 curves for the worst-case
    benchmark (OCEAN)."""

    @pytest.fixture(scope="class")
    def sweep(self):
        prog = get_benchmark("OCEAN").generate(4, 16384, seed=1)
        oracle = Oracle(prog)
        rows = []
        for h in (256, 512, 1024, 2048, 4096):
            point = measure_epoch_size(prog, h, oracle)
            rows.append(
                (h, point.epochs, point.butterfly.cycles,
                 point.precision.false_positives, point.fp_rate)
            )
        return rows

    def test_false_positives_weakly_increase(self, sweep, benchmark):
        benchmark.extra_info["assertions"] = "shape"
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        fps = [row[3] for row in sweep]
        assert fps == sorted(fps)

    def test_epoch_count_decreases(self, sweep, benchmark):
        benchmark.extra_info["assertions"] = "shape"
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        epochs = [row[1] for row in sweep]
        assert epochs == sorted(epochs, reverse=True)

    def test_render(self, sweep, benchmark):
        def build():
            return render_table(
                ("h (events)", "epochs", "cycles", "false pos", "rate"),
                [
                    (h, e, c, fp, f"{rate:.2e}")
                    for h, e, c, fp, rate in sweep
                ],
            )
        emit("Ablation: OCEAN epoch-size sweep (4 threads)\n"
             + benchmark.pedantic(build, rounds=1, iterations=1))


class TestIdempotentFilterAblation:
    @pytest.fixture(scope="class")
    def runs(self):
        prog = get_benchmark("LU").generate(4, 16384, seed=2)
        part_on = partition_by_global_order(prog, 4096)
        on = ButterflyAddrCheck(
            initially_allocated=prog.preallocated, use_idempotent_filter=True
        )
        ButterflyEngine(on).run(part_on)
        part_off = partition_by_global_order(prog, 4096)
        off = ButterflyAddrCheck(
            initially_allocated=prog.preallocated, use_idempotent_filter=False
        )
        ButterflyEngine(off).run(part_off)
        return on, off

    def test_filter_reduces_checks(self, runs, benchmark):
        benchmark.extra_info["assertions"] = "shape"
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        on, off = runs
        checks_on = sum(w["checks"] for w in on.block_work.values())
        checks_off = sum(w["checks"] for w in off.block_work.values())
        assert checks_on < checks_off / 2

    def test_filter_preserves_error_locations(self, runs, benchmark):
        benchmark.extra_info["assertions"] = "shape"
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        on, off = runs
        assert {r.location for r in on.errors} == {
            r.location for r in off.errors
        }

    def test_render(self, runs, benchmark):
        on, off = runs
        def build():
            rows = []
            for label, g in (("filter on", on), ("filter off", off)):
                checks = sum(w["checks"] for w in g.block_work.values())
                accesses = sum(
                    w["accesses"] for w in g.block_work.values()
                )
                rows.append((label, accesses, checks,
                             f"{1 - checks / max(1, accesses):.0%}"))
            return render_table(
                ("config", "accesses", "checks", "filtered"), rows
            )
        emit("Ablation: idempotent filtering (LU, 4 threads, h=4096)\n"
             + benchmark.pedantic(build, rounds=1, iterations=1))


class TestTwoPhaseAblation:
    def _flags(self, two_phase):
        total = 0
        for seed in range(30):
            prog = simulated_taint_program(
                random.Random(seed), num_threads=3, total_events=60,
                num_locations=6,
            )
            part = partition_by_global_order(prog, 5)
            guard = ButterflyTaintCheck(two_phase=two_phase)
            ButterflyEngine(guard).run(part)
            total += len(guard.errors)
        return total

    def test_two_phase_never_flags_more(self, benchmark):
        with_phases = self._flags(True)
        single = benchmark.pedantic(
            self._flags, args=(False,), rounds=1, iterations=1
        )
        assert with_phases <= single
        emit(
            "Ablation: two-phase TaintCheck resolution\n"
            f"  flags with two phases:   {with_phases}\n"
            f"  flags with single pass:  {single}"
        )

    def test_impossible_path_rejected_only_with_phases(self, benchmark):
        benchmark.extra_info["assertions"] = "shape"
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # Section 6.2's motivating example: a cross-epoch chain that
        # needs epoch 2 to execute before epoch 0.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.assign(1, 2), Instr.nop(), Instr.jump(1)],
            [Instr.assign(2, 3), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.nop(), Instr.taint(3), Instr.nop()],
        )
        with_phases = ButterflyTaintCheck(two_phase=True)
        ButterflyEngine(with_phases).run(partition_fixed(prog, 1))
        single = ButterflyTaintCheck(two_phase=False)
        ButterflyEngine(single).run(partition_fixed(prog, 1))
        assert len(with_phases.errors) == 0
        assert len(single.errors) == 1


class TestConsistencyModelAblation:
    def test_sc_flags_subset_and_counts(self, benchmark):
        def count(mode):
            total = 0
            for seed in range(30):
                prog = simulated_taint_program(
                    random.Random(seed + 1000), num_threads=3,
                    total_events=60, num_locations=5,
                )
                part = partition_by_global_order(prog, 5)
                guard = ButterflyTaintCheck(mode=mode)
                ButterflyEngine(guard).run(part)
                total += len(guard.errors)
            return total

        relaxed = count("relaxed")
        sc = benchmark.pedantic(count, args=("sc",), rounds=1, iterations=1)
        assert sc <= relaxed
        emit(
            "Ablation: Check termination condition\n"
            f"  flags under relaxed models: {relaxed}\n"
            f"  flags under seq. consistency: {sc}"
        )
