"""Tests for the Splash-2/Parsec synthetic workload generators."""

import pytest

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import compare_reports
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.workloads.registry import BENCHMARKS, get_benchmark
from repro.errors import WorkloadError


ALL = sorted(BENCHMARKS)


class TestRegistry:
    def test_six_benchmarks(self):
        assert len(BENCHMARKS) == 6

    def test_table1_names(self):
        assert set(BENCHMARKS) == {
            "BARNES", "FFT", "FMM", "OCEAN", "BLACKSCHOLES", "LU"
        }

    def test_lookup_case_insensitive(self):
        assert get_benchmark("barnes").spec.name == "BARNES"

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            get_benchmark("SPECJBB")


class TestGeneratedTraces:
    @pytest.mark.parametrize("name", ALL)
    def test_structure_valid(self, name):
        prog = get_benchmark(name).generate(3, 3000, seed=7)
        prog.validate()
        assert prog.num_threads == 3
        assert prog.true_order is not None
        assert prog.timesliced_order is not None

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic_for_seed(self, name):
        a = get_benchmark(name).generate(2, 2000, seed=5)
        b = get_benchmark(name).generate(2, 2000, seed=5)
        assert a.true_order.tolist() == b.true_order.tolist()
        assert all(
            x.instrs == y.instrs for x, y in zip(a.threads, b.threads)
        )

    @pytest.mark.parametrize("name", ALL)
    def test_recorded_execution_has_no_true_errors(self, name):
        """The generators simulate *correct* programs: the ground-truth
        interleaving must be AddrCheck-clean (so every butterfly flag in
        Figure 13 is a false positive)."""
        prog = get_benchmark(name).generate(4, 4000, seed=11)
        guard = SequentialAddrCheck(prog.preallocated)
        guard.run_order(prog)
        assert len(guard.errors) == 0

    @pytest.mark.parametrize("name", ALL)
    def test_timesliced_schedule_also_clean(self, name):
        """The recorded timesliced schedule is an alternative legal
        execution: it must be error-free too."""
        prog = get_benchmark(name).generate(4, 4000, seed=11)
        guard = SequentialAddrCheck(prog.preallocated)
        for event in prog.walk(prog.timesliced_order):
            guard.step(*event)
        assert len(guard.errors) == 0

    @pytest.mark.parametrize("name", ALL)
    def test_zero_false_negatives_on_generated_traces(self, name):
        prog = get_benchmark(name).generate(2, 3000, seed=3)
        part = partition_by_global_order(prog, 256)
        guard = ButterflyAddrCheck(initially_allocated=prog.preallocated)
        ButterflyEngine(guard).run(part)
        truth = SequentialAddrCheck(prog.preallocated)
        truth.run_order(prog)
        pr = compare_reports(truth.errors, guard.errors, prog.memory_op_count)
        assert pr.false_negatives == 0

    @pytest.mark.parametrize("name", ALL)
    def test_mem_fraction_roughly_matches_spec(self, name):
        gen = get_benchmark(name)
        prog = gen.generate(2, 6000, seed=2)
        frac = prog.memory_op_count / prog.total_instructions
        assert abs(frac - gen.spec.mem_fraction) < 0.25


class TestCharacterization:
    def test_blackscholes_is_compute_heavy(self):
        frac = {}
        for name in ("BLACKSCHOLES", "BARNES"):
            prog = get_benchmark(name).generate(2, 6000, seed=1)
            frac[name] = prog.memory_op_count / prog.total_instructions
        assert frac["BLACKSCHOLES"] < frac["BARNES"]

    def test_ocean_has_allocation_churn_and_lu_does_not(self):
        from repro.trace.events import Op

        ocean = get_benchmark("OCEAN").generate(2, 6000, seed=1)
        lu = get_benchmark("LU").generate(2, 6000, seed=1)
        count = lambda p: sum(
            1 for t in p.threads for i in t if i.op in (Op.MALLOC, Op.FREE)
        )
        assert count(ocean) > 0
        assert count(lu) == 0

    def test_sharing_spec_ordering(self):
        specs = {n: g.spec for n, g in BENCHMARKS.items()}
        assert specs["OCEAN"].sharing > specs["BLACKSCHOLES"].sharing
        assert specs["LU"].reuse > specs["BARNES"].reuse
