"""Integration tests for the LBA system model."""

import pytest

from repro.sim.lba import LBASystem
from repro.workloads.registry import get_benchmark


@pytest.fixture(scope="module")
def small_run():
    prog = get_benchmark("OCEAN").generate(2, 4096, seed=3)
    system = LBASystem()
    return prog, system


class TestBaselines:
    def test_sequential_unmonitored(self, small_run):
        prog, system = small_run
        result = system.unmonitored_sequential(prog)
        assert result.cycles > 0
        assert result.lifeguard_cycles == 0

    def test_parallel_beats_sequential(self, small_run):
        prog, system = small_run
        seq = system.unmonitored_sequential(prog)
        par = system.unmonitored_parallel(prog)
        assert par.cycles < seq.cycles

    def test_timesliced_is_coupled(self, small_run):
        prog, system = small_run
        ts = system.timesliced(prog)
        assert ts.cycles == max(ts.app_cycles, ts.lifeguard_cycles)
        assert 0.0 <= ts.extras["filter_rate"] <= 1.0


class TestButterflySystem:
    def test_butterfly_runs_real_lifeguard(self, small_run):
        prog, system = small_run
        run = system.butterfly(prog, 512)
        assert run.result.cycles > 0
        assert run.partition.num_epochs >= 2
        assert run.engine_stats.epochs_processed == run.partition.num_epochs

    def test_monitoring_slower_than_unmonitored(self, small_run):
        prog, system = small_run
        par = system.unmonitored_parallel(prog)
        bf = system.butterfly(prog, 512)
        assert bf.result.cycles >= par.cycles

    def test_epoch_size_changes_epoch_count(self, small_run):
        prog, system = small_run
        small = system.butterfly(prog, 256)
        large = system.butterfly(prog, 2048)
        assert small.partition.num_epochs > large.partition.num_epochs

    def test_counters_cover_every_block(self, small_run):
        prog, system = small_run
        run = system.butterfly(prog, 512)
        part = run.partition
        for lid in range(part.num_epochs):
            for tid in range(part.num_threads):
                if len(part.block(lid, tid)):
                    assert (lid, tid) in run.block_work
