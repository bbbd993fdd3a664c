"""Integration tests for the LBA system model."""

import pytest

from repro.bench.harness import Oracle, measure_epoch_size
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


@pytest.fixture(scope="module")
def points(small_run):
    """Butterfly runs of the small trace at three epoch sizes."""
    prog, _system = small_run
    oracle = Oracle(prog)
    return {h: measure_epoch_size(prog, h, oracle) for h in (256, 512, 2048)}


class TestButterflySystem:
    def test_butterfly_runs_real_lifeguard(self, points):
        point = points[512]
        assert point.butterfly.cycles > 0
        assert point.partition.num_epochs >= 2
        assert point.epochs == len(point.epoch_seconds)
        assert point.epochs == point.partition.num_epochs

    def test_monitoring_slower_than_unmonitored(self, small_run, points):
        prog, system = small_run
        par = system.unmonitored_parallel(prog)
        assert points[512].butterfly.cycles >= par.cycles

    def test_epoch_size_changes_epoch_count(self, points):
        small, large = points[256], points[2048]
        assert small.partition.num_epochs > large.partition.num_epochs

    def test_counters_cover_every_block(self, points):
        point = points[512]
        part = point.partition
        for lid in range(part.num_epochs):
            for tid in range(part.num_threads):
                if len(part.block(lid, tid)):
                    assert (lid, tid) in point.block_work


class TestButterflyPricing:
    """Pricing a point on read gives the cycles the engine loop's own
    pricing gave when both lived in ``LBASystem.butterfly``; the
    expected values were recorded from that implementation."""

    @pytest.mark.parametrize("h, cycles, extras", [
        (256, 95407, {"epochs": 12, "flags": 0.0, "barrier_cycles": 19200}),
        (2048, 115327,
         {"epochs": 2, "flags": 224.0, "barrier_cycles": 3200}),
    ])
    def test_matches_recorded_cycles(self, points, h, cycles, extras):
        result = points[h].butterfly
        assert result.label == "parallel-monitoring"
        assert result.cycles == result.lifeguard_cycles == cycles
        assert result.app_cycles == 25224
        assert result.extras == extras
        assert result.extras["flags"] == points[h].precision.flagged
