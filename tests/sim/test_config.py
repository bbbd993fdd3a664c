"""Unit tests for Table 1's machine configuration."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import CacheConfig, LifeguardCostModel, MachineConfig


class TestMachineConfig:
    def test_table1_defaults(self):
        config = MachineConfig()
        assert config.clock_ghz == 1.0
        assert config.line_bytes == 64
        assert config.l1i.size_bytes == 64 * 1024
        assert config.l1d.latency_cycles == 2
        assert config.l2_latency == 6
        assert config.memory_latency == 90
        assert config.log_buffer_bytes == 8 * 1024

    def test_for_app_threads_doubles_cores(self):
        assert MachineConfig.for_app_threads(4).cores == 8

    def test_for_app_threads_validates(self):
        with pytest.raises(SimulationError):
            MachineConfig.for_app_threads(0)

    def test_table_rows_render(self):
        rows = dict(MachineConfig(cores=4).table_rows())
        assert rows["Line size"] == "64B"
        assert "90 cycle latency" in rows["Memory"]
        assert rows["Log buffer"] == "8KB"
        assert "4-way set-assoc" in rows["L1-D"]


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig(64 * 1024, 64, 4, 2)
        assert c.num_lines == 1024
        assert c.num_sets == 256

    def test_validation(self):
        with pytest.raises(SimulationError):
            CacheConfig(100, 64, 4, 1).validate()

    def test_zero_line_bytes_rejected_not_zero_division(self):
        with pytest.raises(SimulationError):
            CacheConfig(64 * 1024, 0, 4, 2).validate()

    def test_zero_associativity_rejected_not_zero_division(self):
        with pytest.raises(SimulationError):
            CacheConfig(64 * 1024, 64, 0, 2).validate()

    def test_degenerate_num_sets_rejected(self):
        # size == line_bytes * associativity -> one set is legal;
        # anything smaller must be a SimulationError, not a % 0 crash.
        CacheConfig(64 * 4, 64, 4, 2).validate()
        with pytest.raises(SimulationError):
            CacheConfig(64 * 2, 64, 4, 2).validate()

    def test_single_set_cache_simulates(self):
        from repro.sim.cache import SetAssocCache

        cache = SetAssocCache(CacheConfig(64 * 4, 64, 4, 2))
        for addr in (0, 64, 128, 192, 256):
            cache.access(addr)
        assert cache.hits + cache.misses == 5


class TestCostModel:
    def test_paper_record_overhead_range(self):
        # The paper reports 7-10 instructions per monitored load/store.
        costs = LifeguardCostModel()
        assert 6 <= costs.record_cycles <= 12

    def test_frozen(self):
        costs = LifeguardCostModel()
        with pytest.raises(Exception):
            costs.dispatch_cycles = 99
