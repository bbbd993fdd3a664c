"""Unit tests for the memory hierarchy."""

from repro.sim.config import MachineConfig
from repro.sim.memory import MemoryHierarchy, SharedL2, build_hierarchies


class TestHierarchy:
    def test_l1_hit_cost(self):
        config = MachineConfig()
        h = build_hierarchies(config, 1)[0]
        h.access(0)  # cold
        assert h.access(0) == config.l1d.latency_cycles

    def test_l1_miss_l2_hit_cost(self):
        config = MachineConfig()
        hs = build_hierarchies(config, 2)
        hs[0].access(0)  # installs in L1[0] and shared L2
        cost = hs[1].access(0)  # L1[1] miss, L2 hit
        assert cost == config.l1d.latency_cycles + config.l2.latency_cycles

    def test_cold_miss_goes_to_memory(self):
        config = MachineConfig()
        h = build_hierarchies(config, 1)[0]
        cost = h.access(0)
        assert cost == (
            config.l1d.latency_cycles
            + config.l2.latency_cycles
            + config.memory_latency
        )

    def test_shared_l2_visible_across_cores(self):
        config = MachineConfig()
        shared = SharedL2(config)
        a = MemoryHierarchy(config, shared)
        b = MemoryHierarchy(config, shared)
        a.access(128)
        assert b.access(128) < (
            config.l1d.latency_cycles
            + config.l2.latency_cycles
            + config.memory_latency
        )

    def test_cycle_accumulation(self):
        # A core's cycles are the sum of what its accesses return: a
        # cold miss through L2 to memory, then an L1 hit.
        config = MachineConfig()
        h = build_hierarchies(config, 1)[0]
        assert h.access(0) + h.access(0) == (
            2 * config.l1d.latency_cycles
            + config.l2.latency_cycles
            + config.memory_latency
        )


class TestL2Scaling:
    def test_l2_size_scales_with_cores(self):
        assert MachineConfig(cores=4).l2.size_bytes == 2 * 1024 * 1024
        assert MachineConfig(cores=8).l2.size_bytes == 4 * 1024 * 1024
        assert MachineConfig(cores=16).l2.size_bytes == 8 * 1024 * 1024
