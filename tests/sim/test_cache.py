"""Unit tests for the set-associative cache model."""

import pytest

from repro.errors import SimulationError
from repro.sim.cache import SetAssocCache
from repro.sim.config import CacheConfig


def cache(size=1024, line=64, assoc=2):
    return SetAssocCache(CacheConfig(size, line, assoc, 1))


class TestSetAssocCache:
    def test_cold_miss_then_hit(self):
        c = cache()
        assert not c.access(0)
        assert c.access(0)

    def test_same_line_hits(self):
        c = cache(line=64)
        c.access(0)
        assert c.access(63)
        assert not c.access(64)

    def test_lru_within_set(self):
        c = cache(size=256, line=64, assoc=2)  # 2 sets, 2 ways
        # Lines 0 and 2 map to set 0 (line_index % 2).
        c.access(0)        # line 0 -> set 0
        c.access(128)      # line 2 -> set 0
        c.access(0)        # refresh line 0
        c.access(256)      # line 4 -> set 0: evicts line 2
        assert c.access(0)
        assert not c.access(128)

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            SetAssocCache(CacheConfig(100, 64, 2, 1))
