"""Unit tests for the metadata TLB (64 entries, 4-way: 16 sets)."""

import pytest

from repro.sim.accelerators import MetadataTLB

#: Pages ``SET_STRIDE`` apart land in the same set.
SET_STRIDE = MetadataTLB.ENTRIES // MetadataTLB.ASSOCIATIVITY


class TestMetadataTLB:
    def test_first_access_misses(self):
        tlb = MetadataTLB()
        assert tlb.lookup(0) == MetadataTLB.MISS_CYCLES
        assert tlb.misses == 1

    def test_second_access_hits(self):
        tlb = MetadataTLB()
        tlb.lookup(0)
        assert tlb.lookup(8) == MetadataTLB.HIT_CYCLES  # same page
        assert tlb.hits == 1

    def test_pages_distinguished(self):
        tlb = MetadataTLB(page_size=4096)
        tlb.lookup(0)
        assert tlb.lookup(4096) == tlb.MISS_CYCLES

    def test_lru_eviction(self):
        tlb = MetadataTLB(page_size=16)
        # Five pages onto one set of four ways.
        for page in range(5):
            tlb.lookup(page * SET_STRIDE * 16)
        # Page 0 was least recently used: evicted.
        assert tlb.lookup(0) == tlb.MISS_CYCLES

    def test_lru_refresh_on_hit(self):
        tlb = MetadataTLB(page_size=16)
        for page in range(4):  # fill one set
            tlb.lookup(page * SET_STRIDE * 16)
        tlb.lookup(0)  # refresh page 0
        tlb.lookup(4 * SET_STRIDE * 16)  # evicts the next-oldest, not 0
        assert tlb.lookup(0) == tlb.HIT_CYCLES
        assert tlb.lookup(SET_STRIDE * 16) == tlb.MISS_CYCLES

    def test_flush(self):
        tlb = MetadataTLB()
        tlb.lookup(0)
        tlb.flush()
        assert tlb.lookup(0) == tlb.MISS_CYCLES

    def test_hit_rate(self):
        tlb = MetadataTLB()
        assert tlb.hit_rate == 0.0
        tlb.lookup(0)
        tlb.lookup(0)
        assert tlb.hit_rate == 0.5


class TestDegenerateGeometry:
    """A page size that used to crash with ZeroDivisionError on the
    first lookup must be rejected up front."""

    def test_zero_page_size_rejected(self):
        with pytest.raises(ValueError):
            MetadataTLB(page_size=0)
