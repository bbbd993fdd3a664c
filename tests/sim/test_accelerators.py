"""Unit tests for the idempotent filter."""

import pytest

from repro.sim.accelerators import IdempotentFilter


class TestIdempotentFilter:
    def test_first_access_admitted(self):
        filt = IdempotentFilter()
        assert filt.admit((5,), False)

    def test_repeat_access_filtered(self):
        filt = IdempotentFilter()
        filt.admit((5,), False)
        assert not filt.admit((5,), False)
        assert not filt.admit((5,), False)

    def test_alloc_event_rearms(self):
        filt = IdempotentFilter()
        filt.admit((5,), False)
        assert filt.admit((5,), True)
        assert filt.admit((5,), False)

    def test_alloc_events_always_admitted(self):
        filt = IdempotentFilter()
        assert filt.admit(range(0, 4), True)
        assert filt.admit(range(0, 4), True)

    def test_non_memory_admitted(self):
        filt = IdempotentFilter()
        assert filt.admit((), False)

    def test_capacity_eviction(self):
        filt = IdempotentFilter(capacity=2)
        filt.admit((1,), False)
        filt.admit((2,), False)
        filt.admit((3,), False)  # evicts loc 1
        assert filt.admit((1,), False)

    def test_lru_refresh(self):
        filt = IdempotentFilter(capacity=2)
        filt.admit((1,), False)
        filt.admit((2,), False)
        assert not filt.admit((1,), False)  # refresh 1
        filt.admit((3,), False)  # evicts 2, not 1
        assert not filt.admit((1,), False)

    def test_filter_rate(self):
        filt = IdempotentFilter()
        filt.admit((1,), False)
        filt.admit((1,), False)
        assert filt.filter_rate == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IdempotentFilter(capacity=0)
