"""Unit tests for the idempotent filter."""

import pytest

from repro.sim.accelerators import IdempotentFilter
from repro.trace.events import Instr


class TestIdempotentFilter:
    def test_first_access_admitted(self):
        filt = IdempotentFilter()
        assert filt.admit(Instr.read(5))

    def test_repeat_access_filtered(self):
        filt = IdempotentFilter()
        filt.admit(Instr.read(5))
        assert not filt.admit(Instr.read(5))
        assert not filt.admit(Instr.write(5))

    def test_alloc_event_rearms(self):
        filt = IdempotentFilter()
        filt.admit(Instr.read(5))
        assert filt.admit(Instr.free(5))
        assert filt.admit(Instr.read(5))

    def test_alloc_events_always_admitted(self):
        filt = IdempotentFilter()
        assert filt.admit(Instr.malloc(0, 4))
        assert filt.admit(Instr.malloc(0, 4))

    def test_non_memory_admitted(self):
        filt = IdempotentFilter()
        assert filt.admit(Instr.nop())

    def test_flush_resets(self):
        filt = IdempotentFilter()
        filt.admit(Instr.read(5))
        filt.flush()
        assert filt.admit(Instr.read(5))

    def test_capacity_eviction(self):
        filt = IdempotentFilter(capacity=2)
        filt.admit(Instr.read(1))
        filt.admit(Instr.read(2))
        filt.admit(Instr.read(3))  # evicts loc 1
        assert filt.admit(Instr.read(1))

    def test_lru_refresh(self):
        filt = IdempotentFilter(capacity=2)
        filt.admit(Instr.read(1))
        filt.admit(Instr.read(2))
        assert not filt.admit(Instr.read(1))  # refresh 1
        filt.admit(Instr.read(3))  # evicts 2, not 1
        assert not filt.admit(Instr.read(1))

    def test_filter_rate(self):
        filt = IdempotentFilter()
        filt.admit(Instr.read(1))
        filt.admit(Instr.read(1))
        assert filt.filter_rate == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IdempotentFilter(capacity=0)
