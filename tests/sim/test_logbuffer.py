"""Unit tests for the log buffer's steady-state coupling."""

from repro.sim.logbuffer import coupled_time


class TestCoupledTime:
    def test_lifeguard_bound(self):
        assert coupled_time(100, 400) == 400

    def test_app_bound(self):
        assert coupled_time(500, 200) == 500
