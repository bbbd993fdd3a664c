"""Unit tests for the SOS container."""

import pytest

from repro.core.state import SOSHistory
from repro.errors import AnalysisError


class TestSOSHistory:
    def test_initial_states_empty(self):
        sos = SOSHistory()
        assert sos.get(0) == frozenset()
        assert sos.get(1) == frozenset()

    def test_negative_epoch_is_empty(self):
        assert SOSHistory().get(-1) == frozenset()

    def test_unpublished_state_raises(self):
        with pytest.raises(AnalysisError):
            SOSHistory().get(2)

    def test_advance_applies_update_rule(self):
        sos = SOSHistory()
        sos.advance(0, {"a", "b"}, lambda e: False)
        assert sos.get(2) == {"a", "b"}
        sos.advance(1, {"c"}, lambda e: e == "a")
        assert sos.get(3) == {"b", "c"}

    def test_advance_out_of_order_rejected(self):
        sos = SOSHistory()
        with pytest.raises(AnalysisError):
            sos.advance(1, set(), lambda e: False)

    def test_double_advance_rejected(self):
        sos = SOSHistory()
        sos.advance(0, set(), lambda e: False)
        with pytest.raises(AnalysisError):
            sos.advance(0, set(), lambda e: False)

    def test_gen_overrides_kill(self):
        # SOS_l = GEN U (SOS - KILL): regenerated elements survive.
        sos = SOSHistory()
        sos.advance(0, {"a"}, lambda e: False)
        sos.advance(1, {"a"}, lambda e: e == "a")
        assert "a" in sos.get(3)

    def test_frontier_tracks(self):
        sos = SOSHistory()
        assert sos.frontier == 1
        sos.advance(0, set(), lambda e: False)
        assert sos.frontier == 2

    def test_published_snapshot(self):
        sos = SOSHistory()
        sos.advance(0, {"x"}, lambda e: False)
        snap = sos.published()
        assert snap[2] == {"x"}


class TestEviction:
    def _advanced(self, n):
        sos = SOSHistory()
        for lid in range(n):
            sos.advance(lid, {lid}, lambda e: False)
        return sos

    def test_evict_drops_only_older_states(self):
        sos = self._advanced(4)  # states 0..5 published
        sos.evict(4)
        assert sorted(sos.published()) == [4, 5]
        assert sos.get(5) == sos.get(sos.frontier)

    def test_evicted_state_raises_with_diagnosis(self):
        sos = self._advanced(4)
        sos.evict(4)
        with pytest.raises(AnalysisError, match="evicted"):
            sos.get(2)
        # Truly-unpublished epochs keep the original diagnosis.
        with pytest.raises(AnalysisError, match="before"):
            sos.get(9)

    def test_frontier_never_evicted(self):
        sos = self._advanced(3)
        sos.evict(99)
        assert sos.get(sos.frontier) is not None
        sos.advance(3, {"new"}, lambda e: False)
        assert "new" in sos.get(sos.frontier)

    def test_evict_is_monotonic(self):
        sos = self._advanced(5)
        sos.evict(4)
        sos.evict(2)  # going backwards is a no-op
        assert sorted(sos.published()) == [4, 5, 6]

    def test_advance_continues_after_eviction(self):
        sos = self._advanced(3)
        sos.evict(sos.frontier)
        before = sos.get(sos.frontier)
        sos.advance(3, {"x"}, lambda e: False)
        assert sos.get(sos.frontier) == before | {"x"}


class TestInitialState:
    """``initial=`` seeds SOS_0 and SOS_1 (a lifeguard whose metadata
    is non-empty at program start); everything after is the same rule."""

    def test_initial_readable_at_epochs_0_and_1(self):
        sos = SOSHistory(initial=[3, 5, 5])
        assert sos.get(0) == frozenset({3, 5})
        assert sos.get(1) == frozenset({3, 5})
        assert sos.frontier == 1
        assert sos.get(-1) == frozenset()

    def test_initial_accepts_any_iterable_once(self):
        sos = SOSHistory(initial=(i for i in range(3)))
        assert sos.get(0) == sos.get(1) == frozenset({0, 1, 2})

    def test_advance_filters_the_initial_state(self):
        sos = SOSHistory(initial={"a", "b"})
        sos.advance(0, {"c"}, lambda e: e == "a")
        assert sos.get(2) == {"b", "c"}
        # Published states are not rewritten by a later advance.
        assert sos.get(1) == {"a", "b"}

    def test_publish_builds_on_the_initial_state(self):
        sos = SOSHistory(initial={"a", "b"})
        sos.publish(0, (sos.get(sos.frontier) - {"a"}) | {"c"})
        assert sos.get(2) == {"b", "c"}
        with pytest.raises(AnalysisError):
            sos.publish(0, set())

    def test_evict_keeps_the_frontier_of_a_seeded_history(self):
        sos = SOSHistory(initial={"a"})
        sos.evict(99)
        assert sos.published() == {1: frozenset({"a"})}
        with pytest.raises(AnalysisError, match="evicted"):
            sos.get(0)
        sos.advance(0, set(), lambda e: False)
        assert sos.get(2) == {"a"}
