"""Unit tests for the SOS container."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.state import LocationRuns, SOSHistory, SOSView
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

    def test_out_of_order_advance_is_rejected_before_the_kill_scan(self):
        def killed(element):
            raise AssertionError("scanned the SOS for a call that must fail")

        sos = SOSHistory({"a"})
        with pytest.raises(AnalysisError):
            sos.advance(1, set(), killed)

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
        sos.publish(0, {"c"}, {"a"})
        assert sos.get(2) == {"b", "c"}
        with pytest.raises(AnalysisError):
            sos.publish(0, set(), set())

    def test_evict_keeps_the_frontier_of_a_seeded_history(self):
        sos = SOSHistory(initial={"a"})
        sos.evict(99)
        assert sos.published() == {1: frozenset({"a"})}
        with pytest.raises(AnalysisError, match="evicted"):
            sos.get(0)
        sos.advance(0, set(), lambda e: False)
        assert sos.get(2) == {"a"}


# -- base + delta against full copies ---------------------------------------
#
# SOSHistory used to hold one frozenset per published epoch, built as
# ``frozenset(SOS_{l+1}.difference(KILL_l) | GEN_l)``.  CopyHistory below
# is that container; every operation sequence must leave the live-set-
# plus-deltas history reading exactly what the copies read.


class CopyHistory:
    def __init__(self, initial=()):
        base = frozenset(initial)
        self.states = {0: base, 1: base}
        self.frontier = 1

    def publish(self, summarized_epoch, gen, kill):
        assert summarized_epoch + 2 == self.frontier + 1
        prev = self.states[self.frontier]
        self.frontier += 1
        self.states[self.frontier] = frozenset(prev.difference(kill) | gen)

    def evict(self, before):
        before = min(before, self.frontier)
        for lid in [k for k in self.states if k < before]:
            del self.states[lid]


_ELEMENTS = st.integers(0, 11)
_SETS = st.sets(_ELEMENTS, max_size=6)
_OPS = st.one_of(
    st.tuples(st.just("publish"), _SETS, _SETS),
    st.tuples(st.just("evict"), st.integers(0, 12)),
    # edit a view of a resident version: (how far back, adds, discards)
    st.tuples(
        st.just("edit"), st.integers(0, 12),
        st.lists(st.tuples(st.booleans(), _ELEMENTS), max_size=8),
    ),
    # a checkpoint: save, then carry on with what was loaded
    st.tuples(st.just("pickle")),
)


class TestViewsAgainstCopies:
    @settings(max_examples=200, deadline=None)
    @given(initial=_SETS, runs=st.booleans(), ops=st.lists(_OPS, max_size=14))
    def test_any_interleaving_of_add_discard_publish_evict(
        self, initial, runs, ops
    ):
        sos = SOSHistory(LocationRuns.of(initial) if runs else initial)
        ref = CopyHistory(initial)
        for op in ops:
            if op[0] == "pickle":
                sos = pickle.loads(pickle.dumps(sos))
            elif op[0] == "publish":
                sos.publish(sos.frontier - 1, op[1], op[2])
                ref.publish(ref.frontier - 1, op[1], op[2])
            elif op[0] == "evict":
                sos.evict(op[1])
                ref.evict(op[1])
            else:
                lid = sorted(ref.states)[op[1] % len(ref.states)]
                view = sos.get(lid)
                expected = set(ref.states[lid])
                for is_add, element in op[2]:
                    if is_add:
                        view.add(element)
                        expected.add(element)
                    else:
                        view.discard(element)
                        expected.discard(element)
                    assert (element in view) == (element in expected)
                _assert_view_is(view, expected)
            assert sos.frontier == ref.frontier
            assert sos.published() == ref.states
            live = ref.states[ref.frontier]
            assert sos._gained == live - initial
            assert sos._lost == initial - live
            # Edits went to the overlays: no resident version moved.
            for lid, state in ref.states.items():
                _assert_view_is(sos.get(lid), state)

    def test_views_do_not_see_each_others_edits(self):
        sos = SOSHistory(initial={1, 2})
        a, b = sos.get(1), sos.get(1)
        a.add(3)
        a.discard(1)
        assert a == {2, 3} and b == {1, 2} and sos.get(1) == {1, 2}

    def test_set_algebra_on_a_view_yields_plain_sets(self):
        view = SOSView({1, 2, 3})
        view.discard(2)
        view.add(9)
        assert view == {1, 3, 9} and {1, 3, 9} == view
        assert view != {1, 3} and view >= {1, 9} and view <= {1, 3, 9, 10}
        assert type(view | {4}) is set and view | {4} == {1, 3, 4, 9}
        assert type(view - {1}) is set and view - {1} == {3, 9}
        assert view & {2, 3, 9} == {3, 9}
        view -= {9, 3}
        assert sorted(view) == [1] and len(view) == 1


def _assert_view_is(view, expected):
    """``view`` reads as ``expected`` and is the normalized
    ``(base - removed) | added``."""
    assert view == expected and len(view) == len(expected)
    assert sorted(view) == sorted(expected)
    assert set(view) == (set(view.base) - view.removed) | view.added
    assert view.removed <= set(view.base)
    assert not view.added & set(view.base)


class TestCheckpointForm:
    def test_a_save_costs_the_changes_not_the_live_set(self):
        """Pickled, the SOS is its initial runs plus what was gained and
        lost: 32,768 preallocated locations cost two runs."""
        sos = SOSHistory(LocationRuns.of(range(32_768)))
        sos.publish(0, {40_000, 40_001}, {5, 6})
        sos.publish(1, {5}, {40_000, 7})
        blob = pickle.dumps(sos, pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 1024
        restored = pickle.loads(blob)
        assert restored._live == sos._live == (
            set(range(32_768)) - {6, 7} | {40_001}
        )
        assert restored.published() == sos.published()
        assert type(restored._initial) is LocationRuns

    def test_a_frozen_initial_set_is_kept_as_given(self):
        initial = frozenset({1, 2, 3})
        assert SOSHistory(initial)._initial is initial
