"""Tests for the deterministic fault injector (``repro.resilience.faults``)."""

import pickle

import pytest

from repro.errors import ResilienceError
from repro.resilience import (
    FAULT_KINDS,
    CorruptedResult,
    FaultPlan,
    InjectedFault,
    result_is_valid,
)
from repro.resilience.faults import TRANSPORT_FAULT_KINDS, faulted_apply


class TestFaultPlanParse:
    def test_single_kind(self):
        plan = FaultPlan.parse("crash=0.05")
        assert plan.crash == 0.05
        assert plan.hang == plan.kill == plan.corrupt == 0.0
        assert plan.seed == 0

    def test_full_spec(self):
        plan = FaultPlan.parse("crash=0.05,hang=0.02,corrupt=0.1,seed=7,hang_s=0.5")
        assert (plan.crash, plan.hang, plan.corrupt) == (0.05, 0.02, 0.1)
        assert plan.seed == 7
        assert plan.hang_s == 0.5

    def test_whitespace_tolerated(self):
        plan = FaultPlan.parse(" kill = 0.01 , seed = 3 ")
        assert plan.kill == 0.01
        assert plan.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault spec key"):
            FaultPlan.parse("explode=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(ResilienceError, match="bad fault spec value"):
            FaultPlan.parse("crash=lots")

    def test_missing_equals_rejected(self):
        with pytest.raises(ResilienceError, match="expected key=value"):
            FaultPlan.parse("crash")

    def test_no_fault_kind_rejected(self):
        with pytest.raises(ResilienceError, match="names no fault kind"):
            FaultPlan.parse("seed=3")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ResilienceError, match=r"in \[0, 1\]"):
            FaultPlan.parse("crash=1.5")

    def test_rates_summing_past_one_rejected(self):
        with pytest.raises(ResilienceError, match="sum to at most 1"):
            FaultPlan.parse("crash=0.6,corrupt=0.6")


class TestFaultPlanDecide:
    def test_pure_and_repeatable(self):
        plan = FaultPlan(crash=0.2, hang=0.2, kill=0.2, corrupt=0.2, seed=9)
        decisions = [plan.decide((b, i), a)
                     for b in range(5) for i in range(5) for a in range(3)]
        again = [plan.decide((b, i), a)
                 for b in range(5) for i in range(5) for a in range(3)]
        assert decisions == again

    def test_certain_fault(self):
        plan = FaultPlan(crash=1.0)
        assert all(
            plan.decide((b, i), a) == "crash"
            for b in range(3) for i in range(3) for a in range(3)
        )

    def test_zero_rates_never_fault(self):
        plan = FaultPlan()
        assert all(
            plan.decide((b, i), a) is None
            for b in range(10) for i in range(10) for a in range(2)
        )

    def test_rates_roughly_respected(self):
        plan = FaultPlan(crash=0.25, seed=1)
        n = 4000
        hits = sum(plan.decide((0, i), 0) == "crash" for i in range(n))
        assert 0.18 < hits / n < 0.32

    def test_attempt_changes_the_draw(self):
        # Retries must not deterministically re-fault: the decision for
        # (key, attempt+1) is an independent draw.
        plan = FaultPlan(crash=0.5, seed=4)
        decisions = {plan.decide((1, 1), a) for a in range(12)}
        assert decisions == {"crash", None}

    def test_decisions_survive_pickling(self):
        # Plans cross the process-pool boundary; the copy must decide
        # identically (no reliance on per-process hash salt).
        plan = FaultPlan(crash=0.3, corrupt=0.3, seed=11)
        clone = pickle.loads(pickle.dumps(plan))
        keys = [((b, i), a) for b in range(4) for i in range(4) for a in range(2)]
        assert [plan.decide(k, a) for k, a in keys] == [
            clone.decide(k, a) for k, a in keys
        ]

    def test_kinds_constant_matches_plan_fields(self):
        plan = FaultPlan(crash=0.1, hang=0.1, kill=0.1, corrupt=0.1)
        assert all(hasattr(plan, k) for k in FAULT_KINDS)
        assert plan.total_rate == pytest.approx(0.4)


class TestTransportFaults:
    def test_parse_transport_kinds(self):
        plan = FaultPlan.parse(
            "disconnect=0.1,trunc_frame=0.05,corrupt_bytes=0.02,"
            "stall=0.01,stall_s=1.5,seed=11"
        )
        assert plan.disconnect == 0.1
        assert plan.trunc_frame == 0.05
        assert plan.corrupt_bytes == 0.02
        assert plan.stall == 0.01
        assert plan.stall_s == 1.5
        assert plan.seed == 11
        assert plan.total_transport_rate == pytest.approx(0.18)
        # Transport rates never leak into the compute-fault budget.
        assert plan.total_rate == 0.0

    def test_families_validated_independently(self):
        # 0.9 compute + 0.9 transport is fine: each family's dice are
        # rolled separately, so each sum only has to fit in [0, 1].
        plan = FaultPlan(crash=0.9, disconnect=0.9)
        assert plan.total_rate == pytest.approx(0.9)
        assert plan.total_transport_rate == pytest.approx(0.9)
        with pytest.raises(ResilienceError, match="sum to at most 1"):
            FaultPlan(disconnect=0.6, stall=0.6)
        with pytest.raises(ResilienceError, match=r"in \[0, 1\]"):
            FaultPlan(trunc_frame=-0.1)

    def test_pure_and_repeatable(self):
        plan = FaultPlan(
            disconnect=0.2, trunc_frame=0.2, corrupt_bytes=0.2,
            stall=0.2, seed=9,
        )
        keys = [((d, e), a)
                for d in range(5) for e in range(5) for a in range(3)]
        first = [plan.decide_transport(k, a) for k, a in keys]
        again = [plan.decide_transport(k, a) for k, a in keys]
        assert first == again
        assert set(first) <= set(TRANSPORT_FAULT_KINDS) | {None}

    def test_uncorrelated_with_compute_dice(self):
        # Same seed, same keys: the transport draw must not mirror the
        # compute draw, or mixed plans would fault in lockstep.
        plan = FaultPlan(crash=0.5, disconnect=0.5, seed=2)
        keys = [((d, e), 0) for d in range(20) for e in range(20)]
        compute = [plan.decide(k, a) is not None for k, a in keys]
        transport = [
            plan.decide_transport(k, a) is not None for k, a in keys
        ]
        agree = sum(c == t for c, t in zip(compute, transport))
        assert 0.3 < agree / len(keys) < 0.7

    def test_attempt_rerolls_the_dice(self):
        # A reconnecting producer must not be doomed to re-fault on the
        # same epoch forever.
        plan = FaultPlan(disconnect=0.5, seed=4)
        decisions = {
            plan.decide_transport((1, 1), a) for a in range(12)
        }
        assert decisions == {"disconnect", None}

    def test_zero_rates_never_fault(self):
        plan = FaultPlan(crash=0.5, seed=1)  # compute-only plan
        assert all(
            plan.decide_transport((d, e), 0) is None
            for d in range(10) for e in range(10)
        )

    def test_rates_roughly_respected(self):
        plan = FaultPlan(trunc_frame=0.25, seed=1)
        n = 4000
        hits = sum(
            plan.decide_transport((0, i), 0) == "trunc_frame"
            for i in range(n)
        )
        assert 0.18 < hits / n < 0.32

    def test_decisions_survive_pickling(self):
        plan = FaultPlan(disconnect=0.3, corrupt_bytes=0.3, seed=11)
        clone = pickle.loads(pickle.dumps(plan))
        keys = [((d, e), a)
                for d in range(4) for e in range(4) for a in range(2)]
        assert [plan.decide_transport(k, a) for k, a in keys] == [
            clone.decide_transport(k, a) for k, a in keys
        ]

    def test_kinds_constant_matches_plan_fields(self):
        plan = FaultPlan()
        assert all(hasattr(plan, k) for k in TRANSPORT_FAULT_KINDS)


def _consume(values):
    """A non-reentrant work unit: drains its context, like the
    AddrCheck scanner consumes its running LSOS."""
    total = sum(values)
    values.clear()
    return total


class TestFaultedApply:
    def test_no_fault_executes_normally(self):
        plan = FaultPlan()  # never faults
        data = [1, 2, 3]
        result = faulted_apply((_consume, (data,), plan, (0, 0), 0, False))
        assert result == 6
        assert data == []  # the real args were used

    def test_crash_raises_before_executing(self):
        plan = FaultPlan(crash=1.0)
        data = [1, 2, 3]
        with pytest.raises(InjectedFault) as exc_info:
            faulted_apply((_consume, (data,), plan, (2, 5), 1, False))
        assert exc_info.value.key == (2, 5)
        assert exc_info.value.attempt == 1
        assert data == [1, 2, 3]  # untouched: the retry needs it pristine
        # It must survive the trip back from a worker process: a crash
        # that fails to unpickle breaks the whole pool instead.
        clone = pickle.loads(pickle.dumps(exc_info.value))
        assert (clone.key, clone.attempt, str(clone)) == (
            (2, 5), 1, str(exc_info.value)
        )

    def test_corrupt_returns_marker_without_executing(self):
        plan = FaultPlan(corrupt=1.0)
        data = [1, 2, 3]
        result = faulted_apply((_consume, (data,), plan, (0, 1), 0, False))
        assert isinstance(result, CorruptedResult)
        assert not result_is_valid(result)
        assert data == [1, 2, 3]  # the unit's work is lost, args pristine

    def test_hang_computes_on_a_private_copy(self):
        # A hung unit may outlive its timeout and race the retry that
        # replaced it, so it must never touch the shared args.
        plan = FaultPlan(hang=1.0, hang_s=0.0)
        data = [1, 2, 3]
        result = faulted_apply((_consume, (data,), plan, (0, 0), 0, False))
        assert result == 6
        assert data == [1, 2, 3]

    def test_kill_downgrades_to_crash_without_allow_kill(self):
        # os._exit must never take the coordinating process down.
        plan = FaultPlan(kill=1.0)
        with pytest.raises(InjectedFault):
            faulted_apply((_consume, ([1],), plan, (0, 0), 0, False))

    def test_result_is_valid_accepts_ordinary_values(self):
        assert result_is_valid(None)
        assert result_is_valid(0)
        assert result_is_valid([1, 2])
        assert not result_is_valid(CorruptedResult((0, 0), 0))
