"""The memoized all-orderings oracle.

``true_errors_under_any_ordering`` replays only the divergent suffix of
each consecutive ordering; the trial-count tests assert both the union
(vs. a naive fresh-guard-per-ordering sweep) and the exact number of
events replayed.
"""

import pytest

from repro.core.epoch import partition_from_boundaries
from repro.core.ordering import all_valid_orderings
from repro.lifeguards.sequential import (
    SequentialAddrCheck,
    SequentialTaintCheck,
    true_errors_under_any_ordering,
)
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


def _make_guard(lifeguard, preallocated=()):
    if lifeguard == "addrcheck":
        return SequentialAddrCheck(preallocated)
    return SequentialTaintCheck()


def _lcp(a, b):
    k = 0
    limit = min(len(a), len(b))
    while k < limit and a[k] == b[k]:
        k += 1
    return k


def _naive_oracle(partition, orders, lifeguard, preallocated):
    out = {}
    for order in orders:
        guard = _make_guard(lifeguard, preallocated)
        for iid in order:
            guard.process(iid, partition.instr(iid))
        for report in guard.errors:
            out.setdefault(report.identity(), report)
    return out


class TestMemoizedOracle:
    def _programs(self):
        yield "addrcheck", frozenset({0}), TraceProgram.from_lists(
            [Instr.malloc(1), Instr.read(1), Instr.free(1), Instr.read(1)],
            [Instr.read(1), Instr.write(0), Instr.malloc(1), Instr.read(2)],
        )
        yield "taintcheck", frozenset(), TraceProgram.from_lists(
            [Instr.taint(1), Instr.assign(2, 1), Instr.jump(2)],
            [Instr.write(1), Instr.jump(1), Instr.untaint(2), Instr.jump(2)],
        )

    def test_matches_naive_sweep(self):
        for lifeguard, pre, program in self._programs():
            program = TraceProgram(program.threads, preallocated=pre)
            boundaries = [
                [min(2, len(t)), len(t)] for t in program.threads
            ]
            partition = partition_from_boundaries(program, boundaries)
            orders = list(all_valid_orderings(partition))
            assert len(orders) > 1  # prefix sharing is actually exercised
            naive = _naive_oracle(partition, orders, lifeguard, pre)
            stats = {}
            memo = true_errors_under_any_ordering(
                None, orders, lifeguard=lifeguard, preallocated=pre,
                instr_of=partition.instr, stats=stats,
            )
            assert set(memo) == set(naive), lifeguard
            assert all(memo[k].identity() == k for k in memo)
            assert naive, lifeguard  # the cases really contain errors

    def test_trial_count_is_the_suffix_sum(self):
        """The enumerator replays exactly sum(len(order) - lcp(prev,
        order)) events -- and on DFS-enumerated orderings that is far
        below the naive full-replay cost."""
        for lifeguard, pre, program in self._programs():
            program = TraceProgram(program.threads, preallocated=pre)
            boundaries = [
                [min(2, len(t)), len(t)] for t in program.threads
            ]
            partition = partition_from_boundaries(program, boundaries)
            orders = list(all_valid_orderings(partition))
            expected, prev = 0, []
            for order in orders:
                expected += len(order) - _lcp(prev, order)
                prev = order
            stats = {}
            true_errors_under_any_ordering(
                None, orders, lifeguard=lifeguard, preallocated=pre,
                instr_of=partition.instr, stats=stats,
            )
            total = sum(len(o) for o in orders)
            assert stats == {
                "orderings": len(orders),
                "events_total": total,
                "events_replayed": expected,
            }
            # The whole point: DFS siblings share prefixes, so the
            # memoized sweep does strictly less work than naive replay
            # (at least 1.5x on these programs).
            assert expected < total
            assert expected * 3 <= total * 2

    def test_ref_defaults_to_program_instr_at(self):
        program = TraceProgram.from_lists([Instr.jump(3)], [Instr.taint(3)])
        safe = [(0, 0), (1, 0)]   # jump before taint: clean
        bad = [(1, 0), (0, 0)]    # taint first: tainted jump
        out = true_errors_under_any_ordering(
            program, [safe], lifeguard="taintcheck"
        )
        assert out == {}
        out = true_errors_under_any_ordering(
            program, [safe, bad], lifeguard="taintcheck"
        )
        assert len(out) == 1
        with pytest.raises(ValueError):
            true_errors_under_any_ordering(None, [safe])
