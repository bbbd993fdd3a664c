"""Unit tests for butterfly TaintCheck."""

import random

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.lifeguards.reports import ErrorKind
from repro.lifeguards.taintcheck import BOT, TOP, ButterflyTaintCheck
from repro.trace.events import Instr
from repro.trace.program import TraceProgram
from repro.verify.reference import _value_of


def run_guard(program, h, mode="relaxed", **kwargs):
    guard = ButterflyTaintCheck(mode=mode, **kwargs)
    ButterflyEngine(guard).run(partition_fixed(program, h))
    return guard


class TestTransferFunctions:
    def test_value_mapping(self):
        dst, v = _value_of(Instr.taint(3))
        assert dst == 3 and v is BOT
        dst, v = _value_of(Instr.untaint(3))
        assert dst == 3 and v is TOP
        dst, v = _value_of(Instr.write(3))
        assert v is TOP
        dst, v = _value_of(Instr.assign(1, 2, 3))
        assert v == (2, 3)
        assert _value_of(Instr.read(1)) is None
        assert _value_of(Instr.nop()) is None

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ButterflyTaintCheck(mode="weird")


class TestSingleThread:
    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_direct_taint_jump(self, mode):
        prog = TraceProgram.from_lists(
            [Instr.taint(1), Instr.jump(1)]
        )
        guard = run_guard(prog, 2, mode=mode)
        assert [r.kind for r in guard.errors] == [ErrorKind.TAINTED_JUMP]

    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_propagation_chain(self, mode):
        prog = TraceProgram.from_lists(
            [Instr.taint(1), Instr.assign(2, 1), Instr.assign(3, 2),
             Instr.jump(3)]
        )
        guard = run_guard(prog, 4, mode=mode)
        assert len(guard.errors) == 1

    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_untaint_blocks_chain(self, mode):
        prog = TraceProgram.from_lists(
            [Instr.taint(1), Instr.untaint(1), Instr.assign(2, 1),
             Instr.jump(2)]
        )
        guard = run_guard(prog, 4, mode=mode)
        assert len(guard.errors) == 0

    def test_taint_across_epochs_via_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.taint(1)] + [Instr.nop()] * 6 + [Instr.jump(1)]
        )
        guard = run_guard(prog, 2)
        assert len(guard.errors) == 1

    def test_untaint_across_epochs_via_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.taint(1), Instr.untaint(1)] + [Instr.nop()] * 6
            + [Instr.jump(1)]
        )
        guard = run_guard(prog, 2)
        assert len(guard.errors) == 0


class TestCrossThread:
    def test_concurrent_taint_is_conservatively_flagged(self):
        # Thread 0 jumps on x while thread 1 may concurrently taint it:
        # some valid ordering taints first, so the jump is flagged.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.jump(4)],
            [Instr.taint(4), Instr.nop()],
        )
        guard = run_guard(prog, 1)
        assert len(guard.errors) == 1

    def test_cross_thread_inheritance_through_wings(self):
        # Thread 1 copies tainted y into x; thread 0 jumps on x in an
        # adjacent epoch.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.nop(), Instr.jump(5)],
            [Instr.taint(6), Instr.assign(5, 6), Instr.nop()],
        )
        guard = run_guard(prog, 1)
        assert len(guard.errors) == 1

    def test_strictly_earlier_untaint_not_flagged(self):
        # Taint is removed two epochs before the jump, in the same
        # thread, with no other writers: no flag.
        prog = TraceProgram.from_lists(
            [Instr.taint(3), Instr.untaint(3), Instr.nop(), Instr.nop(),
             Instr.nop(), Instr.nop(), Instr.jump(3)],
        )
        guard = run_guard(prog, 2)
        assert len(guard.errors) == 0

    def test_own_local_untaint_shields_jump(self):
        # Thread 0 untaints x right before its jump; no wings write x.
        prog = TraceProgram.from_lists(
            [Instr.untaint(3), Instr.jump(3)],
            [Instr.nop(), Instr.nop()],
        )
        guard = run_guard(prog, 2)
        assert len(guard.errors) == 0

    def test_wing_taint_can_override_local_untaint(self):
        # Thread 0 untaints x then jumps, but thread 1 may re-taint it
        # concurrently: flagged.
        prog = TraceProgram.from_lists(
            [Instr.untaint(3), Instr.jump(3)],
            [Instr.taint(3), Instr.nop()],
        )
        guard = run_guard(prog, 2)
        assert len(guard.errors) == 1


class TestTwoPhaseResolution:
    def test_impossible_epoch_ordering_not_tainted(self):
        """The 'Reducing False Positives' example of Section 6.2: a
        chain whose taint source lies two epochs *after* the inheriting
        rule cannot fire (epoch 1 commits before epoch 3)."""
        # Thread 1: b <- r in epoch 0; thread 2: r <- taint in epoch 2;
        # thread 0 resolves a <- b in epoch 1.  The taint of r cannot
        # have flowed into b.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.assign(1, 2), Instr.nop(), Instr.jump(1)],
            [Instr.assign(2, 3), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.nop(), Instr.taint(3), Instr.nop()],
        )
        guard = run_guard(prog, 1)
        # a inherits from b which inherits from r, but r's taint is in
        # epoch 2 while the b<-r rule is in epoch 0: phases keep them
        # apart, and the jump at epoch 3 sees a's last check...
        # The chain requires epoch-2 taint to reach an epoch-0 rule:
        # impossible, so no flag.
        assert len(guard.errors) == 0

    def test_legal_two_epoch_chain_is_flagged(self):
        # Same shape but the taint happens in the adjacent epoch:
        # possible interleaving, must flag.
        prog = TraceProgram.from_lists(
            [Instr.nop(), Instr.assign(1, 2), Instr.nop(), Instr.jump(1)],
            [Instr.assign(2, 3), Instr.nop(), Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.taint(3), Instr.nop(), Instr.nop()],
        )
        guard = run_guard(prog, 1)
        assert len(guard.errors) == 1


class TestSCvsRelaxed:
    def test_relaxed_flags_zigzag_sc_does_not(self):
        """Figure 2's taint zig-zag: c tainted, a := c and b := a in
        one thread, concurrently observed.  Under SC within the window,
        b := a cannot see a value a received *later* in program order;
        under relaxed models it can (the paper's example (2),(i),(1))."""
        # Thread 0: b := a ; a := c   (program order!)
        # Thread 1: taint c
        # Jump on b afterwards from thread 1's epoch-adjacent block.
        prog = TraceProgram.from_lists(
            [Instr.assign(11, 10), Instr.assign(10, 12)],
            [Instr.taint(12), Instr.jump(11)],
        )
        relaxed = run_guard(prog, 2, mode="relaxed")
        sc = run_guard(prog, 2, mode="sc")
        assert len(relaxed.errors) == 1
        assert len(sc.errors) == 0

    def test_sc_budget_exhaustion_is_conservative(self):
        # White-box: an exhausted search budget must resolve in the
        # conservative direction (assume tainted, never untainted).
        from repro.lifeguards.taintcheck import TaintSummary, _RuleGraph

        guard = ButterflyTaintCheck(mode="sc", max_steps=0)
        body = TaintSummary(block_id=(0, 0))
        graph = _RuleGraph([], body, guard)
        graph._budget[0] = 0
        assert graph._search_sc(99, {}, frozenset())


class TestLastCheckAndSOS:
    def test_lastcheck_populated(self):
        prog = TraceProgram.from_lists(
            [Instr.taint(1), Instr.untaint(2), Instr.nop()]
        )
        guard = run_guard(prog, 3)
        summary = guard.summaries[(0, 0)]
        assert summary.lastcheck[1] is BOT
        assert summary.lastcheck[2] is TOP

    def test_sos_tracks_tainted_addresses(self):
        prog = TraceProgram.from_lists(
            [Instr.taint(1), Instr.nop(), Instr.nop(), Instr.nop()]
        )
        guard = run_guard(prog, 1)
        assert 1 in guard.sos.get(2)

    def test_sos_kill_requires_all_threads_clean(self):
        # Thread 0 untaints x while thread 1 re-taints it in the same
        # epoch: x must stay in the SOS (conservative).
        prog = TraceProgram.from_lists(
            [Instr.taint(9), Instr.nop(), Instr.untaint(9), Instr.nop(),
             Instr.nop(), Instr.nop()],
            [Instr.nop(), Instr.nop(), Instr.taint(9), Instr.nop(),
             Instr.nop(), Instr.nop()],
        )
        guard = run_guard(prog, 2)
        assert 9 in guard.sos.get(guard.sos.frontier)

    def test_unanimous_untaint_clears_sos(self):
        prog = TraceProgram.from_lists(
            [Instr.taint(9), Instr.nop(), Instr.untaint(9), Instr.nop(),
             Instr.nop(), Instr.nop(), Instr.nop(), Instr.nop()],
        )
        guard = run_guard(prog, 2)
        assert 9 not in guard.sos.get(guard.sos.frontier)
