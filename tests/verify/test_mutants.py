"""Mutant drills: the fuzzer must catch a deliberately reverted bugfix.

A fuzzer that has never failed proves nothing.  These tests revert one
shipped bugfix (or plant a known-unsound optimization) via
``repro.verify.mutants`` and assert the campaign finds the bug *and*
shrinks it to a tiny repro -- the subsystem's acceptance drill.
"""

import os

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.trace.events import Instr
from repro.trace.program import TraceProgram
from repro.verify import (
    AdversarialCaseGenerator,
    DifferentialHarness,
    apply_mutant,
    load_repro,
    run_fuzz,
)


def assert_replays_only_under(mutant, artifact):
    """The artifact agrees on the shipped code and still disagrees with
    the mutant active -- by the mode name it was written under."""
    case, mode, _ = load_repro(artifact)
    with DifferentialHarness() as harness:
        assert harness.check(case, mode) is None
        with apply_mutant(mutant):
            assert harness.check(case, mode) is not None


def assert_found_and_shrunk(report, mode, mutant):
    assert not report.ok
    finding = report.findings[0]
    assert finding.mode == mode
    # The acceptance bar: the shrunk repro is tiny.
    assert finding.shrunk_instructions <= 8
    assert_replays_only_under(mutant, finding.artifact)


class TestResumeReplayMutant:
    """Reverting the resume event-log dedup fix must be caught."""

    def test_fuzzer_finds_and_shrinks_the_reverted_bugfix(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=4,
            failures_dir=str(tmp_path),
            mutant="resume-replay",
        )
        assert not report.ok
        finding = report.findings[0]
        assert finding.mode == "resume"
        # The acceptance bar: the shrunk repro is tiny.
        assert finding.shrunk_instructions <= 8
        assert os.path.exists(finding.artifact)
        case, mode, detail = load_repro(finding.artifact)
        assert mode == "resume"
        assert "run.attach" in detail or "event log" in detail

    def test_artifact_replays_the_disagreement_under_the_mutant(
        self, tmp_path
    ):
        report = run_fuzz(
            seed=4,
            trials=2,
            failures_dir=str(tmp_path),
            mutant="resume-replay",
        )
        assert_replays_only_under(
            "resume-replay", report.findings[0].artifact
        )


class TestNarrowWindowMutant:
    """Stripping future wings violates zero-false-negatives; the
    all-orderings oracle must notice."""

    def test_orderings_oracle_catches_the_narrowed_window(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("orderings",),
            failures_dir=str(tmp_path),
            mutant="narrow-window",
        )
        assert not report.ok
        finding = report.findings[0]
        assert finding.mode == "orderings"
        assert finding.shrunk_instructions <= 8
        assert "missed an error" in finding.detail


class TestStaleOverlayMutant:
    """An LSOS view that forgets its ``removed`` overlay (a freed
    location still reads as allocated): the reference first pass asks
    the view through ``__contains__`` after every change, so ``optref``
    must see it.  The columnar kernel asks once per changed location,
    before its first change, and its drill is ``segment-carry``."""

    @pytest.mark.parametrize("mode", ["optref"])
    def test_mode_catches_the_forgotten_free(self, mode, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=(mode,),
            failures_dir=str(tmp_path),
            mutant="stale-overlay",
        )
        assert_found_and_shrunk(report, mode, "stale-overlay")

    def test_an_artifact_the_previous_harness_wrote_replays_by_mode_name(
        self
    ):
        # Written by the commit before the harness was rebuilt around
        # axes (format version 1, diagnosis in that harness's wording).
        artifact = os.path.join(
            os.path.dirname(__file__), "data", "optref-seed4-trial0.json"
        )
        _, mode, detail = load_repro(artifact)
        assert mode == "optref" and detail.startswith("optimized AddrCheck")
        assert_replays_only_under("stale-overlay", artifact)


class TestThreadBleedMutant:
    """The row axis of the columnar kernel: every block of a grouped
    scan patched with the first block's overlay, so a thread whose head
    freed (or allocated) a location reads its neighbour's state."""

    def test_columnar_catches_the_shared_overlay(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("columnar",),
            failures_dir=str(tmp_path),
            mutant="thread-bleed",
        )
        assert_found_and_shrunk(report, "columnar", "thread-bleed")
        case, _, _ = load_repro(report.findings[0].artifact)
        assert len(case.threads) == 2


class TestSegmentCarryMutant:
    """The scan axis of the columnar kernel: its segmented scan tells
    runs apart by location alone, so a block starts a location its row
    neighbour also changed from the neighbour's last change, not from
    its own LSOS."""

    def test_columnar_catches_the_carried_state(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("columnar",),
            failures_dir=str(tmp_path),
            mutant="segment-carry",
        )
        assert_found_and_shrunk(report, "columnar", "segment-carry")
        case, _, _ = load_repro(report.findings[0].artifact)
        assert len(case.threads) == 2


class TestProbeEdgeMutant:
    """The isolation check's sorted probe into a body's footprint
    misses the last location, so an access racing a wing's change at
    the body's highest location is lost.  Both kernels' summaries are
    probed alike; the reference lifeguard's sets are not."""

    def test_optref_catches_the_missed_last_location(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("optref",),
            failures_dir=str(tmp_path),
            mutant="probe-edge",
        )
        assert_found_and_shrunk(report, "optref", "probe-edge")
        assert "unsafe-isolation" in report.findings[0].detail


class TestRaceFirstWriteMutant:
    """The columnar race scan blames a conflict on a location's last
    write in the body, not its first: only the ``columnar`` pair runs
    RaceCheck's two kernels side by side."""

    def test_columnar_catches_the_late_first_write(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("columnar",),
            failures_dir=str(tmp_path),
            mutant="race-first-write",
        )
        assert_found_and_shrunk(report, "columnar", "race-first-write")
        case, _, _ = load_repro(report.findings[0].artifact)
        assert case.lifeguard == "race"


class TestTaintSegmentCutMutant:
    """TaintCheck's row scan hands each block's first run and first jump
    to the block before it: only the ``columnar`` pair runs the grouped
    scan beside the per-``Instr`` one."""

    def test_columnar_catches_the_late_cut(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("columnar",),
            failures_dir=str(tmp_path),
            mutant="taint-segment-cut",
        )
        assert_found_and_shrunk(report, "columnar", "taint-segment-cut")
        case, _, _ = load_repro(report.findings[0].artifact)
        assert case.lifeguard == "taintcheck"


class TestReversedCommitMutant:
    """The executor axis: fanned-out scans committed last thread first
    leave the error and event logs in another order than the serial
    schedule's."""

    def test_backends_catches_the_reordered_commit(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("backends",),
            failures_dir=str(tmp_path),
            mutant="reversed-commit",
        )
        assert_found_and_shrunk(report, "backends", "reversed-commit")


class TestLossyDecodeMutant:
    """The delivery axis: a decoder that drops MALLOC/FREE sizes is
    wrong on the file and on the wire, and right nowhere else."""

    @pytest.mark.parametrize("mode", ["stream", "serve"])
    def test_mode_catches_the_dropped_size(self, mode, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=(mode,),
            failures_dir=str(tmp_path),
            mutant="lossy-decode",
        )
        assert_found_and_shrunk(report, mode, "lossy-decode")


#: Both TaintCheck second passes: the epoch pass (the columnar kernel's
#: lifeguard) and the per-body loop (the per-``Instr`` kernel's).
KERNELS = ({}, {"use_columnar_kernel": False})


class TestNarrowWindowTaintCheck:
    """TaintCheck resolves against the wings the engine hands it
    (``side_in``), not against its own record of what was scanned: a
    rule source that bypasses ``side_in`` would make ``narrow-window``
    invisible to this lifeguard.  No campaign, no seed -- one trace,
    through both second passes."""

    # Thread 0 jumps through 5 in epoch 0; only thread 1's epoch-1
    # block -- the body's l+1 wing -- taints it.  Adjacent epochs
    # interleave, so the taint may land first.
    PROGRAM = TraceProgram.from_lists(
        [Instr.jump(5), Instr.nop()],
        [Instr.nop(), Instr.taint(5)],
    )

    def flags(self, **kwargs):
        guard = ButterflyTaintCheck(**kwargs)
        ButterflyEngine(guard).run(partition_fixed(self.PROGRAM, 1))
        return [(e.kind.value, e.location, e.ref) for e in guard.errors]

    @pytest.mark.parametrize("two_phase", [True, False])
    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_stripping_the_future_wing_loses_the_flag(self, mode, two_phase):
        for kernel in KERNELS:
            config = dict(mode=mode, two_phase=two_phase, **kernel)
            clean = self.flags(**config)
            assert clean == [("tainted-jump", 5, (0, 0))], kernel
            with apply_mutant("narrow-window"):
                assert self.flags(**config) == [], kernel
            assert self.flags(**config) == clean


class TestBlindWholesaleMutant:
    """TaintCheck's second pass answers a check wholesale from the LSOS
    only when no rule of the window writes the location; a split that
    calls everything untouched drops every taint the window carries."""

    def test_orderings_oracle_catches_the_blind_split(self, tmp_path):
        report = run_fuzz(
            seed=4,
            trials=30,
            modes=("orderings",),
            failures_dir=str(tmp_path),
            mutant="blind-wholesale",
        )
        assert_found_and_shrunk(report, "orderings", "blind-wholesale")
        assert "missed an error" in report.findings[0].detail

    @pytest.mark.parametrize("two_phase", [True, False])
    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    def test_the_wing_taint_is_lost_on_one_hand_trace(self, mode, two_phase):
        # The two-epoch trace above: only the l+1 wing writes 5, and the
        # LSOS knows nothing about it.  No campaign, no seed.
        flags = TestNarrowWindowTaintCheck().flags
        for kernel in KERNELS:
            config = dict(mode=mode, two_phase=two_phase, **kernel)
            clean = flags(**config)
            assert clean == [("tainted-jump", 5, (0, 0))], kernel
            with apply_mutant("blind-wholesale"):
                assert flags(**config) == [], kernel
            assert flags(**config) == clean


class TestRegistry:
    def test_unknown_mutant_rejected(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            apply_mutant("no-such-mutant")

    def test_mutants_restore_patched_attributes(self):
        bind = ButterflyEngine._bind
        restore = ButterflyEngine.restore_state
        with apply_mutant("resume-replay"):
            assert ButterflyEngine._bind is not bind
            assert ButterflyEngine.restore_state is not restore
        assert ButterflyEngine._bind is bind
        assert ButterflyEngine.restore_state is restore

    def test_clean_code_passes_the_mutant_free_campaign(self, tmp_path):
        gen = AdversarialCaseGenerator(4)
        with DifferentialHarness() as harness:
            for i in range(6):
                assert harness.run_case(gen.case(i)) == []
