"""Tests for the TaintCheck-oriented secure-server workload."""

import pytest

from repro.core.epoch import partition_by_global_order
from repro.core.framework import ButterflyEngine
from repro.errors import WorkloadError
from repro.lifeguards.sequential import SequentialTaintCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.workloads.server import SecureServer


def truth_errors(program):
    guard = SequentialTaintCheck()
    guard.run_order(program)
    return {(r.ref, r.location) for r in guard.errors}


def butterfly_flags(program, h, mode="relaxed"):
    guard = ButterflyTaintCheck(mode=mode)
    ButterflyEngine(guard).run(partition_by_global_order(program, h))
    return {(r.ref, r.location) for r in guard.errors}


class TestCleanServer:
    def test_recorded_run_is_exploit_free(self):
        prog = SecureServer().generate(4, 8000, seed=3)
        assert not truth_errors(prog)

    def test_small_epochs_silent(self):
        prog = SecureServer().generate(4, 8000, seed=3)
        assert not butterfly_flags(prog, 256)

    def test_large_epochs_flag_sanitization_races(self):
        prog = SecureServer().generate(4, 8000, seed=3)
        flags = butterfly_flags(prog, 4096)
        assert flags  # the taint sits in the wings of the use

    def test_fp_rate_monotone_in_epoch_size(self):
        prog = SecureServer().generate(3, 8000, seed=5)
        counts = [
            len(butterfly_flags(prog, h)) for h in (256, 1024, 4096)
        ]
        assert counts == sorted(counts)


class TestAttackedServer:
    def test_attacks_are_true_errors(self):
        prog = SecureServer(attack_rate=0.5).generate(3, 8000, seed=7)
        truth = truth_errors(prog)
        assert truth

    @pytest.mark.parametrize("mode", ["relaxed", "sc"])
    @pytest.mark.parametrize("h", [256, 2048])
    def test_zero_false_negatives(self, mode, h):
        prog = SecureServer(attack_rate=0.4).generate(3, 8000, seed=9)
        truth = truth_errors(prog)
        flags = butterfly_flags(prog, h, mode=mode)
        missing = truth - flags
        assert not missing, missing

    def test_needs_two_threads(self):
        with pytest.raises(WorkloadError):
            SecureServer().generate(1, 1000)
