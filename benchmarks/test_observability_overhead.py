"""Observability is off by default and read-only when on.

The recorder defaults to :data:`repro.obs.NULL_RECORDER` everywhere,
and instrumented hot paths branch on ``recorder.enabled`` at epoch or
batch granularity.  What that default costs is measured end to end:
every ``benchmarks/e2e`` workload runs with the recorder off, so the
regression bound on ``cols_addr_small_h`` (per-block overhead
dominates there) gates the disabled path, and the per-layer
``obs.recorder_on_ratio`` reports the cost of switching it on.  The
tests here pin the two correctness properties those numbers rest on.
"""

from repro.core.framework import ButterflyEngine
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.obs import NULL_RECORDER, Recorder


def test_null_recorder_is_the_default(core_partition):
    engine = ButterflyEngine(ButterflyAddrCheck())
    assert engine.recorder is NULL_RECORDER
    assert not engine.recorder.enabled


def test_enabled_recorder_changes_no_results(core_partition):
    """Observability must be read-only: error logs and engine stats are
    identical with the recorder on and off."""
    off = ButterflyAddrCheck()
    with ButterflyEngine(off) as engine:
        stats_off = engine.run(core_partition)
    on = ButterflyAddrCheck()
    with ButterflyEngine(on, recorder=Recorder()) as engine:
        stats_on = engine.run(core_partition)
    assert len(on.errors) == len(off.errors)
    assert stats_on.first_pass_instructions == stats_off.first_pass_instructions
    assert stats_on.meets == stats_off.meets
