"""A run killed at any epoch boundary resumes exactly.

A checkpoint holds no block's events and leaves the newest received
analysis epoch out, so a resumed run re-feeds that epoch's rows and
re-runs its step 1.  The re-run must be quiet -- no counter, no event,
no flag the checkpoint does not already hold -- and the engine checks
the last of these rather than assuming it."""

import json
import os
import pathlib

import pytest

from repro.core.epoch import EpochController, SloConfig
from repro.core.framework import ButterflyEngine
from repro.errors import AnalysisError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import ErrorKind
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.obs import Recorder
from repro.obs.recorder import normalize_events
from repro.resilience import Checkpointer, load_checkpoint
from repro.serve.protocol import (
    FRAME_REPORT,
    HEADER_SIZE,
    build_report,
    decode_header,
    decode_json_payload,
    make_hello,
    resume_token,
)
from repro.serve.shards import SHARD_BACKENDS
from repro.trace.generator import ColumnarAllocSource, ColumnarTaintSource

from tests.serve.conftest import write_trace
from tests.serve.test_durability import trace_lines
from tests.serve.test_resume import wait_for_empty

META = {"benchmark": "kill-points"}
#: Two producer rows to every analysis epoch: adaptive, and repeatable.
FOLD2 = SloConfig(min_fold=2, max_fold=2)
ROWS = 8


def _source(lifeguard):
    if lifeguard == "taintcheck":
        return ColumnarTaintSource(
            5, num_threads=3, num_epochs=ROWS, events_per_block=96,
            num_locations=24, taint_period=4, error_rate=0.2,
        )
    return ColumnarAllocSource(
        3, num_threads=3, num_epochs=ROWS, events_per_block=96,
        num_locations=40, change_period=12, error_rate=0.02,
    )


def _guard(lifeguard, source):
    if lifeguard == "taintcheck":
        return ButterflyTaintCheck()
    return ButterflyAddrCheck(source.preallocated)


def _engine(guard, slo, recorder):
    controller = EpochController(slo, 4) if slo is not None else None
    return ButterflyEngine(guard, controller=controller, recorder=recorder)


def _outcome(engine, guard, lifeguard):
    hello = make_hello("k", 3, ROWS, [], lifeguard)
    return json.loads(json.dumps(build_report("k", hello, engine, guard)))


@pytest.mark.parametrize("slo", [None, FOLD2], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("lifeguard", ["addrcheck", "taintcheck"])
def test_every_kill_point_resumes_exactly(tmp_path, lifeguard, slo):
    """The report -- flags, ``EngineStats``, ``window_high_water``,
    boundaries -- and the event log stitched at the checkpoint equal
    the uninterrupted run's, whichever row the run was killed after."""
    source = _source(lifeguard)
    rows = list(source.epochs())
    guard = _guard(lifeguard, source)
    recorder = Recorder()
    engine = _engine(guard, slo, recorder)
    engine.attach_source(source)
    for lid, row in enumerate(rows):
        engine.feed_blocks(lid, row)
    engine.finish()
    reference = _outcome(engine, guard, lifeguard)
    assert reference["errors"]
    reference_log = normalize_events(recorder.events)

    resumed_from = set()
    for killed_after in range(1, ROWS + 1):
        path = str(tmp_path / f"k{killed_after}.ckpt")
        recorder = Recorder()
        engine = _engine(_guard(lifeguard, source), slo, recorder)
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach_source(source)
        for lid in range(killed_after):
            engine.feed_blocks(lid, rows[lid])
        if not os.path.exists(path):
            continue  # killed before the first commit: a fresh rerun
        ck = load_checkpoint(path)
        prefix = [e for e in recorder.events if e["seq"] <= ck.events_emitted]
        resumed_from.add(ck.next_epoch)

        recorder = Recorder()
        engine = _engine(ck.analysis, slo, recorder)
        engine.attach_source(source, ck)
        for lid in range(ck.next_epoch, ROWS):
            engine.feed_blocks(lid, rows[lid])
        engine.finish()
        where = f"killed after row {killed_after - 1}"
        assert _outcome(engine, ck.analysis, lifeguard) == reference, where
        assert (
            normalize_events(prefix + recorder.events) == reference_log
        ), where
    # Each analysis epoch's first row is a resume point.
    step = 1 if slo is None else 2
    assert resumed_from == set(range(step, ROWS, step))


class _LoudOnReplay(ButterflyAddrCheck):
    """AddrCheck whose step 1 raises one flag of its own, but only while
    the engine re-runs it.  Module-level so a checkpoint pickles it."""

    def commit_scan(self, block, scan):
        if self.replaying:
            self.errors.record(
                ErrorKind.ACCESS_UNALLOCATED, -1, ref=block.global_ref(0),
                detail="raised by the re-run alone",
            )
        return super().commit_scan(block, scan)


def test_a_re_run_that_raises_a_new_flag_is_an_analysis_error(tmp_path):
    source = _source("addrcheck")
    rows = list(source.epochs())
    path = str(tmp_path / "loud.ckpt")
    engine = ButterflyEngine(_LoudOnReplay(source.preallocated))
    engine.enable_checkpoints(Checkpointer(path, META))
    engine.attach_source(source)
    for lid in range(4):
        engine.feed_blocks(lid, rows[lid])
    ck = load_checkpoint(path)
    assert ck.next_epoch == 3
    resumed = ButterflyEngine(ck.analysis)
    resumed.attach_source(source, ck)
    with pytest.raises(
        AnalysisError, match="re-running step 1 raised 3 flag"
    ):
        resumed.feed_blocks(3, rows[3])
    with pytest.raises(AnalysisError):
        resumed.feed_blocks(4, rows[4])  # the engine failed


@pytest.mark.parametrize("slo", [None, FOLD2], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("backend", sorted(SHARD_BACKENDS))
def test_every_kill_point_resumes_exactly_on_a_shard(tmp_path, backend, slo):
    """The daemon's path: a stream killed after any row -- its newest
    snapshot made durable by a forced save, or dropped before its
    commit -- reopens from its checkpoint and reports what the
    uninterrupted stream reports."""
    trace = tmp_path / "trace.stream.jsonl"
    partition = write_trace(trace, threads=2, events=240, h=8, seed=3)
    lines = trace_lines(trace)
    hello = make_hello(
        "s", 2, len(lines), partition.program.preallocated, "addrcheck"
    )
    token = resume_token(hello)
    shard = SHARD_BACKENDS[backend](0)

    def call(*args):
        return shard._call(*args)

    def run(ckdir, start, stop):
        os.makedirs(ckdir, exist_ok=True)
        resume = call("open", token, hello, ckdir, 1, "serial", slo, 4)
        assert resume <= start
        for lid in range(resume, stop):
            call("feed", token, lid, lines[lid].encode(), 0)
        return resume

    def finish():
        call("finish", token)
        frame, flags = call("report", token, "s", hello)
        call("close", token, True)
        ftype, length = decode_header(frame[:HEADER_SIZE])
        report = decode_json_payload(ftype, frame[HEADER_SIZE:])
        assert ftype == FRAME_REPORT and length == len(frame) - HEADER_SIZE
        assert flags == len(report["errors"])
        return report

    try:
        run(str(tmp_path / "reference"), 0, len(lines))
        reference = finish()
        assert reference["errors"]
        for killed_after in range(1, len(lines) + 1):
            for forced in (False, True):
                ckdir = str(tmp_path / f"k{killed_after}-{forced}")
                run(ckdir, 0, killed_after)
                if forced:
                    position = call("checkpoint", token)
                # Reopening the token drops the old engine and its
                # uncommitted snapshot: a kill.
                resume = run(ckdir, killed_after, len(lines))
                if forced:
                    assert resume == position
                where = f"killed after row {killed_after - 1}"
                assert finish() == reference, where
                # The writer removes a finished stream's checkpoint.
                wait_for_empty(pathlib.Path(ckdir))
    finally:
        shard.shutdown()
