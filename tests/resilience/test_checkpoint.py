"""Tests for epoch-boundary checkpoint/resume."""

import copyreg
import errno
import gc
import os
import pickle
import random
import sys
import threading

import pytest

from repro.core.dataflow import BlockFacts
from repro.core.epoch import (
    EpochController,
    SloConfig,
    partition_auto,
    partition_by_global_order,
    partition_fixed,
)
from repro.core.framework import ButterflyEngine
from repro.core.state import LocationRuns, SOSHistory
from repro.core.stream import EpochSource
from repro.errors import CheckpointError
from repro.core.columnar import SortedFirstAccess
from repro.lifeguards.addrcheck import AddrSummary, ButterflyAddrCheck
from repro.lifeguards.reports import ErrorKind, ErrorLog
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.obs import Recorder
from repro.obs.recorder import normalize_events
from repro.resilience import (
    Checkpointer,
    checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import (
    CheckpointWriter,
    commit_snapshot,
    discard_temps,
    write_snapshot,
)
from repro.trace.events import Instr
from repro.trace.generator import (
    ColumnarAllocSource,
    ColumnarTaintSource,
    simulated_alloc_program,
)
from repro.trace.program import TraceProgram
from repro.trace.serialize import iter_load, save_stream_file


def _program(seed=5, threads=3, events=120):
    return simulated_alloc_program(
        random.Random(seed),
        num_threads=threads,
        total_events=events,
        num_locations=8,
        inject_error_rate=0.2,
    )


def churn_partition():
    """A run whose SOS has both lost preallocated locations (FREEd) and
    gained new ones (MALLOCed) by epoch 3: half of its 8 locations start
    allocated.  Its flags include the double MALLOCs that start makes."""
    program = simulated_alloc_program(
        random.Random(2), num_threads=2, total_events=300, num_locations=8
    )
    program = TraceProgram(program.threads, preallocated=frozenset(range(4)))
    return partition_auto(program, 8)


def _fingerprint(guard, stats):
    return (
        (
            stats.epochs_processed,
            stats.first_pass_instructions,
            stats.second_pass_instructions,
            stats.meets,
            stats.wing_summaries_combined,
        ),
        [(r.kind, r.location, r.ref, r.block, r.detail) for r in guard.errors],
        (guard.sos.published(), guard.sos.frontier),
    )


def _run_uninterrupted(part):
    guard = ButterflyAddrCheck()
    stats = ButterflyEngine(guard).run(part)
    return _fingerprint(guard, stats)


META = {"benchmark": "X", "epoch_size": 8, "seed": 5}


#: A two-byte string that is not UTF-8: ``pickle.load`` raises
#: ``UnicodeDecodeError`` -- not one of pickle's own error types.
DAMAGED_PICKLE = b"\x80\x04\x8c\x02\xff\xfe."


def _rewrite(path, edit):
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    edit(payload)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def stamp_version(path, version):
    """Rewrite a checkpoint file's format version in place (what a file
    left behind by another build looks like to this one)."""
    _rewrite(path, lambda payload: payload.update(version=version))


def stamp_position(path, rows):
    """Rewrite a checkpoint's resume position in place: a damaged file
    that still loads."""
    _rewrite(path, lambda payload: payload["engine"].update(rows_folded=rows))


class TestSaveLoadRoundtrip:
    def test_resume_matches_uninterrupted(self, tmp_path):
        part = partition_by_global_order(_program(), 8)
        reference = _run_uninterrupted(part)
        path = str(tmp_path / "run.ckpt")

        # Kill the run after feeding epoch 2 (checkpoint covers epoch 1).
        guard = ButterflyAddrCheck()
        engine = ButterflyEngine(guard)
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach(part)
        for lid in range(3):
            engine.feed_epoch(lid)

        ck = load_checkpoint(path)
        assert ck.meta == META
        assert ck.next_epoch == 3
        resumed = ButterflyEngine(ck.analysis)
        resumed.attach(part, ck)
        for lid in range(ck.next_epoch, part.num_epochs):
            resumed.feed_epoch(lid)
        resumed.finish()
        assert _fingerprint(ck.analysis, resumed.stats) == reference

    def test_resume_from_every_boundary(self, tmp_path):
        """Killing at ANY epoch boundary resumes bit-identically."""
        part = partition_by_global_order(_program(events=80), 6)
        reference = _run_uninterrupted(part)
        # Feeding only epoch 0 commits nothing (no checkpoint yet), so
        # the earliest killable boundary is after feeding two epochs.
        for stop_after in range(2, part.num_epochs):
            path = str(tmp_path / f"b{stop_after}.ckpt")
            engine = ButterflyEngine(ButterflyAddrCheck())
            engine.enable_checkpoints(Checkpointer(path, META))
            engine.attach(part)
            for lid in range(stop_after):
                engine.feed_epoch(lid)
            ck = load_checkpoint(path)
            resumed = ButterflyEngine(ck.analysis)
            resumed.attach(part, ck)
            for lid in range(ck.next_epoch, part.num_epochs):
                resumed.feed_epoch(lid)
            resumed.finish()
            assert (
                _fingerprint(ck.analysis, resumed.stats) == reference
            ), f"diverged when killed after epoch {stop_after - 1}"

    def test_checkpoint_strips_live_recorder(self, tmp_path):
        # A live recorder (open file sink) must not poison the pickle,
        # and must still be attached after the save.
        part = partition_by_global_order(_program(events=60), 8)
        rec = Recorder()
        guard = ButterflyAddrCheck()
        engine = ButterflyEngine(guard, recorder=rec)
        path = str(tmp_path / "rec.ckpt")
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach(part)
        for lid in range(part.num_epochs):
            engine.feed_epoch(lid)
        engine.finish()
        assert guard.recorder is rec
        ck = load_checkpoint(path)
        # The restored analysis fell back to the class default.
        assert "recorder" not in ck.analysis.__dict__
        assert rec.counters["resilience.checkpoints"] >= 1
        assert any(
            ev["ev"] == "resilience.checkpoint" for ev in rec.events
        )


class TestStreamedResume:
    """Checkpoint/resume over a streamed feed: the checkpoint carries
    the block window, so a resume never needs the materialized trace.

    References are themselves streamed runs: streamed mode bounds the
    SOS history, so its retained-state fingerprint differs (by design)
    from a materialized run's full history even though every error,
    stat, and frontier state is identical.
    """

    def _run_uninterrupted_streamed(self, part):
        from repro.core.stream import PartitionSource

        guard = ButterflyAddrCheck()
        stats = ButterflyEngine(guard).run_source(PartitionSource(part))
        return _fingerprint(guard, stats)

    def _feed_stream(self, engine, source, start, stop_after=None):
        rows = source.epochs(start=start)
        try:
            for lid, row in enumerate(rows, start=start):
                if stop_after is not None and lid >= stop_after:
                    return
                engine.feed_blocks(lid, row)
        finally:
            close = getattr(rows, "close", None)
            if close is not None:
                close()
        engine.finish()

    def test_streamed_resume_matches_uninterrupted(self, tmp_path):
        from repro.core.stream import PartitionSource

        part = partition_by_global_order(_program(), 8)
        reference = self._run_uninterrupted_streamed(part)
        path = str(tmp_path / "stream.ckpt")

        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach_source(PartitionSource(part))
        self._feed_stream(engine, PartitionSource(part), 0, stop_after=3)

        ck = load_checkpoint(path)
        assert ck.next_epoch == 3
        resumed = ButterflyEngine(ck.analysis)
        resumed.attach_source(PartitionSource(part), ck)
        self._feed_stream(resumed, PartitionSource(part), ck.next_epoch)
        assert _fingerprint(ck.analysis, resumed.stats) == reference

    def test_streamed_resume_seeks_a_trace_file(self, tmp_path):
        part = partition_by_global_order(_program(), 8)
        reference = self._run_uninterrupted_streamed(part)
        trace = str(tmp_path / "trace.stream.jsonl")
        save_stream_file(partition_by_global_order(_program(), 8), trace)
        path = str(tmp_path / "file.ckpt")

        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach_source(iter_load(trace))
        self._feed_stream(engine, iter_load(trace), 0, stop_after=3)

        ck = load_checkpoint(path)
        resumed = ButterflyEngine(ck.analysis)
        source = iter_load(trace)
        resumed.attach_source(source, ck)
        # The resume seeks the reader: epochs before the checkpoint are
        # skipped at the file layer, never decoded.
        self._feed_stream(resumed, source, ck.next_epoch)
        assert _fingerprint(ck.analysis, resumed.stats) == reference

    def test_legacy_checkpoint_refuses_stream_resume(self, tmp_path):
        # The state layout changed with version 2 (engine-owned
        # snapshot_state), version 3 (the SOS history as one live set
        # plus deltas), version 4 (summaries pickle their footprint
        # arrays), version 5 (TaintCheck summaries pickle rule columns),
        # version 6 (the analysis carries the one summary window),
        # version 7 (the SOS pickles as gains and losses on its initial
        # set) and version 8 (the error log pickles its report rows);
        # a file from any previous writer is refused up front instead of
        # being half-understood.
        from repro.core.stream import PartitionSource

        part = partition_by_global_order(_program(), 8)
        path = str(tmp_path / "legacy.ckpt")
        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach_source(PartitionSource(part))
        self._feed_stream(engine, PartitionSource(part), 0, stop_after=3)
        load_checkpoint(path)  # this build's own version loads
        for older in (1, 2, 3, 4, 5, 6, 7):
            stamp_version(path, older)
            with pytest.raises(
                CheckpointError,
                match=f"unsupported checkpoint version {older}",
            ):
                load_checkpoint(path)

    def test_streamed_stitched_log_equals_uninterrupted(self, tmp_path):
        from repro.core.stream import PartitionSource

        part = partition_by_global_order(_program(events=80), 8)
        ref_rec = Recorder()
        engine = ButterflyEngine(ButterflyAddrCheck(), recorder=ref_rec)
        engine.run_source(PartitionSource(part))
        reference = normalize_events(ref_rec.events)

        path = str(tmp_path / "slog.ckpt")
        stopped_rec = Recorder()
        engine = ButterflyEngine(ButterflyAddrCheck(), recorder=stopped_rec)
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach_source(PartitionSource(part))
        self._feed_stream(engine, PartitionSource(part), 0, stop_after=3)

        ck = load_checkpoint(path)
        prefix = [
            e for e in stopped_rec.events if e["seq"] <= ck.events_emitted
        ]
        resumed_rec = Recorder()
        resumed = ButterflyEngine(ck.analysis, recorder=resumed_rec)
        resumed.attach_source(PartitionSource(part), ck)
        self._feed_stream(resumed, PartitionSource(part), ck.next_epoch)
        assert normalize_events(prefix + resumed_rec.events) == reference


class TestResumeEventLog:
    """A resumed run's event log must be the exact suffix of the
    uninterrupted log: no duplicate ``run.attach``, no re-counted
    epochs for work completed before the kill."""

    def _uninterrupted(self, part):
        rec = Recorder()
        engine = ButterflyEngine(ButterflyAddrCheck(), recorder=rec)
        engine.attach(part)
        for lid in range(part.num_epochs):
            engine.feed_epoch(lid)
        engine.finish()
        return rec

    def _stitched(self, part, path, stop_after):
        """Kill after ``stop_after`` fed epochs, resume, and stitch
        checkpoint-prefix + resumed log."""
        stopped_rec = Recorder()
        engine = ButterflyEngine(ButterflyAddrCheck(), recorder=stopped_rec)
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach(part)
        for lid in range(stop_after):
            engine.feed_epoch(lid)

        ck = load_checkpoint(path)
        prefix = [
            e for e in stopped_rec.events if e["seq"] <= ck.events_emitted
        ]
        resumed_rec = Recorder()
        resumed = ButterflyEngine(ck.analysis, recorder=resumed_rec)
        resumed.attach(part, ck)
        for lid in range(ck.next_epoch, part.num_epochs):
            resumed.feed_epoch(lid)
        resumed.finish()
        return prefix + resumed_rec.events

    def test_stitched_log_equals_uninterrupted(self, tmp_path):
        part = partition_by_global_order(_program(events=80), 8)
        reference = normalize_events(self._uninterrupted(part).events)
        stitched = self._stitched(part, str(tmp_path / "log.ckpt"), 3)
        assert normalize_events(stitched) == reference

    def test_every_kill_boundary_stitches_identically(self, tmp_path):
        part = partition_by_global_order(_program(events=60), 6)
        reference = normalize_events(self._uninterrupted(part).events)
        for stop_after in range(2, part.num_epochs):
            stitched = self._stitched(
                part, str(tmp_path / f"log{stop_after}.ckpt"), stop_after
            )
            assert normalize_events(stitched) == reference, (
                f"event log diverged when killed after epoch "
                f"{stop_after - 1}"
            )

    def test_no_duplicate_run_attach(self, tmp_path):
        part = partition_by_global_order(_program(events=60), 8)
        stitched = self._stitched(part, str(tmp_path / "dup.ckpt"), 3)
        attaches = [e for e in stitched if e["ev"] == "run.attach"]
        assert len(attaches) == 1

    def test_checkpoint_records_events_emitted(self, tmp_path):
        part = partition_by_global_order(_program(events=60), 8)
        rec = Recorder()
        engine = ButterflyEngine(ButterflyAddrCheck(), recorder=rec)
        path = str(tmp_path / "seq.ckpt")
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.attach(part)
        for lid in range(3):
            engine.feed_epoch(lid)
        ck = load_checkpoint(path)
        assert 0 < ck.events_emitted <= rec.seq


class TestCheckpointerPolicy:
    def test_every_n_epochs(self, tmp_path):
        part = partition_by_global_order(_program(), 8)
        path = str(tmp_path / "every.ckpt")
        cp = Checkpointer(path, META, every=3)
        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.enable_checkpoints(cp)
        engine.run(part)
        # Epochs 2, 5, 8, ... -> one write per completed group of 3.
        assert cp.written == part.num_epochs // 3

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="interval"):
            Checkpointer(str(tmp_path / "x.ckpt"), every=0)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        part = partition_by_global_order(_program(events=60), 8)
        path = str(tmp_path / "atomic.ckpt")
        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.enable_checkpoints(Checkpointer(path, META))
        engine.run(part)
        assert os.path.exists(path)
        assert os.listdir(tmp_path) == ["atomic.ckpt"]


def _engine_at_epoch(epochs=3):
    engine = ButterflyEngine(ButterflyAddrCheck())
    engine.attach(partition_by_global_order(_program(), 8))
    for lid in range(epochs):
        engine.feed_epoch(lid)
    return engine


class TestTwoHalfSave:
    def test_file_is_one_pickle_of_the_record(self, tmp_path):
        """Pickling straight into the temp file changed nothing on
        disk: version 8, the same bytes as one ``pickle.dumps``."""
        engine = _engine_at_epoch()
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, engine, META)
        assert checkpoint.VERSION == 8
        expected = pickle.dumps(
            {
                "format": "repro-checkpoint",
                "version": 8,
                "meta": META,
                "engine": engine.snapshot_state(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with open(path, "rb") as fh:
            assert fh.read() == expected

    def test_a_snapshot_is_durable_only_once_committed(self, tmp_path):
        engine = _engine_at_epoch()
        path = str(tmp_path / "run.ckpt")
        tmp = write_snapshot(path, engine, META)
        assert os.path.dirname(tmp) == str(tmp_path)
        assert os.path.basename(tmp).startswith("run.ckpt.")
        assert tmp.endswith(".tmp")
        assert not os.path.exists(path)
        commit_snapshot(tmp, path)
        assert os.listdir(tmp_path) == ["run.ckpt"]
        assert load_checkpoint(path).next_epoch == engine.resume_position

    def test_discard_temps_removes_only_this_paths_temps(self, tmp_path):
        names = [
            "a.ckpt", "a.ckpt.tmp", "a.ckpt.123-4.tmp",
            "b.ckpt.123-4.tmp", "a.ckpt2.123-4.tmp",
        ]
        for name in names:
            (tmp_path / name).write_bytes(b"")
        discard_temps(str(tmp_path / "a.ckpt"))
        assert sorted(os.listdir(tmp_path)) == [
            "a.ckpt", "a.ckpt2.123-4.tmp", "b.ckpt.123-4.tmp",
        ]


@pytest.fixture
def gated_commits(monkeypatch):
    """Every commit waits for ``gate``; ``started`` counts the commits
    begun and ``committed`` lists the temps that were renamed."""
    gate = threading.Event()
    started = threading.Semaphore(0)
    committed = []
    commit = checkpoint.commit_snapshot

    def gated(tmp, path):
        started.release()
        assert gate.wait(10.0)
        commit(tmp, path)
        committed.append(tmp)

    monkeypatch.setattr(checkpoint, "commit_snapshot", gated)
    return gate, started, committed


def _temp(directory, text):
    path = directory / f"{text}.tmp"
    path.write_text(text)
    return str(path)


class TestCheckpointWriter:
    def test_latest_wins_and_a_superseded_temp_is_never_renamed(
        self, tmp_path, gated_commits
    ):
        gate, started, committed = gated_commits
        writer = CheckpointWriter()
        path = str(tmp_path / "s.ckpt")
        a, b, c = (_temp(tmp_path, text) for text in "abc")
        writer.submit(path, a)
        assert started.acquire(timeout=10.0)  # a is in flight
        writer.submit(path, b)
        writer.submit(path, c)
        assert not os.path.exists(b)  # superseded: unlinked at once
        gate.set()
        writer.close()
        assert committed == [a, c]
        assert os.listdir(tmp_path) == ["s.ckpt"]
        assert (tmp_path / "s.ckpt").read_text() == "c"

    def test_streams_do_not_supersede_each_other(self, tmp_path):
        writer = CheckpointWriter()
        for name in ("s", "t"):
            writer.submit(str(tmp_path / f"{name}.ckpt"),
                          _temp(tmp_path, name))
        writer.close()
        assert sorted(os.listdir(tmp_path)) == ["s.ckpt", "t.ckpt"]

    def test_settle_drops_the_pending_and_waits_out_the_inflight(
        self, tmp_path, gated_commits
    ):
        gate, started, committed = gated_commits
        writer = CheckpointWriter()
        path = str(tmp_path / "s.ckpt")
        a, b = _temp(tmp_path, "a"), _temp(tmp_path, "b")
        writer.submit(path, a)
        assert started.acquire(timeout=10.0)
        writer.submit(path, b)
        settled = threading.Event()
        thread = threading.Thread(
            target=lambda: (writer.settle(path), settled.set())
        )
        thread.start()
        assert not settled.wait(0.2)  # a's commit is still in flight
        assert not os.path.exists(b)
        gate.set()
        assert settled.wait(10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        assert committed == [a]
        writer.close()
        assert (tmp_path / "s.ckpt").read_text() == "a"

    def test_flush_commits_the_pending_after_the_inflight(
        self, tmp_path, gated_commits
    ):
        """A failed engine's forced save: the newest snapshot already
        written is made durable, never dropped, and lands last."""
        gate, started, committed = gated_commits
        writer = CheckpointWriter()
        path = str(tmp_path / "s.ckpt")
        a, b = _temp(tmp_path, "a"), _temp(tmp_path, "b")
        writer.submit(path, a)
        assert started.acquire(timeout=10.0)
        writer.submit(path, b)
        flushed = threading.Event()
        thread = threading.Thread(
            target=lambda: (writer.flush(path), flushed.set())
        )
        thread.start()
        assert not flushed.wait(0.2)  # a's commit is still in flight
        gate.set()
        assert flushed.wait(10.0)
        thread.join(10.0)
        assert committed == [a, b]
        assert os.listdir(tmp_path) == ["s.ckpt"]
        assert (tmp_path / "s.ckpt").read_text() == "b"
        writer.close()

    def test_stress_latest_wins_under_a_short_switch_interval(
        self, tmp_path
    ):
        """Six folds racing one writer, each settling now and then the
        way a forced save does: every path ends holding the last temp
        its fold submitted, and no temp survives."""
        writer = CheckpointWriter()
        rounds = 150
        last = {}

        def fold(i):
            path = str(tmp_path / f"s{i}.ckpt")
            for k in range(rounds):
                tmp = str(tmp_path / f"s{i}.ckpt.{k}.tmp")
                with open(tmp, "w") as fh:
                    fh.write(f"{i}-{k}")
                writer.submit(path, tmp)
                if k % 37 == 36:
                    assert writer.settle(path) is None
            last[path] = f"{i}-{rounds - 1}"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            folds = [
                threading.Thread(target=fold, args=(i,)) for i in range(6)
            ]
            for thread in folds:
                thread.start()
            for thread in folds:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        writer.close()
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(path) for path in last
        )
        for path, text in last.items():
            with open(path) as fh:
                assert fh.read() == text

    def test_a_failed_commit_is_reported_once(self, tmp_path, monkeypatch):
        def full_disk(tmp, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "commit_snapshot", full_disk)
        writer = CheckpointWriter()
        path = str(tmp_path / "s.ckpt")
        writer.submit(path, _temp(tmp_path, "a"))
        writer.close()  # commits what is pending
        failure = writer.failure(path)
        assert isinstance(failure, CheckpointError)
        assert "No space left on device" in str(failure)
        assert writer.failure(path) is None
        assert os.listdir(tmp_path) == []  # the temp went with it

    def test_save_now_is_a_flush(self, tmp_path, gated_commits):
        """A forced save lands last: the queued snapshot is dropped, the
        in-flight one committed first, then the forced one inline."""
        gate, started, committed = gated_commits
        writer = CheckpointWriter()
        path = str(tmp_path / "s.ckpt")
        engine = _engine_at_epoch()
        cp = Checkpointer(path, META, writer=writer)
        writer.submit(path, _temp(tmp_path, "a"))
        assert started.acquire(timeout=10.0)
        writer.submit(path, _temp(tmp_path, "b"))
        threading.Timer(0.2, gate.set).start()
        cp.save_now(engine)
        assert len(committed) == 2  # a, then the forced save
        writer.close()
        assert os.listdir(tmp_path) == ["s.ckpt"]
        assert load_checkpoint(path).next_epoch == engine.resume_position

    def test_per_epoch_saves_go_through_the_writer(self, tmp_path):
        part = partition_by_global_order(_program(), 8)
        reference = _run_uninterrupted(part)
        path = str(tmp_path / "run.ckpt")
        writer = CheckpointWriter()
        guard = ButterflyAddrCheck()
        engine = ButterflyEngine(guard)
        engine.enable_checkpoints(Checkpointer(path, META, writer=writer))
        engine.attach(part)
        for lid in range(3):
            engine.feed_epoch(lid)
        writer.close()
        assert writer.failure(path) is None
        ck = load_checkpoint(path)
        assert ck.next_epoch == 3
        resumed = ButterflyEngine(ck.analysis)
        resumed.attach(part, ck)
        for lid in range(ck.next_epoch, part.num_epochs):
            resumed.feed_epoch(lid)
        resumed.finish()
        assert _fingerprint(ck.analysis, resumed.stats) == reference


class _SizeLoggingCheckpointer(Checkpointer):
    def __init__(self, path, meta):
        super().__init__(path, meta)
        self.sizes = []

    def save_now(self, engine):
        super().save_now(engine)
        self.sizes.append(os.path.getsize(self.path))


class TestCheckpointSize:
    def test_bytes_per_save_do_not_grow_with_resident_sos_versions(
        self, tmp_path
    ):
        """A materialized run keeps every published ``SOS_l`` readable.
        With one set per version each save grew by a heap's worth; the
        history is one live set plus per-epoch deltas, so a save costs
        the heap once however many versions it can still serve."""
        heap = range(1_000, 21_000)
        # Sixteen quiet epochs: one private malloc/free pair per thread
        # per epoch, so every epoch publishes a (tiny) delta.
        threads = [
            [
                instr
                for lid in range(16)
                for instr in (
                    Instr.malloc(tid), Instr.read(1_000 + lid),
                    Instr.free(tid), Instr.nop(),
                )
            ]
            for tid in range(3)
        ]
        part = partition_fixed(TraceProgram.from_lists(*threads), 4)
        cp = _SizeLoggingCheckpointer(str(tmp_path / "size.ckpt"), META)
        guard = ButterflyAddrCheck(initially_allocated=heap)
        engine = ButterflyEngine(guard)
        engine.enable_checkpoints(cp)
        engine.run(part)
        assert len(guard.errors) == 0
        assert len(cp.sizes) == part.num_epochs == 16
        versions = guard.sos.published()
        assert len(versions) == 18 and all(
            len(state) >= len(heap) for state in versions.values()
        )
        # From the first full window on (save 3), a save's size is flat:
        # twelve more resident versions, well under one heap's pickle.
        heap_bytes = len(pickle.dumps(set(heap), pickle.HIGHEST_PROTOCOL))
        assert cp.sizes[2] > heap_bytes
        assert cp.sizes[-1] - cp.sizes[2] < heap_bytes // 20

    def test_a_midstream_snapshot_holds_only_the_engines_window(
        self, tmp_path
    ):
        """A checkpoint after epoch ``l`` carries the summaries of the
        epochs the engine still holds (``l`` and ``l+1``, beside their
        blocks) and no other: the retired epoch ``l-1`` is nowhere in
        the file, on the analysis or off it."""
        path = str(tmp_path / "run.ckpt")
        _streamed(_alloc_source(), path, stop_after=3)

        def alive():
            return sum(type(o) is AddrSummary for o in gc.get_objects())

        before = alive()
        ck = load_checkpoint(path)
        loaded = alive() - before
        assert ck.next_epoch == 3
        held = {key[0] for key in ck.state["window"]}
        assert {key[0] for key in ck.analysis.summaries} == held == {1, 2}
        assert loaded == len(ck.analysis.summaries) == 2 * 3


class TestChurnedSOS:
    """Since ``VERSION`` 7 a checkpoint carries the SOS as its initial set
    plus what was gained and lost against it.  A cut where both are
    non-empty restores the live set and finishes as the uninterrupted
    run does."""

    CUT = 4

    def _trace(self, tmp_path):
        trace = str(tmp_path / "churn.jsonl")
        save_stream_file(churn_partition(), trace)
        return trace

    def test_a_cut_after_gains_and_losses_resumes_bit_identically(
        self, tmp_path
    ):
        trace = self._trace(tmp_path)
        source = iter_load(trace)
        assert type(source.preallocated) is LocationRuns
        guard = ButterflyAddrCheck(source.preallocated)
        engine = ButterflyEngine(guard)
        engine.attach_source(source)
        for lid, row in enumerate(source.epochs()):
            if lid == self.CUT:
                live_at_cut = set(guard.sos._live)
            engine.feed_blocks(lid, row)
        engine.finish()
        reference = _fingerprint(guard, engine.stats)
        assert len(reference[1]) > 0

        path = str(tmp_path / "churn.ckpt")
        engine = _streamed(iter_load(trace), path, stop_after=self.CUT)
        engine.close()
        sos = load_checkpoint(path).analysis.sos
        assert sos._gained and sos._lost
        assert sos._live == live_at_cut
        assert type(sos._initial) is LocationRuns
        ck, resumed = _resumed(iter_load(trace), path)
        assert ck.next_epoch == self.CUT
        assert resumed == reference

    def test_a_version_6_file_is_refused_in_one_line(self, tmp_path):
        """Version 6 pickled the whole live set: a file in its layout
        loads no further than its version."""

        class Pickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not SOSHistory:
                    return NotImplemented
                state = dict(vars(obj))
                for key in ("_initial", "_gained", "_lost"):
                    del state[key]
                return (copyreg.__newobj__, (SOSHistory,), state)

        engine = _streamed(iter_load(self._trace(tmp_path)), stop_after=3)
        path = str(tmp_path / "v6.ckpt")
        with open(path, "wb") as fh:
            Pickler(fh, pickle.HIGHEST_PROTOCOL).dump({
                "format": checkpoint.FORMAT,
                "version": 6,
                "meta": META,
                "engine": engine.snapshot_state(),
            })
        engine.close()
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert "\n" not in message
        assert "unsupported checkpoint version 6" in message
        assert "this build reads version 8" in message


class TestErrorLogRows:
    """Since ``VERSION`` 8 the error log pickles each flag once, as the
    row its report carries (``tests/lifeguards/test_reports.py``: the
    dedup set is rebuilt on load)."""

    def test_a_version_7_file_is_refused_in_one_line(self, tmp_path):
        """Version 7 pickled each flag twice, as an ``ErrorKind`` entry
        and a dedup key: a file in its layout loads no further than its
        version."""

        class Pickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not ErrorLog:
                    return NotImplemented
                entries = [(ErrorKind(r[0]),) + r[1:] for r in obj.rows]
                return (copyreg.__newobj__, (ErrorLog,), {
                    "_entries": entries,
                    "_seen": {entry[:4] for entry in entries},
                })

        engine = _streamed(_alloc_source(), stop_after=3)
        assert len(engine.analysis.errors) > 0
        path = str(tmp_path / "v7.ckpt")
        with open(path, "wb") as fh:
            Pickler(fh, pickle.HIGHEST_PROTOCOL).dump({
                "format": checkpoint.FORMAT,
                "version": 7,
                "meta": META,
                "engine": engine.snapshot_state(),
            })
        engine.close()
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert "\n" not in message
        assert "unsupported checkpoint version 7" in message
        assert "this build reads version 8" in message


class _FlakyAddrCheck(ButterflyAddrCheck):
    """AddrCheck whose second pass raises on demand -- after the engine
    has already counted the epoch as received, so the feed must roll
    its progress back.  Module-level so checkpoints can pickle it."""

    armed = False

    def second_pass(self, butterfly, side_in):
        if self.armed:
            raise RuntimeError("boom")
        super().second_pass(butterfly, side_in)


@pytest.mark.parametrize("kind", ["fixed", "adaptive"])
class TestEngineResumeSurface:
    """``resume_position`` / ``checkpoint_now()``: the public surface
    the serve shards drive, identical on a fixed engine (epochs) and an
    adaptive one folding two producer rows per analysis epoch (rows)."""

    ROWS = 4

    def _engine(self, kind, part, checkpoint=None, checkpointer_args=None):
        guard = checkpoint.analysis if checkpoint else _FlakyAddrCheck()
        controller = (
            EpochController(SloConfig(min_fold=2, max_fold=2))
            if kind == "adaptive" else None
        )
        engine = ButterflyEngine(guard, controller=controller)
        engine.attach_source(EpochSource(part.num_threads), checkpoint)
        if checkpointer_args is not None:
            engine.enable_checkpoints(Checkpointer(*checkpointer_args))
        return engine, guard

    def _feed(self, engine, part, rows):
        for lid in rows:
            engine.feed_blocks(lid, part.epoch_blocks(lid))

    def test_committed_feeds_advance_it(self, kind):
        part = partition_by_global_order(_program(), 8)
        engine, _ = self._engine(kind, part)
        assert engine.resume_position == 0
        self._feed(engine, part, range(self.ROWS))
        assert engine.resume_position == self.ROWS

    def test_rolled_back_feed_does_not(self, kind):
        part = partition_by_global_order(_program(), 8)
        engine, guard = self._engine(kind, part)
        self._feed(engine, part, range(2))
        guard.armed = True
        # The fixed engine fails on row 2; the adaptive one buffers it
        # and fails folding rows 2-3.  Neither commits anything.
        with pytest.raises(RuntimeError, match="boom"):
            self._feed(engine, part, range(2, self.ROWS))
        assert engine.resume_position == 2

    def test_restore_into_sets_it(self, kind, tmp_path):
        part = partition_by_global_order(_program(), 8)
        path = str(tmp_path / "run.ckpt")
        engine, _ = self._engine(kind, part, checkpointer_args=(path, META))
        self._feed(engine, part, range(self.ROWS))

        ck = load_checkpoint(path)
        resumed, _ = self._engine(kind, part, checkpoint=ck)
        assert resumed.resume_position == ck.next_epoch == self.ROWS
        assert resumed.recorded_boundaries == engine.recorded_boundaries

    def test_checkpoint_now_writes_a_loadable_snapshot(self, kind, tmp_path):
        part = partition_by_global_order(_program(), 8)
        path = str(tmp_path / "forced.ckpt")
        # every=100: no periodic save fires, only the forced one.
        engine, _ = self._engine(
            kind, part, checkpointer_args=(path, META, 100)
        )
        self._feed(engine, part, range(self.ROWS))
        assert not os.path.exists(path)
        engine.checkpoint_now()
        ck = load_checkpoint(path)
        assert ck.next_epoch == engine.resume_position == self.ROWS
        assert ck.adaptive == (kind == "adaptive")

    def test_checkpoint_now_is_a_noop_when_off(self, kind, tmp_path):
        part = partition_by_global_order(_program(), 8)
        engine, _ = self._engine(kind, part)
        self._feed(engine, part, range(self.ROWS))
        engine.checkpoint_now()
        assert os.listdir(tmp_path) == []


def _save_as_version_3(path, engine):
    """Checkpoint ``engine`` as the version 3 writer did: each AddrCheck
    summary as its class by name and plain containers -- ``access`` a
    set beside the ``first_access`` dict."""

    class Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is not AddrSummary:
                return NotImplemented
            fa = obj.first_access
            first_access = dict(zip(fa.locs.tolist(), fa.offsets.tolist()))
            return (copyreg.__newobj__, (AddrSummary,), {
                "facts": obj.facts,
                "access": set(first_access),
                "first_change": obj.first_change,
                "first_access": first_access,
            })

    with open(path, "wb") as fh:
        Pickler(fh, pickle.HIGHEST_PROTOCOL).dump({
            "format": checkpoint.FORMAT,
            "version": 3,
            "meta": META,
            "engine": engine.snapshot_state(),
        })


def _save_with_mask_fields(path, engine):
    """Checkpoint ``engine`` as the build before interned-bitset summaries
    went wrote it: every ``BlockFacts`` also carries ``all_gen_mask`` and
    ``killed_mask``, both ``None`` under AddrCheck."""

    class Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if type(obj) is not BlockFacts:
                return NotImplemented
            return (copyreg.__newobj__, (BlockFacts,), dict(
                vars(obj), all_gen_mask=None, killed_mask=None))

    with open(path, "wb") as fh:
        Pickler(fh, pickle.HIGHEST_PROTOCOL).dump({
            "format": checkpoint.FORMAT,
            "version": checkpoint.VERSION,
            "meta": META,
            "engine": engine.snapshot_state(),
        })


def _alloc_source(epochs=6):
    return ColumnarAllocSource(
        3, num_threads=3, num_epochs=epochs, events_per_block=192,
        num_locations=40, change_period=12, error_rate=0.02,
    )


def _streamed(source, path=None, stop_after=None):
    """A columnar-kernel run over ``source`` (checkpointing every epoch
    to ``path``); stops after ``stop_after`` rows, else finishes and
    returns its fingerprint."""
    guard = ButterflyAddrCheck(initially_allocated=source.preallocated)
    engine = ButterflyEngine(guard)
    if path is not None:
        engine.enable_checkpoints(Checkpointer(path, META))
    engine.attach_source(source)
    for lid, row in enumerate(source.epochs()):
        if lid == stop_after:
            return engine
        engine.feed_blocks(lid, row)
    engine.finish()
    return _fingerprint(guard, engine.stats)


def _resumed(source, path):
    ck = load_checkpoint(path)
    engine = ButterflyEngine(ck.analysis)
    engine.attach_source(source, ck)
    for lid, row in enumerate(source.epochs(ck.next_epoch), ck.next_epoch):
        engine.feed_blocks(lid, row)
    engine.finish()
    return ck, _fingerprint(ck.analysis, engine.stats)


class TestSummaryPickles:
    """AddrCheck summaries keep the footprint arrays both kernels leave,
    in memory and in a checkpoint (since ``VERSION`` 4): a restored summary
    is the one that was saved, and a version 3 file -- whose summaries
    are dicts and sets -- is refused before anything is unpickled into
    the wrong shape."""

    def test_a_columnar_summary_loads_as_the_object_kernels(self):
        source = _alloc_source(epochs=1)
        row = next(iter(source.epochs()))
        columnar = ButterflyAddrCheck(source.preallocated)
        objects = ButterflyAddrCheck(
            source.preallocated, use_columnar_kernel=False
        )
        columnar.stage_row(row)
        for block in row:
            col, obj = columnar.first_pass(block), objects.first_pass(block)
            assert type(col.first_access) is SortedFirstAccess
            assert type(obj.first_access) is SortedFirstAccess
            restored = pickle.loads(pickle.dumps(col, pickle.HIGHEST_PROTOCOL))
            assert type(restored.first_access) is SortedFirstAccess
            assert restored == col == obj

    def test_a_summary_pickles_only_its_own_slice(self):
        # The columnar kernel's footprints are views of arrays computed
        # for a whole row; a pickle carries the block's part alone.
        source = _alloc_source(epochs=1)
        row = next(iter(source.epochs()))
        guard = ButterflyAddrCheck(source.preallocated)
        guard.stage_row(row)
        footprints = [guard.first_pass(block).first_access for block in row]
        assert len(footprints) > 1
        assert len({id(fa.locs.base) for fa in footprints}) == 1
        for fa in footprints:
            alone = SortedFirstAccess(fa.locs.copy(), fa.offsets.copy())
            assert len(pickle.dumps(fa)) == len(pickle.dumps(alone))

    def test_a_midstream_checkpoint_resumes_bit_identically(self, tmp_path):
        reference = _streamed(_alloc_source())
        path = str(tmp_path / "run.ckpt")
        _streamed(_alloc_source(), path, stop_after=3)
        assert checkpoint.VERSION == 8
        ck, resumed = _resumed(_alloc_source(), path)
        assert ck.next_epoch == 3
        assert resumed == reference
        assert len(reference[1]) > 0
        assert all(
            type(s.first_access) is SortedFirstAccess
            for s in load_checkpoint(path).analysis.summaries.values()
        )

    def test_facts_with_the_mask_fields_still_resume(self, tmp_path):
        reference = _streamed(_alloc_source())
        path = str(tmp_path / "masks.ckpt")
        _save_with_mask_fields(
            path, _streamed(_alloc_source(), stop_after=3)
        )
        with open(path, "rb") as fh:
            assert b"killed_mask" in fh.read()
        assert checkpoint.VERSION == 8
        _, resumed = _resumed(_alloc_source(), path)
        assert resumed == reference
        # A checkpoint this build writes does not carry them.
        fresh = str(tmp_path / "fresh.ckpt")
        _streamed(_alloc_source(), fresh, stop_after=3)
        with open(fresh, "rb") as fh:
            assert b"killed_mask" not in fh.read()


def _taint_source(epochs=6):
    return ColumnarTaintSource(
        5, num_threads=4, num_epochs=epochs, events_per_block=96,
        num_locations=24, taint_period=4, error_rate=0.2,
    )


def _taint_run(source, path=None, stop_after=None, checkpoint=None):
    """A TaintCheck run over ``source`` (checkpointing every epoch to
    ``path``, or resumed from ``checkpoint``); stops after
    ``stop_after`` rows, else finishes and returns its fingerprint with
    every resident LASTCHECK."""
    guard = checkpoint.analysis if checkpoint else ButterflyTaintCheck()
    engine = ButterflyEngine(guard)
    if path is not None:
        engine.enable_checkpoints(Checkpointer(path, META))
    engine.attach_source(source, checkpoint)
    start = checkpoint.next_epoch if checkpoint else 0
    for lid, row in enumerate(source.epochs(start), start):
        if lid == stop_after:
            return engine
        engine.feed_blocks(lid, row)
    engine.finish()
    lastchecks = sorted(
        (key, sorted(s.lastcheck.items(), key=lambda kv: kv[0]))
        for key, s in guard.summaries.items()
    )
    return _fingerprint(guard, engine.stats), repr(lastchecks)


class TestTaintSummaryPickles:
    """TaintCheck summaries are rule columns (``VERSION`` 5) that the
    summaries of one row scan share: a checkpoint carries them once
    and a resumed run is the uninterrupted one."""

    def test_a_midstream_checkpoint_resumes_bit_identically(self, tmp_path):
        reference = _taint_run(_taint_source())
        assert len(reference[0][1]) > 0  # the drill has flags to keep
        path = str(tmp_path / "taint.ckpt")
        _taint_run(_taint_source(), path, stop_after=3)
        ck = load_checkpoint(path)
        assert ck.next_epoch == 3
        assert _taint_run(_taint_source(), checkpoint=ck) == reference

    def test_a_checkpoint_pickles_shared_columns_once(self, tmp_path):
        engine = _taint_run(_taint_source(), stop_after=3)
        summaries = list(engine.analysis.summaries.values())
        by_row = {}
        for s in summaries:
            by_row.setdefault(s.block_id[0], set()).add(id(s.offsets))
        assert all(len(ids) == 1 for ids in by_row.values())
        path = str(tmp_path / "taint.ckpt")
        save_checkpoint(path, engine, META)
        restored = load_checkpoint(path).analysis.summaries
        for key, s in engine.analysis.summaries.items():
            back = restored[key]
            assert back.offsets is restored[(key[0], 0)].offsets
            assert back.written == s.written
            assert back.lastcheck == s.lastcheck
            for loc in s.written:
                assert back.rules(loc) == s.rules(loc)

    def test_a_version_4_file_is_refused_in_one_line(self, tmp_path):
        path = str(tmp_path / "taint.ckpt")
        _taint_run(_taint_source(), path, stop_after=3)
        stamp_version(path, 4)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert "\n" not in message
        assert "unsupported checkpoint version 4" in message
        assert "this build reads version 8" in message


class TestVerify:
    def _checkpoint(self, tmp_path):
        part = partition_by_global_order(_program(events=60), 8)
        path = str(tmp_path / "v.ckpt")
        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.attach(part)
        engine.feed_epoch(0)
        engine.feed_epoch(1)
        save_checkpoint(path, engine, META)
        return load_checkpoint(path)

    def test_matching_meta_accepted(self, tmp_path):
        self._checkpoint(tmp_path).verify(dict(META))

    def test_mismatch_names_every_differing_key(self, tmp_path):
        ck = self._checkpoint(tmp_path)
        bad = dict(META, epoch_size=16, seed=9)
        with pytest.raises(CheckpointError) as exc_info:
            ck.verify(bad)
        message = str(exc_info.value)
        assert "epoch_size: checkpoint=8 run=16" in message
        assert "seed: checkpoint=5 run=9" in message

    def test_restore_requires_the_checkpoints_analysis(self, tmp_path):
        ck = self._checkpoint(tmp_path)
        part = partition_by_global_order(_program(events=60), 8)
        stranger = ButterflyEngine(ButterflyAddrCheck())
        with pytest.raises(CheckpointError, match="analysis"):
            stranger.attach(part, ck)


class TestLoadFailures:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(CheckpointError, match="not a readable checkpoint"):
            load_checkpoint(str(path))

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "alien.ckpt"
        path.write_bytes(pickle.dumps({"format": "other", "version": 1}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        # A version 3 writer's file, summaries as dicts and sets: one
        # refusal, never a resume that crashes on the wrong shape.
        path = str(tmp_path / "v3.ckpt")
        _save_as_version_3(path, _streamed(_alloc_source(), stop_after=3))
        with pytest.raises(
            CheckpointError,
            match=r"unsupported checkpoint version 3 \(this build reads "
            r"version 8\)",
        ):
            load_checkpoint(path)
        future = tmp_path / "future.ckpt"
        future.write_bytes(
            pickle.dumps(
                {"format": "repro-checkpoint", "version": 99, "meta": {},
                 "engine": {}}
            )
        )
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(str(future))

    def test_record_without_meta_or_engine(self, tmp_path):
        path = tmp_path / "hollow.ckpt"
        path.write_bytes(
            pickle.dumps(
                {"format": "repro-checkpoint", "version": checkpoint.VERSION}
            )
        )
        with pytest.raises(CheckpointError, match="hollow.ckpt"):
            load_checkpoint(str(path))

    def test_damaged_files_raise_nothing_but_checkpoint_error(
        self, tmp_path
    ):
        # Truncations, bit flips and random bytes: a mangled pickle
        # raises whatever its opcodes run into (UnicodeDecodeError,
        # MemoryError, ValueError, ImportError, ...).  The few that
        # still unpickle into the right shape need a digest to catch.
        path = str(tmp_path / "v.ckpt")
        part = partition_by_global_order(_program(events=60), 8)
        engine = ButterflyEngine(ButterflyAddrCheck())
        engine.attach(part)
        engine.feed_epoch(0)
        engine.feed_epoch(1)
        save_checkpoint(path, engine, META)
        with open(path, "rb") as fh:
            good = fh.read()
        rng = random.Random(21)
        refused = 0
        for trial in range(1200):
            if trial % 3 == 0:
                data = good[: rng.randrange(len(good))]
            elif trial % 3 == 1:
                flipped = bytearray(good)
                for _ in range(rng.randint(1, 4)):
                    flipped[rng.randrange(len(good))] ^= 1 << rng.randrange(8)
                data = bytes(flipped)
            else:
                data = bytes(
                    rng.randrange(256) for _ in range(rng.randrange(1, 200))
                )
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                load_checkpoint(path)
            except CheckpointError as exc:
                assert path in str(exc)
                refused += 1
        assert refused > 1000
