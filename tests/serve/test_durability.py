"""The shard's checkpoint writer: what is durable, and when.

The fold writes each per-epoch snapshot into a temp file at the epoch
boundary; the shard's writer thread commits it later.  A checkpoint is
therefore a durability *point*, possibly one behind the fold: a SIGKILL
between snapshot and commit resumes from the older durable epoch, and
the producer re-sends from there.  These tests pin the three promises
that make that safe -- a killed daemon's stream still resumes
bit-identically, a finished stream's checkpoint is never resurrected by
a late commit, and a failed commit fails its stream.
"""

import errno
import json
import threading
import time

import pytest

from repro.resilience import checkpoint
from repro.resilience.checkpoint import load_checkpoint
from repro.serve import ServeConfig, ServerThread, StreamClient, push_trace
from repro.serve.client import read_frame_sync
from repro.serve.protocol import (
    FRAME_EPOCH,
    FRAME_ERROR,
    encode_frame,
    make_hello,
    resume_token,
)
from repro.serve.shards import build_stream_engine

from tests.serve.conftest import offline_report, write_trace
from tests.serve.test_resume import (
    start_daemon,
    wait_for_checkpoint,
    wait_for_empty,
)
from tests.serve.test_server import fast, raw_handshake


def on_writer_thread():
    return threading.current_thread().name.startswith(
        "repro-checkpoint-writer"
    )


def trace_lines(path):
    with open(path) as fp:
        header = json.loads(fp.readline())
        return [line.strip() for line in fp][:header["epochs"]]


def newest_snapshot(ckpt_dir):
    """The highest ``next_epoch`` among the readable snapshot temps."""
    best = -1
    for tmp in ckpt_dir.glob("*.tmp"):
        try:
            best = max(best, load_checkpoint(str(tmp)).next_epoch)
        except Exception:
            continue  # mid-write, or superseded and unlinked
    return best


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_kill_between_snapshot_and_commit_resumes_from_the_durable_epoch(
    tmp_path, backend
):
    trace = tmp_path / "t.stream.jsonl"
    write_trace(trace, events=300, seed=9)
    lines = trace_lines(trace)
    ck = tmp_path / "ck"
    proc, address = start_daemon(
        tmp_path, "a.sock", ck, backend, fault="block-commit-after=2"
    )
    try:
        # Rows 0-2 first: epoch 1's commit, while row 2 is received,
        # snapshots next_epoch 2 (row 2 is re-fed on resume), committed
        # before anything can supersede it -- the durable point.  Every
        # later snapshot stays a temp file.
        sock = raw_handshake(address, trace, "s1", 3)
        wait_for_checkpoint(ck, min_epoch=2)
        for line in lines[3:]:
            sock.sendall(encode_frame(FRAME_EPOCH, line.encode()))
        deadline = time.monotonic() + 20.0
        # Epoch k's commit snapshots next_epoch k + 1: wait for epoch 4.
        while newest_snapshot(ck) < 5:
            assert time.monotonic() < deadline, "the fold never got to 3"
            time.sleep(0.01)
        [durable] = ck.glob("*.ckpt")
        assert load_checkpoint(str(durable)).next_epoch == 2
        proc.kill()  # SIGKILL with snapshots written but not committed
        proc.wait(timeout=10)
        sock.close()
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait()
    assert list(ck.glob("*.tmp"))

    proc, address = start_daemon(tmp_path, "b.sock", ck, backend)
    try:
        client = StreamClient(
            address, str(trace), "s1", policy=fast(0)
        )
        served = client.push()
        assert client.last_ack["resume_epoch"] == 2
        assert json.dumps(served) == json.dumps(offline_report(trace, "s1"))
        wait_for_empty(ck)
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_opening_a_stream_removes_its_leftover_temps(tmp_path):
    hello = make_hello("s", 2, 3, (), "addrcheck")
    token = resume_token(hello)
    other = f"{'0' * 32}.ckpt.77-1.tmp"
    for name in (f"{token}.ckpt.tmp", f"{token}.ckpt.77-0.tmp", other):
        (tmp_path / name).write_bytes(b"left by a SIGKILL")
    engine, resume_epoch = build_stream_engine(
        hello, token, str(tmp_path), 1, "serial"
    )
    engine.close()
    assert resume_epoch == 0
    assert [p.name for p in tmp_path.iterdir()] == [other]


def test_no_checkpoint_outlives_a_completed_stream_under_a_slow_writer(
    tmp_path, trace_file, monkeypatch
):
    """``report`` discards the stream's uncommitted snapshot and waits
    out the in-flight commit; without that, a slow writer renames a
    checkpoint back into place after the daemon unlinked it."""
    commit = checkpoint.commit_snapshot
    commits = []

    def slow_commit(tmp, path):
        if on_writer_thread():
            commits.append(tmp)
            time.sleep(0.15)
        commit(tmp, path)

    monkeypatch.setattr(checkpoint, "commit_snapshot", slow_commit)
    ck = tmp_path / "ck"
    config = ServeConfig(
        unix_path=str(tmp_path / "s.sock"), checkpoint_dir=str(ck)
    )
    with ServerThread(config) as daemon:
        for sid in ("s1", "s2"):
            served = push_trace(daemon.address, str(trace_file), sid)
            assert served == offline_report(trace_file, sid)
            # Longer than the two commits a finished stream can have
            # left: one in flight and one pending.
            time.sleep(0.5)
            assert not list(ck.iterdir()), sorted(
                p.name for p in ck.iterdir()
            )
    assert commits  # the writer really was in the way


def test_a_failed_background_commit_fails_the_stream(
    tmp_path, trace_file, monkeypatch
):
    """ENOSPC on the writer is the stream's next command's error: the
    session ends ``ERROR internal``, and the flushed checkpoint still
    resumes it."""
    commit = checkpoint.commit_snapshot

    def full_disk(tmp, path):
        if on_writer_thread() and load_checkpoint(tmp).next_epoch >= 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        commit(tmp, path)

    monkeypatch.setattr(checkpoint, "commit_snapshot", full_disk)
    ck = tmp_path / "ck"
    config = ServeConfig(
        unix_path=str(tmp_path / "s.sock"), checkpoint_dir=str(ck)
    )
    lines = trace_lines(trace_file)
    with ServerThread(config) as daemon:
        sock = raw_handshake(daemon.address, trace_file, "s1", 3)
        wait_for_checkpoint(ck, min_epoch=2)
        sock.sendall(encode_frame(FRAME_EPOCH, lines[3].encode()))
        time.sleep(0.3)  # the commit of the next snapshot fails
        for line in lines[4:]:
            sock.sendall(encode_frame(FRAME_EPOCH, line.encode()))
        ftype, payload = read_frame_sync(sock)
        sock.close()
    assert ftype == FRAME_ERROR
    answer = json.loads(payload)
    assert answer["code"] == "internal"
    assert "No space left on device" in answer["error"]
    # The forced save, between feeds, holds every row folded: 0-3.
    assert answer["resume_epoch"] == 4
    [path] = ck.glob("*.ckpt")
    assert load_checkpoint(str(path)).next_epoch == 4
    assert not list(ck.glob("*.tmp"))

    monkeypatch.setattr(checkpoint, "commit_snapshot", commit)
    config = ServeConfig(
        unix_path=str(tmp_path / "s2.sock"), checkpoint_dir=str(ck)
    )
    with ServerThread(config) as daemon:
        client = StreamClient(
            daemon.address, str(trace_file), "s1", policy=fast(0)
        )
        served = client.push()
    assert client.last_ack["resume_epoch"] == 4
    assert served == offline_report(trace_file, "s1")
