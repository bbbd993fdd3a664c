"""A fold that fails mid-stream ends its session at once.

The shard decodes and folds what the loop queued; when that fails --
a malformed ``EPOCH`` payload, a lifeguard exception, a dead worker --
the consumer is gone and will never take another item off the queue.
The read loop must stop then and there: the producer gets its ``ERROR``
(with the token and the folded count as ``resume_epoch``) instead of a
socket timeout, frames queued behind the failure are discarded, and a
drain does not wait on the session.
"""

import json
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import AnalysisError, ReproError
from repro.obs.recorder import Recorder
from repro.resilience.checkpoint import load_checkpoint
from repro.serve import ServeConfig, ServerThread, StreamClient, shards
from repro.serve.client import read_frame_sync
from repro.serve.protocol import (
    FRAME_END,
    FRAME_EPOCH,
    FRAME_ERROR,
    encode_frame,
    encode_json_frame,
)
from repro.serve.shards import ProcessShard

from tests.serve.conftest import offline_report, write_trace
from tests.serve.test_resume import start_daemon, wait_for_empty
from tests.serve.test_server import fast, raw_handshake

#: The epoch whose fold fails.
FAIL_AT = 2


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """251 epochs: far more than any queue holds."""
    path = tmp_path_factory.mktemp("long") / "long.stream.jsonl"
    write_trace(path, threads=2, events=4000)
    with open(path) as fp:
        header = json.loads(fp.readline())
        lines = [line.strip() for line in fp][:header["epochs"]]
    assert len(lines) == 251
    return path, lines


def send_in_background(sock, frames):
    """Push ``frames`` from another thread; the daemon may hang up on
    them part way, which is the point."""

    def send():
        try:
            for frame in frames:
                sock.sendall(frame)
        except OSError:
            pass

    thread = threading.Thread(target=send, daemon=True)
    thread.start()
    return thread


def stream_frames(lines, bad_at=None):
    frames = [encode_frame(FRAME_EPOCH, line.encode()) for line in lines]
    if bad_at is not None:
        frames[bad_at] = encode_frame(FRAME_EPOCH, b"definitely not json")
    frames.append(encode_json_frame(FRAME_END, {"epochs_written": len(lines)}))
    return frames


@pytest.fixture(params=["thread", "process"])
def failing_fold(request, monkeypatch):
    """The fold of epoch ``FAIL_AT`` raises, on either shard backend;
    ``.reached`` is set when it does."""
    reached = threading.Event()
    if request.param == "thread":
        feed_row = shards._feed_row

        def failing_feed_row(stream, lid, *rest):
            if lid == FAIL_AT:
                reached.set()
                raise AnalysisError(f"injected fold failure at epoch {lid}")
            return feed_row(stream, lid, *rest)

        monkeypatch.setattr(shards, "_feed_row", failing_feed_row)
    else:
        # A spawned worker does not see this process's patches: fail
        # the call where the daemon sees a worker die, on the shard's
        # dispatch thread.
        call = ProcessShard._call

        def failing_call(shard, command, *args):
            if command == "feed" and args[1] == FAIL_AT:
                reached.set()
                raise ReproError(
                    f"shard {shard.index} worker died during 'feed': EOFError"
                )
            return call(shard, command, *args)

        monkeypatch.setattr(ProcessShard, "_call", failing_call)
    return SimpleNamespace(backend=request.param, reached=reached)


def serve_config(tmp_path, backend, **overrides):
    return ServeConfig(
        unix_path=str(tmp_path / "s.sock"),
        checkpoint_dir=str(tmp_path / "ck"),
        queue_depth=2,
        idle_timeout=5.0,
        shard_backend=backend,
        **overrides,
    )


def stop_within(daemon, seconds):
    started = time.monotonic()
    daemon.stop()
    assert time.monotonic() - started < seconds
    assert not daemon._thread.is_alive()


class TestFoldFailure:
    def test_answered_at_once_with_resume_coordinates(
        self, tmp_path, long_trace, failing_fold
    ):
        path, lines = long_trace
        daemon = ServerThread(
            serve_config(tmp_path, failing_fold.backend), Recorder()
        ).start()
        try:
            sock = raw_handshake(daemon.address, path, "wedge", 0)
            started = time.monotonic()
            send_in_background(sock, stream_frames(lines))
            ftype, payload = read_frame_sync(sock)
            answered = time.monotonic() - started
            sock.close()
        finally:
            stop_within(daemon, 10.0)
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "internal"
        assert "injected" in answer["error"] or "died" in answer["error"]
        assert answer["resume_epoch"] == FAIL_AT
        assert answered < 1.0
        # The resume epoch is on disk, and the queued epochs behind
        # the failure were never folded.
        checkpoint = load_checkpoint(
            str(tmp_path / "ck" / f"{answer['token']}.ckpt")
        )
        assert checkpoint.next_epoch == FAIL_AT
        counters = daemon.server.recorder.snapshot()["counters"]
        assert counters["serve.epochs_folded"] == FAIL_AT
        assert counters["serve.streams_failed"] == 1

    def test_drain_completes_while_the_session_is_open(
        self, tmp_path, long_trace, failing_fold
    ):
        path, lines = long_trace
        daemon = ServerThread(
            serve_config(tmp_path, failing_fold.backend)
        ).start()
        try:
            sock = raw_handshake(daemon.address, path, "wedge", 0)
            send_in_background(sock, stream_frames(lines))
            assert failing_fold.reached.wait(10.0)
        finally:
            stop_within(daemon, 10.0)
        ftype, payload = read_frame_sync(sock)
        sock.close()
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] in ("internal", "drain")
        assert answer["resume_epoch"] == FAIL_AT

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_malformed_epoch_behind_a_full_queue(
        self, tmp_path, long_trace, backend
    ):
        """Decode runs on the shard, so a bad record surfaces in the
        consumer -- with the file reader's text, naming its epoch."""
        path, lines = long_trace
        daemon = ServerThread(
            serve_config(tmp_path, backend), Recorder()
        ).start()
        try:
            sock = raw_handshake(daemon.address, path, "bad", 0)
            started = time.monotonic()
            send_in_background(sock, stream_frames(lines, bad_at=FAIL_AT))
            ftype, payload = read_frame_sync(sock)
            answered = time.monotonic() - started
            sock.close()
            counters = daemon.server.recorder.snapshot()["counters"]
        finally:
            stop_within(daemon, 10.0)
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert answer["epoch"] == FAIL_AT
        assert answer["error"].startswith(
            f"bad:{FAIL_AT + 2}: invalid JSON (epoch {FAIL_AT}): "
        )
        assert answer["resume_epoch"] == FAIL_AT
        assert answered < 1.0
        assert counters["serve.epochs_folded"] == FAIL_AT


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_daemon_drains_to_exit_zero_after_a_fold_failure(
    tmp_path, long_trace, backend
):
    """The reproduction end to end: a real daemon whose fold raises at
    epoch 2 (in the worker process, under process shards) answers the
    producer and still drains cleanly; the stream then resumes from
    the flushed checkpoint on a healthy daemon."""
    path, lines = long_trace
    proc, address = start_daemon(
        tmp_path, "patched.sock", tmp_path / "ck", backend,
        fault=f"fail-fold-at={FAIL_AT}",
    )
    try:
        sock = raw_handshake(address, path, "wedge", 0)
        started = time.monotonic()
        send_in_background(sock, stream_frames(lines))
        ftype, payload = read_frame_sync(sock)
        answered = time.monotonic() - started
        sock.close()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, (out, err)
    assert "Traceback" not in err
    assert ftype == FRAME_ERROR
    answer = json.loads(payload)
    assert answer["code"] == "internal"
    assert f"injected fold failure at epoch {FAIL_AT}" in answer["error"]
    assert answer["resume_epoch"] == FAIL_AT
    assert answered < 1.0

    config = ServeConfig(
        unix_path=str(tmp_path / "healthy.sock"),
        checkpoint_dir=str(tmp_path / "ck"),
        shard_backend=backend,
    )
    with ServerThread(config) as daemon:
        client = StreamClient(
            daemon.address, str(path), "wedge", policy=fast(0)
        )
        served = client.push()
    assert client.last_ack["resume_epoch"] == FAIL_AT
    assert served == offline_report(path, "wedge")
    wait_for_empty(tmp_path / "ck")


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_half_updated_analysis_is_never_checkpointed(
    tmp_path, long_trace, backend
):
    """AddrCheck publishes ``SOS_{k+2}`` and then raises inside epoch
    ``k``'s update, so the engine fails with its analysis half-updated.
    The session's forced save must not snapshot that analysis: it makes
    the last good snapshot durable instead, the ``ERROR`` names that
    snapshot's epoch, and a reconnect with the token completes with the
    offline report.  That snapshot was taken after epoch 2 committed,
    while row 3 was being received, so it rewinds to row 3: the
    reconnect re-feeds it and re-runs its first pass."""
    path, lines = long_trace
    ck = tmp_path / "ck"
    proc, address = start_daemon(
        tmp_path, "patched.sock", ck, backend,
        fault="fail-epoch-update-at=3",
    )
    try:
        sock = raw_handshake(address, path, "poisoned", 0)
        send_in_background(sock, stream_frames(lines))
        ftype, payload = read_frame_sync(sock)
        sock.close()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, (out, err)
    assert ftype == FRAME_ERROR
    answer = json.loads(payload)
    assert answer["code"] == "internal"
    assert "injected epoch_update failure at 3" in answer["error"]
    on_disk = load_checkpoint(str(ck / f"{answer['token']}.ckpt"))
    assert answer["resume_epoch"] == on_disk.next_epoch == 3

    config = ServeConfig(
        unix_path=str(tmp_path / "healthy.sock"),
        checkpoint_dir=str(ck),
        shard_backend=backend,
    )
    with ServerThread(config) as daemon:
        client = StreamClient(
            daemon.address, str(path), "poisoned", policy=fast(0)
        )
        served = client.push()
    assert client.last_ack["resume_epoch"] == answer["resume_epoch"]
    assert served == offline_report(path, "poisoned")
    wait_for_empty(ck)
