"""Graceful shutdown: SIGTERM/SIGINT drain in-flight work, checkpoint
every live stream, notify producers, flush sinks, and exit 0."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ServeConfig, ServerThread, StreamClient
from repro.serve.client import read_frame_sync
from repro.serve.protocol import FRAME_ERROR

from tests.serve.conftest import offline_report, write_trace
from tests.serve.test_resume import REPO_ROOT, wait_for_checkpoint
from tests.serve.test_server import fast, raw_handshake


class TestInProcessDrain:
    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_drain_notifies_and_checkpoints_inflight_streams(
        self, tmp_path, shard_backend
    ):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=300, seed=2)
        ck = tmp_path / "ck"
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"),
            checkpoint_dir=str(ck),
            shard_backend=shard_backend,
            # A long idle timeout: the drain must interrupt a quietly
            # waiting read immediately, not ride the timeout out.
            idle_timeout=60.0,
        )
        daemon = ServerThread(config).start()
        sock = raw_handshake(daemon.address, trace, "inflight", 4)
        wait_for_checkpoint(ck, min_epoch=1)
        started = time.monotonic()
        daemon.stop()
        assert time.monotonic() - started < 30.0
        ftype, payload = read_frame_sync(sock)
        sock.close()
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "drain"
        assert answer["token"]
        assert list(ck.glob("*.ckpt"))
        # The socket file is gone: a restarted daemon can rebind it.
        assert not os.path.exists(config.unix_path)

        # The checkpointed stream resumes on a fresh daemon.
        next_config = ServeConfig(
            unix_path=str(tmp_path / "s2.sock"), checkpoint_dir=str(ck)
        )
        with ServerThread(next_config) as daemon:
            client = StreamClient(
                daemon.address, str(trace), "inflight",
                policy=fast(2),
            )
            served = client.push()
        assert client.last_ack["resume_epoch"] >= 1
        assert served == offline_report(trace, "inflight")

    def test_stop_is_idempotent(self, tmp_path):
        daemon = ServerThread(
            ServeConfig(unix_path=str(tmp_path / "s.sock"))
        ).start()
        daemon.stop()
        daemon.stop()


def run_daemon(tmp_path, extra=()):
    sock_path = str(tmp_path / "serve.sock")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--unix", sock_path,
            "--checkpoint-dir", str(tmp_path / "ck"),
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    banner = proc.stdout.readline()
    assert "serving on unix" in banner, (banner, proc.stderr.read())
    return proc, ("unix", sock_path)


class TestSignals:
    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_sigterm_drains_flushes_and_exits_zero(
        self, tmp_path, shard_backend
    ):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=200, seed=1)
        events_path = tmp_path / "events.jsonl"
        summary_path = tmp_path / "summary.json"
        proc, address = run_daemon(tmp_path, (
            "--emit-events", str(events_path),
            "--summary-json", str(summary_path),
            "--shard-backend", shard_backend,
        ))
        try:
            served = StreamClient(
                address, str(trace), "s1", policy=fast(2)
            ).push()
            assert served == offline_report(trace, "s1")
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, (out, err)
        assert "drained:" in out
        assert "streams_completed=1" in out
        # The JSONL event sink was flushed on the way down: the
        # stream's full lifecycle plus the drain itself are on disk.
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        names = [e["ev"] for e in events]
        assert "serve.accepted" in names
        assert "serve.completed" in names
        assert "serve.drain" in names
        summary = json.loads(summary_path.read_text())
        assert summary["counters"]["serve.streams_completed"] == 1

    def test_sigint_also_drains(self, tmp_path):
        # No --emit-events / --summary-json: nothing was counted, so
        # the farewell line is the bare form.
        proc, _ = run_daemon(tmp_path)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, (out, err)
        assert "drained" in out
