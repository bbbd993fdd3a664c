"""Stream resume: checkpoints survive disconnects, daemon restarts,
and a SIGKILLed daemon process; resumed reports are bit-identical."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from repro.core.epoch import partition_from_boundaries
from repro.core.framework import ButterflyEngine
from repro.core.state import LocationRuns
from repro.resilience.checkpoint import load_checkpoint
from repro.serve import ServeConfig, ServerThread, StreamClient
from repro.serve.client import read_frame_sync
from repro.serve.protocol import (
    FRAME_EPOCH,
    FRAME_ERROR,
    FRAME_HELLO,
    encode_frame,
    encode_json_frame,
    make_hello,
)
from repro.serve.shards import make_guard
from repro.trace.generator import simulated_alloc_program
from repro.trace.serialize import iter_load, save_stream_file, stream_header

from tests.resilience.test_checkpoint import (
    DAMAGED_PICKLE,
    churn_partition,
    stamp_position,
    stamp_version,
)
from tests.serve.conftest import offline_report, write_trace
from tests.serve.test_server import connect, fast, raw_handshake

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def wait_for_checkpoint(ckpt_dir, min_epoch=1, timeout=10.0):
    """Poll until some stream's checkpoint has committed ``min_epoch``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for path in ckpt_dir.glob("*.ckpt"):
            try:
                checkpoint = load_checkpoint(str(path))
            except Exception:
                continue  # mid-write; poll again
            if checkpoint.next_epoch >= min_epoch:
                return path, checkpoint
        time.sleep(0.01)
    raise AssertionError(f"no checkpoint reached epoch {min_epoch}")


def wait_for_empty(ckpt_dir, timeout=5.0):
    """Poll until ``ckpt_dir`` holds no file (the daemon unlinks a
    completed stream's checkpoint just after flushing its REPORT)."""
    deadline = time.monotonic() + timeout
    while list(ckpt_dir.iterdir()):
        assert time.monotonic() < deadline, sorted(
            p.name for p in ckpt_dir.iterdir()
        )
        time.sleep(0.01)


class TestResumeAcrossRestart:
    def test_disconnect_then_new_daemon_resumes(self, tmp_path):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=300, seed=5)
        ck = tmp_path / "ck"
        first = ServeConfig(
            unix_path=str(tmp_path / "a.sock"), checkpoint_dir=str(ck)
        )
        with ServerThread(first) as daemon:
            sock = raw_handshake(daemon.address, trace, "s1", 6)
            wait_for_checkpoint(ck, min_epoch=2)
            sock.close()  # abandon mid-stream
        # The drained daemon kept the checkpoint for the dead stream.
        path, checkpoint = wait_for_checkpoint(ck, min_epoch=2)
        committed = checkpoint.next_epoch

        second = ServeConfig(
            unix_path=str(tmp_path / "b.sock"), checkpoint_dir=str(ck)
        )
        with ServerThread(second) as daemon:
            client = StreamClient(
                daemon.address, str(trace), "s1", policy=fast(2)
            )
            served = client.push()
        assert client.last_ack["resume_epoch"] == committed
        assert served == offline_report(trace, "s1")

    def _reconnect_to_a_spoiled_checkpoint(
        self, tmp_path, shard_backend, spoil
    ):
        """Abandon a stream mid-run, ``spoil(path)`` its checkpoint,
        reconnect to a fresh daemon; the daemon's decoded answer."""
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=300, seed=5)
        ck = tmp_path / "ck"

        def config(name):
            return ServeConfig(
                unix_path=str(tmp_path / f"{name}.sock"),
                checkpoint_dir=str(ck),
                shard_backend=shard_backend,
            )

        with ServerThread(config("a")) as daemon:
            sock = raw_handshake(daemon.address, trace, "s1", 6)
            wait_for_checkpoint(ck, min_epoch=2)
            sock.close()  # abandon mid-stream
        path, _ = wait_for_checkpoint(ck, min_epoch=2)
        spoil(str(path))

        with open(trace) as fp:
            header = stream_header(fp, str(trace))
        hello = make_hello(
            "s1", header["threads"], header["epochs"],
            header["preallocated"], "addrcheck",
        )
        with ServerThread(config("b")) as daemon:
            sock = connect(daemon.address)
            sock.sendall(encode_json_frame(FRAME_HELLO, hello))
            ftype, payload = read_frame_sync(sock)
            sock.close()
        assert ftype == FRAME_ERROR
        return json.loads(payload)

    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_version_1_checkpoint_refuses_the_reconnect(
        self, tmp_path, shard_backend
    ):
        answer = self._reconnect_to_a_spoiled_checkpoint(
            tmp_path, shard_backend, lambda path: stamp_version(path, 1)
        )
        assert answer["code"] == "token"
        assert "unsupported checkpoint version 1" in answer["error"]

    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_version_4_checkpoint_refuses_the_reconnect(
        self, tmp_path, shard_backend
    ):
        answer = self._reconnect_to_a_spoiled_checkpoint(
            tmp_path, shard_backend, lambda path: stamp_version(path, 4)
        )
        assert answer["code"] == "token"
        assert "unsupported checkpoint version 4" in answer["error"]

    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_version_5_checkpoint_refuses_the_reconnect(
        self, tmp_path, shard_backend
    ):
        answer = self._reconnect_to_a_spoiled_checkpoint(
            tmp_path, shard_backend, lambda path: stamp_version(path, 5)
        )
        assert answer["code"] == "token"
        assert "unsupported checkpoint version 5" in answer["error"]
        assert "\n" not in answer["error"]

    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_damaged_checkpoint_refuses_the_reconnect(
        self, tmp_path, shard_backend
    ):
        # The directory is not the daemon's alone: whatever a damaged
        # pickle raises (here UnicodeDecodeError) is ERROR token -- the
        # producer's cue to start over -- not ERROR internal.
        def damage(path):
            with open(path, "wb") as fh:
                fh.write(DAMAGED_PICKLE)

        answer = self._reconnect_to_a_spoiled_checkpoint(
            tmp_path, shard_backend, damage
        )
        assert answer["code"] == "token"
        assert "not a readable checkpoint" in answer["error"]

    def test_position_past_the_stream_refuses_the_reconnect(self, tmp_path):
        answer = self._reconnect_to_a_spoiled_checkpoint(
            tmp_path, "thread", lambda path: stamp_position(path, 999)
        )
        assert answer["code"] == "token"
        assert "checkpoint resumes at epoch 999" in answer["error"]

    def test_token_mismatch_is_refused(self, daemon, trace_file):
        with open(trace_file) as fp:
            header = stream_header(fp, str(trace_file))
        hello = make_hello(
            "s1", header["threads"], header["epochs"],
            header["preallocated"], "addrcheck",
        )
        hello["token"] = "0" * 32
        sock = connect(daemon.address)
        sock.sendall(encode_json_frame(FRAME_HELLO, hello))
        ftype, payload = read_frame_sync(sock)
        sock.close()
        assert ftype == FRAME_ERROR
        assert json.loads(payload)["code"] == "token"

    def test_error_frames_carry_resume_coordinates(
        self, daemon, trace_file, tmp_path
    ):
        """The resume epoch an ERROR names is exactly the folded count,
        and it is on disk: the failure path's save is a flush of the
        shard's checkpoint writer, not one more queued snapshot."""
        good = 2
        sock = raw_handshake(daemon.address, trace_file, "s1", good)
        sock.sendall(encode_frame(FRAME_EPOCH, b"garbage"))
        ftype, payload = read_frame_sync(sock)
        sock.close()
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert answer["epoch"] == good
        assert len(answer["token"]) == 32
        assert answer["resume_epoch"] == good
        path = tmp_path / "ckpt" / f"{answer['token']}.ckpt"
        assert load_checkpoint(str(path)).next_epoch == good


def write_irregular_trace(path, seed=4):
    """A stream with explicit variable-size cuts: unequal blocks,
    and a zero-length tail on thread 1 (it runs out of events early)."""
    prog = simulated_alloc_program(
        random.Random(seed),
        num_threads=2,
        total_events=300,
        num_locations=16,
        inject_error_rate=0.05,
    )
    n0, n1 = (len(t) for t in prog.threads)
    boundaries = [
        [5, 5, n0 // 2, n0 // 2 + 1, (3 * n0) // 4, n0 - 1, n0, n0],
        [n1 // 3, n1 // 3, n1 // 2, n1, n1, n1, n1, n1],
    ]
    partition = partition_from_boundaries(prog, boundaries)
    save_stream_file(partition, str(path))
    return partition


class TestIrregularCutResume:
    def test_resumed_irregular_stream_matches_uninterrupted(
        self, tmp_path
    ):
        trace = tmp_path / "irregular.stream.jsonl"
        write_irregular_trace(trace)
        ck = tmp_path / "ck"
        first = ServeConfig(
            unix_path=str(tmp_path / "a.sock"), checkpoint_dir=str(ck)
        )
        with ServerThread(first) as daemon:
            sock = raw_handshake(daemon.address, trace, "s1", 4)
            wait_for_checkpoint(ck, min_epoch=2)
            sock.close()  # abandon mid-stream

        second = ServeConfig(
            unix_path=str(tmp_path / "b.sock"), checkpoint_dir=str(ck)
        )
        with ServerThread(second) as daemon:
            client = StreamClient(
                daemon.address, str(trace), "s1", policy=fast(2)
            )
            served = client.push()
        # Resume coordinates survive irregular cuts: the committed
        # epochs were not re-fed, and the report is byte-identical to
        # the offline run over the same explicit boundaries.
        assert client.last_ack["resume_epoch"] >= 2
        assert served == offline_report(trace, "s1")


def start_daemon(tmp_path, sock_name, ck, shard_backend="thread",
                 fault=None):
    """``repro serve`` as a real subprocess; returns (proc, address).
    With ``fault`` it runs through ``patched_daemon.py`` with that
    fault installed."""
    sock_path = str(tmp_path / sock_name)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    entry = ["-m", "repro"] if fault is None else [
        os.path.join(REPO_ROOT, "tests", "serve", "patched_daemon.py"),
        fault, "--",
    ]
    proc = subprocess.Popen(
        [
            sys.executable, *entry, "serve",
            "--unix", sock_path,
            "--checkpoint-dir", str(ck),
            "--queue-depth", "2",
            "--shard-backend", shard_backend,
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


class TestChurnedSOSResume:
    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_a_stream_cut_after_gains_and_losses_resumes(
        self, tmp_path, shard_backend
    ):
        """The checkpoint's SOS is its initial runs plus non-empty gains
        and losses; the restored live set is the uninterrupted run's at
        that epoch, and the resumed REPORT the offline one."""
        trace = tmp_path / "churn.jsonl"
        save_stream_file(churn_partition(), str(trace))
        ck = tmp_path / "ck"

        def config(name):
            return ServeConfig(
                unix_path=str(tmp_path / f"{name}.sock"),
                checkpoint_dir=str(ck),
                shard_backend=shard_backend,
            )

        with ServerThread(config("a")) as daemon:
            sock = raw_handshake(daemon.address, trace, "s1", 7)
            wait_for_checkpoint(ck, min_epoch=5)
            sock.close()  # abandon mid-stream
        _path, checkpoint = wait_for_checkpoint(ck, min_epoch=5)
        sos = checkpoint.analysis.sos
        assert type(sos._initial) is LocationRuns
        assert sos._gained and sos._lost

        source = iter_load(str(trace))
        guard = make_guard("addrcheck", source.preallocated)
        engine = ButterflyEngine(guard)
        engine.attach_source(source)
        for lid, row in zip(range(checkpoint.next_epoch), source.epochs()):
            engine.feed_blocks(lid, row)
        engine.close()
        assert sos._live == guard.sos._live

        with ServerThread(config("b")) as daemon:
            client = StreamClient(
                daemon.address, str(trace), "s1", policy=fast(2)
            )
            served = client.push()
        assert client.last_ack["resume_epoch"] == checkpoint.next_epoch
        assert served == offline_report(trace, "s1")
        assert served["errors"]


class TestKilledDaemon:
    # (killed daemon's backend, restarted daemon's backend): same-
    # backend resume both ways, plus one cross-backend pair proving the
    # checkpoint format is shard-backend agnostic.
    @pytest.mark.parametrize("first_backend,second_backend", [
        ("thread", "thread"),
        ("process", "process"),
        ("process", "thread"),
    ])
    def test_sigkill_mid_epoch_then_resume(
        self, tmp_path, first_backend, second_backend
    ):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=300, seed=9)
        ck = tmp_path / "ck"
        proc, address = start_daemon(tmp_path, "a.sock", ck, first_backend)
        try:
            sock = raw_handshake(address, trace, "s1", 5)
            _, checkpoint = wait_for_checkpoint(ck, min_epoch=2)
            committed = checkpoint.next_epoch
            proc.kill()  # SIGKILL: no drain, no final checkpoint
            proc.wait(timeout=10)
            sock.close()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()

        proc, address = start_daemon(
            tmp_path, "b.sock", ck, second_backend
        )
        try:
            client = StreamClient(
                address, str(trace), "s1", policy=fast(2)
            )
            served = client.push()
            # Resumed from a committed boundary at or past what we saw:
            # the killed daemon's folded epochs were not re-fed.
            assert client.last_ack["resume_epoch"] >= committed
            assert served == offline_report(trace, "s1")
            # Nothing outlives the completed stream: not its checkpoint,
            # and not the temp files of the saves the SIGKILL cut short.
            wait_for_empty(ck)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
