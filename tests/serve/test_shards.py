"""Shard backends: process shards must be indistinguishable from
thread shards in every report, and a dead worker process must be
contained to its streams and healed by checkpoint resume."""

import json
import time

import pytest

from repro.errors import ReproError
from repro.serve import (
    SHARD_BACKEND_CHOICES,
    ReproServer,
    ServeConfig,
    ServerThread,
    StreamClient,
    push_trace,
)
from repro.serve.client import read_frame_sync
from repro.serve.protocol import (
    FRAME_END,
    FRAME_EPOCH,
    FRAME_ERROR,
    LIFEGUARD_CHOICES,
    encode_frame,
    encode_json_frame,
    make_hello,
    resume_token,
)
from repro.serve.shards import build_stream_engine, make_guard

from tests.serve.conftest import offline_report, write_trace
from tests.serve.test_resume import wait_for_checkpoint
from tests.serve.test_server import fast, raw_handshake


def test_choices_cover_both_backends():
    assert SHARD_BACKEND_CHOICES == ("thread", "process")


def test_unknown_shard_backend_rejected():
    """The daemon's constructor is the one refusal: shards are built
    from the same table the choices come from."""
    with pytest.raises(
        ReproError,
        match=r"unknown shard backend 'greenlet' \(choose from thread, process\)",
    ):
        ReproServer(ServeConfig(shard_backend="greenlet"))


def test_make_guard_builds_every_choice_and_nothing_else():
    for name in LIFEGUARD_CHOICES:
        guard = make_guard(name, frozenset({7}))
        assert name.replace("check", "") in type(guard).__name__.lower()
    # A typo used to come back as a RaceCheck.
    with pytest.raises(ReproError, match="unknown lifeguard 'racecheck'"):
        make_guard("racecheck", frozenset())


def test_build_stream_engine_fresh():
    hello = make_hello("s", 2, 3, (), "addrcheck")
    engine, resume_epoch = build_stream_engine(
        hello, resume_token(hello), None, 1, "serial"
    )
    try:
        assert resume_epoch == 0
        assert engine._next_to_receive == 0
    finally:
        engine.close()


class TestCrossBackendIdentity:
    def test_reports_bit_identical_across_backends(self, tmp_path):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, threads=3, events=400, seed=13)
        reports = {}
        for backend in SHARD_BACKEND_CHOICES:
            config = ServeConfig(
                unix_path=str(tmp_path / f"{backend}.sock"),
                shard_backend=backend,
                workers=2,
            )
            with ServerThread(config) as daemon:
                reports[backend] = push_trace(
                    daemon.address, str(trace), "same-stream"
                )
        expected = offline_report(trace, "same-stream")
        # Bit-identical means bit-identical: compare the serialized
        # bytes, not just dict equality, so key order counts too.
        assert (
            json.dumps(reports["thread"])
            == json.dumps(reports["process"])
            == json.dumps(expected)
        )


class TestWorkerDeath:
    def _worker_proc(self, daemon, stream_id):
        shard = daemon.server.shard_for(stream_id)
        deadline = time.monotonic() + 10.0
        while shard._proc is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert shard._proc is not None, "worker never spawned"
        return shard._proc

    def test_killed_worker_fails_session_resumably(self, tmp_path):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=300, seed=3)
        ck = tmp_path / "ck"
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"),
            checkpoint_dir=str(ck),
            shard_backend="process",
            workers=1,
            # Deeper than the trace so the read loop never blocks on a
            # dead consumer's full queue.
            queue_depth=64,
        )
        with ServerThread(config) as daemon:
            with open(trace) as fp:
                epochs = json.loads(fp.readline())["epochs"]
            sock = raw_handshake(daemon.address, trace, "victim", 2)
            wait_for_checkpoint(ck, min_epoch=1)
            proc = self._worker_proc(daemon, "victim")
            proc.kill()
            proc.join(10.0)
            # Deliver the rest: the dead shard surfaces as this one
            # session's ERROR internal, with resume coordinates -- the
            # daemon itself stays up.
            with open(trace) as fp:
                fp.readline()
                lines = [line.strip() for line in fp]
            for line in lines[2:epochs]:
                sock.sendall(encode_frame(FRAME_EPOCH, line.encode()))
            sock.sendall(encode_json_frame(
                FRAME_END, {"epochs_written": epochs}
            ))
            ftype, payload = read_frame_sync(sock)
            sock.close()
            assert ftype == FRAME_ERROR
            answer = json.loads(payload)
            assert answer["code"] == "internal"
            assert answer["token"]
            assert answer["resume_epoch"] >= 1

            # The shard respawns a fresh worker; the stream resumes
            # from its checkpoint and the report is offline-identical.
            client = StreamClient(
                daemon.address, str(trace), "victim",
                policy=fast(2),
            )
            served = client.push()
            assert client.last_ack["resume_epoch"] >= 1
            assert served == offline_report(trace, "victim")

    def test_worker_respawns_between_streams(self, tmp_path):
        trace = tmp_path / "t.stream.jsonl"
        write_trace(trace, events=200, seed=4)
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"),
            shard_backend="process",
            workers=1,
        )
        with ServerThread(config) as daemon:
            first = push_trace(daemon.address, str(trace), "a")
            proc = self._worker_proc(daemon, "a")
            proc.kill()
            proc.join(10.0)
            # A dead idle worker is respawned transparently on the next
            # stream's open -- no error surfaces anywhere.
            second = push_trace(daemon.address, str(trace), "a")
            assert json.dumps(second) == json.dumps(first)
