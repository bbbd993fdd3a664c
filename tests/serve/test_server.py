"""Integration tests for the serve daemon: correctness, concurrency,
fault isolation, backpressure, and the overload ladder."""

import json
import socket
import threading
import time

import pytest

from repro.core.columnar import ColumnarBlock
from repro.errors import ReproError
from repro.obs.recorder import Recorder
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import RetryPolicy
from repro.serve import (
    ReproServer,
    ServeConfig,
    ServeErrorFrame,
    ServerThread,
    StreamClient,
    push_trace,
)
from repro.serve.client import read_frame_sync
from repro.serve.protocol import (
    FRAME_ACK,
    FRAME_END,
    FRAME_EPOCH,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_REPORT,
    encode_frame,
    encode_json_frame,
    make_hello,
)
from repro.serve.shards import ThreadShard
from repro.trace.serialize import stream_header

from tests.serve.conftest import offline_report, write_trace


def fast(retries):
    """A zero-backoff policy of ``retries`` reconnects: tests exercise
    the retry *logic*, not its production pacing."""
    return RetryPolicy(
        max_retries=retries, backoff_base=0.0, backoff_max=0.0
    )


def connect(address):
    kind, where = address
    sock = socket.socket(
        socket.AF_UNIX if kind == "unix" else socket.AF_INET,
        socket.SOCK_STREAM,
    )
    sock.settimeout(10.0)
    sock.connect(where)
    return sock


def raw_handshake(address, path, stream_id, epochs_to_send=0):
    """HELLO + ``epochs_to_send`` raw epoch frames; the open socket."""
    with open(path) as fp:
        header = stream_header(fp, str(path))
        lines = [fp.readline() for _ in range(epochs_to_send)]
    hello = make_hello(
        stream_id, header["threads"], header["epochs"],
        header["preallocated"], "addrcheck",
    )
    sock = connect(address)
    sock.sendall(encode_json_frame(FRAME_HELLO, hello))
    ftype, payload = read_frame_sync(sock)
    assert ftype == FRAME_ACK, payload
    for line in lines:
        sock.sendall(encode_frame(FRAME_EPOCH, line.strip().encode()))
    return sock


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("workers", 0),
        ("queue_depth", 0),
        ("max_streams", 0),
        ("max_pending_epochs", -1),
        ("checkpoint_every", 0),
        ("idle_timeout", 0),
        ("idle_timeout", -1.0),
        ("shard_backend", "fiber"),
    ])
    def test_a_bad_field_is_refused_before_the_daemon_starts(
        self, field, value
    ):
        # Not once per stream: checkpoint_every=0 used to start and then
        # fail every stream with ERROR token, max_streams=0 with ERROR
        # busy, idle_timeout=-1 with ERROR timeout.
        with pytest.raises(ReproError, match=field.replace("_", " ")):
            ReproServer(ServeConfig(**{field: value}))


class TestEndToEnd:
    def test_report_matches_offline_run(self, daemon, trace_file):
        served = push_trace(daemon.address, str(trace_file), "s1")
        assert served == offline_report(trace_file, "s1")

    def test_taintcheck_stream(self, daemon, trace_file):
        served = push_trace(
            daemon.address, str(trace_file), "s1", lifeguard="taintcheck"
        )
        assert served == offline_report(
            trace_file, "s1", lifeguard="taintcheck"
        )

    def test_tcp_transport(self, tmp_path, trace_file):
        with ServerThread(ServeConfig(port=0)) as daemon:
            assert daemon.address[0] == "tcp"
            served = push_trace(daemon.address, str(trace_file), "s1")
        assert served == offline_report(trace_file, "s1")

    def test_window_bound_holds_under_push(self, daemon, trace_file):
        report = push_trace(daemon.address, str(trace_file), "s1")
        assert report["window_high_water"] <= report["window_bound"]

    def test_checkpoint_removed_after_completion(
        self, daemon, trace_file, tmp_path
    ):
        push_trace(daemon.address, str(trace_file), "s1")
        # The daemon unlinks just after flushing the REPORT frame, so
        # give the loop thread a beat to get there.
        deadline = time.monotonic() + 5.0
        while list((tmp_path / "ckpt").glob("*.ckpt")):
            assert time.monotonic() < deadline, "checkpoint not removed"
            time.sleep(0.01)

    def test_concurrent_streams_all_correct(self, daemon, tmp_path):
        paths = {}
        for i in range(6):
            path = tmp_path / f"t{i}.stream.jsonl"
            write_trace(path, threads=2 + i % 2, events=150, seed=i)
            paths[f"stream-{i}"] = path
        results, errors = {}, []

        def push(sid, path):
            try:
                results[sid] = push_trace(daemon.address, str(path), sid)
            except Exception as exc:  # pragma: no cover - assertion aid
                errors.append((sid, exc))

        threads = [
            threading.Thread(target=push, args=(sid, path))
            for sid, path in paths.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for sid, path in paths.items():
            assert results[sid] == offline_report(path, sid)


class TestTransportFaults:
    def test_faulted_push_matches_clean_report(self, daemon, trace_file):
        plan = FaultPlan(
            disconnect=0.08, trunc_frame=0.05, corrupt_bytes=0.05, seed=3
        )
        served = push_trace(
            daemon.address, str(trace_file), "faulty",
            plan=plan, retries=40,
        )
        expected = offline_report(trace_file, "faulty")
        assert served == expected

    def test_corrupt_bytes_in_a_packed_block_draw_error_protocol(
        self, trace_file, tmp_path
    ):
        """The client's ``corrupt_bytes`` fault flips the middle payload
        byte.  In a version 4 record that byte is inside a packed block
        (a bad hex digit or a digest mismatch), and the shard's decode
        refuses it as it refuses invalid JSON: ``ERROR protocol``, with
        the daemon healthy after."""
        config = ServeConfig(
            unix_path=str(tmp_path / "flip.sock"), shard_backend="thread"
        )
        with ServerThread(config) as daemon:
            client = StreamClient(
                daemon.address, str(trace_file), "flip",
                plan=FaultPlan(corrupt_bytes=1.0, seed=1), policy=fast(0),
            )
            with pytest.raises(ServeErrorFrame) as exc:
                client.push()
            assert exc.value.code == "protocol"
            assert "malformed packed block" in exc.value.payload["error"]
            served = push_trace(daemon.address, str(trace_file), "good")
        assert served == offline_report(trace_file, "good")

    def test_corrupt_frame_is_contained_to_its_stream(
        self, daemon, trace_file
    ):
        sock = raw_handshake(daemon.address, trace_file, "bad", 1)
        sock.sendall(encode_frame(FRAME_EPOCH, b"definitely not json"))
        ftype, payload = read_frame_sync(sock)
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert answer["token"]  # resumable: the good epoch survived
        sock.close()
        # The daemon is still healthy: a fresh stream completes.
        served = push_trace(daemon.address, str(trace_file), "good")
        assert served == offline_report(trace_file, "good")

    def test_a_list_block_draws_error_protocol(self, daemon, trace_file):
        """Version 2's block form -- a list of rows, here well formed --
        inside an otherwise valid record is refused by the shard's
        decode, thread or process, as the file reader refuses it."""
        with open(trace_file) as fp:
            stream_header(fp, str(trace_file))
            epoch = json.loads(fp.readline())
        epoch["blocks"][1] = ColumnarBlock.from_rows(
            epoch["blocks"][1]
        ).to_rows()
        assert epoch["blocks"][1]
        sock = raw_handshake(daemon.address, trace_file, "rows", 0)
        sock.sendall(encode_json_frame(FRAME_EPOCH, epoch))
        ftype, payload = read_frame_sync(sock)
        sock.close()
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert "epoch 0 thread 1: malformed block record" in answer["error"]
        served = push_trace(daemon.address, str(trace_file), "good")
        assert served == offline_report(trace_file, "good")

    @pytest.mark.parametrize("bad_row", [
        ["write", True, [3], 1],
        ["malloc", 5, [], True],
        ["write", 2**63, [3], 1],
        ["malloc", 5, [], 2**64],
        ["malloc", -(2**63), [], 1],
        ["malloc", 2**63 - 2, [], 4],
    ])
    def test_boolean_for_an_integer_is_refused_not_analysed(
        self, daemon, trace_file, bad_row
    ):
        """``isinstance(True, int)``: the EPOCH decoder used to take a
        JSON ``true`` as location (or size) 1 and fold it -- and answer
        an integer the int64 columns cannot hold with ``serve error
        [internal]: OverflowError``.  A row can only ride in a list
        block now, which is refused before any row is read."""
        with open(trace_file) as fp:
            stream_header(fp, str(trace_file))
            epoch = json.loads(fp.readline())
        epoch["blocks"][0] = ColumnarBlock.from_rows(
            epoch["blocks"][0]
        ).to_rows() + [bad_row]
        sock = raw_handshake(daemon.address, trace_file, "bool", 0)
        sock.sendall(encode_json_frame(FRAME_EPOCH, epoch))
        ftype, payload = read_frame_sync(sock)
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert "malformed block record" in answer["error"]
        sock.close()
        served = push_trace(daemon.address, str(trace_file), "good")
        assert served == offline_report(trace_file, "good")

    @pytest.mark.parametrize("start", [True, -1])
    def test_block_start_must_be_a_non_negative_integer(
        self, daemon, trace_file, start
    ):
        """A ``true`` (or negative) block start used to be folded into a
        REPORT."""
        with open(trace_file) as fp:
            stream_header(fp, str(trace_file))
            epoch = json.loads(fp.readline())
        epoch["starts"][0] = start
        sock = raw_handshake(daemon.address, trace_file, "start", 0)
        sock.sendall(encode_json_frame(FRAME_EPOCH, epoch))
        ftype, payload = read_frame_sync(sock)
        sock.close()
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert "malformed block record" in answer["error"]

    @pytest.mark.parametrize(
        "prealloc", [[[1]], ["x", True, 1.5, 7], [[1, 3], [3, 5]]]
    )
    def test_hello_preallocated_must_be_exactly_integers(
        self, daemon, trace_file, prealloc
    ):
        """``isinstance(True, int)`` again: HELLO used to accept
        ``true`` as preallocated location 1.  Its runs must also be
        canonical: touching runs are refused like a bad location."""
        hello = make_hello("pre", 2, 1, [], "addrcheck")
        hello["preallocated"] = prealloc
        sock = connect(daemon.address)
        sock.sendall(encode_json_frame(FRAME_HELLO, hello))
        ftype, payload = read_frame_sync(sock)
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert "bad preallocated set" in answer["error"]
        assert sock.recv(1) == b""  # terminal: the daemon hung up
        sock.close()
        served = push_trace(daemon.address, str(trace_file), "good")
        assert served == offline_report(trace_file, "good")

    def test_a_version_2_hello_draws_error_protocol(
        self, daemon, trace_file
    ):
        """Version 2 carried each flag as a keyed object; a client that
        speaks it would misread a version 3 REPORT's row arrays, so its
        HELLO is refused before any stream state exists."""
        with open(trace_file) as fp:
            header = stream_header(fp, str(trace_file))
        hello = make_hello("v2", header["threads"], header["epochs"],
                           header["preallocated"])
        hello["version"] = 2
        sock = connect(daemon.address)
        sock.sendall(encode_json_frame(FRAME_HELLO, hello))
        ftype, payload = read_frame_sync(sock)
        assert ftype == FRAME_ERROR
        answer = json.loads(payload)
        assert answer["code"] == "protocol"
        assert "unsupported protocol version 2" in answer["error"]
        assert sock.recv(1) == b""  # terminal: the daemon hung up
        sock.close()
        served = push_trace(daemon.address, str(trace_file), "good")
        assert served == offline_report(trace_file, "good")
        assert served["errors"]
        assert all(len(row) == 5 for row in served["errors"])

    def test_idle_producer_times_out(self, tmp_path, trace_file):
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"), idle_timeout=0.2
        )
        with ServerThread(config) as daemon:
            sock = raw_handshake(daemon.address, trace_file, "quiet", 1)
            ftype, payload = read_frame_sync(sock)  # stall past timeout
            assert ftype == FRAME_ERROR
            assert json.loads(payload)["code"] == "timeout"
            sock.close()

    def test_slow_trickle_inside_a_frame_is_not_idle(
        self, tmp_path, trace_file
    ):
        # Regression: read_frame used to wrap the whole header+payload
        # read in ONE wait_for, so a live producer trickling a large
        # frame slower than idle_timeout was killed as "idle" mid-frame.
        # The deadline is per read now -- progress resets it -- so a
        # trickled delivery slower than the timeout must still complete.
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"), idle_timeout=0.3
        )
        with open(trace_file) as fp:
            header = stream_header(fp, str(trace_file))
            lines = [line.strip() for line in fp if line.strip()]
        epochs = header["epochs"]
        with ServerThread(config) as daemon:
            sock = raw_handshake(daemon.address, trace_file, "drip", 0)
            # Trickle the first epoch frame in small chunks, pausing
            # between them so the frame takes several idle_timeouts end
            # to end while no single gap exceeds the deadline.
            frame = encode_frame(FRAME_EPOCH, lines[0].encode())
            step = max(1, len(frame) // 6)
            for off in range(0, len(frame), step):
                sock.sendall(frame[off:off + step])
                time.sleep(0.15)
            for line in lines[1:epochs]:
                sock.sendall(encode_frame(FRAME_EPOCH, line.encode()))
            sock.sendall(encode_json_frame(
                FRAME_END, {"epochs_written": epochs}
            ))
            ftype, payload = read_frame_sync(sock)
            sock.close()
        assert ftype == FRAME_REPORT, payload
        assert json.loads(payload) == offline_report(trace_file, "drip")

    def test_stalling_producer_recovers_through_retries(
        self, tmp_path, trace_file
    ):
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"),
            checkpoint_dir=str(tmp_path / "ck"),
            idle_timeout=0.3,
        )
        plan = FaultPlan(stall=0.25, stall_s=1.0, seed=7)
        with ServerThread(config) as daemon:
            served = StreamClient(
                daemon.address, str(trace_file), "slow",
                plan=plan, policy=fast(40),
            ).push()
        assert served == offline_report(trace_file, "slow")


class TestOverloadLadder:
    def test_duplicate_stream_id_refused(self, daemon, trace_file):
        sock = raw_handshake(daemon.address, trace_file, "dup", 1)
        with pytest.raises(ServeErrorFrame, match="already connected"):
            StreamClient(
                daemon.address, str(trace_file), "dup",
                policy=fast(0),
            ).push()
        sock.close()

    def test_stream_cap_refuses_connects(self, tmp_path, trace_file):
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"), max_streams=1
        )
        with ServerThread(config, Recorder()) as daemon:
            sock = raw_handshake(daemon.address, trace_file, "first", 1)
            with pytest.raises(ServeErrorFrame, match="cap"):
                StreamClient(
                    daemon.address, str(trace_file), "second",
                    policy=fast(0),
                ).push()
            sock.close()
            snapshot = daemon.server.recorder.snapshot()
        assert snapshot["counters"]["serve.connects_refused"] == 1

    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_shed_newest_is_resumable(
        self, tmp_path, trace_file, shard_backend
    ):
        # max_pending_epochs=0: the very first queued epoch trips the
        # shed rung, and the (only, hence newest) stream is evicted with
        # its checkpoint intact.
        shed_config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"),
            checkpoint_dir=str(tmp_path / "ck"),
            max_pending_epochs=0,
            shard_backend=shard_backend,
        )
        with ServerThread(shed_config, Recorder()) as daemon:
            with pytest.raises(ServeErrorFrame) as exc_info:
                StreamClient(
                    daemon.address, str(trace_file), "victim",
                    policy=fast(0),
                ).push()
            snapshot = daemon.server.recorder.snapshot()
        assert exc_info.value.code == "shed"
        assert snapshot["counters"]["serve.streams_shed"] >= 1
        assert list((tmp_path / "ck").glob("*.ckpt"))
        # A healthy daemon on the same checkpoint dir finishes the run.
        ok_config = ServeConfig(
            unix_path=str(tmp_path / "s2.sock"),
            checkpoint_dir=str(tmp_path / "ck"),
        )
        with ServerThread(ok_config) as daemon:
            served = StreamClient(
                daemon.address, str(trace_file), "victim",
                policy=fast(5),
            ).push()
        assert served == offline_report(trace_file, "victim")


class TestBackpressure:
    def test_stalls_counted_and_accounting_balances(
        self, tmp_path, trace_file, monkeypatch
    ):
        # Whether the loop ever meets a full queue is a race between its
        # decode and the shard's fold, so the fold is held: no feed
        # runs until the loop has counted one stall (epoch 0 is with
        # the consumer, epoch 1 fills the queue, epoch 2 stalls).
        stalled = threading.Event()
        count, call = ReproServer.count, ThreadShard._call

        def counting(server, name, delta=1):
            if name == "backpressure_stalls":
                stalled.set()
            count(server, name, delta)

        def held(shard, command, *args):
            if command == "feed":
                assert stalled.wait(10.0), "the loop never met a full queue"
            return call(shard, command, *args)

        monkeypatch.setattr(ReproServer, "count", counting)
        monkeypatch.setattr(ThreadShard, "_call", held)
        config = ServeConfig(
            unix_path=str(tmp_path / "s.sock"), queue_depth=1
        )
        with ServerThread(config, Recorder()) as daemon:
            push_trace(daemon.address, str(trace_file), "s1")
            snapshot = daemon.server.recorder.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.backpressure_stalls"] >= 1
        assert (
            counters["serve.epochs_received"]
            == counters["serve.epochs_folded"]
        )
        assert snapshot["gauges"]["serve.pending_epochs"] == 0
        assert counters["serve.bytes_ingested"] > 0
