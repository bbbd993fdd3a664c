"""``repro serve --adaptive-epoch``: online epoch folding, recorded
boundaries, offline replayability, and the checkpoint mode guard."""

import json
import os
import random

import pytest

from repro.core.epoch import (
    SloConfig,
    partition_auto,
    partition_from_boundaries,
)
from repro.core.framework import ButterflyEngine
from repro.errors import CheckpointError
from repro.serve import ServeConfig, ServerThread, StreamClient, push_trace
from repro.serve.protocol import build_report, make_hello, resume_token
from repro.serve.shards import build_stream_engine, make_guard
from repro.trace.generator import alloc_handoff_program
from repro.trace.serialize import save_stream_file

from tests.serve.conftest import offline_report
from tests.serve.test_resume import wait_for_checkpoint
from tests.serve.test_server import fast, raw_handshake


def handoff_trace(tmp_path, h=4, seed=3, threads=3, events=120):
    """A saved stream whose FP rate genuinely depends on the
    heartbeat (allocation handoffs land in the wings)."""
    prog = alloc_handoff_program(
        random.Random(seed), num_threads=threads, events_per_thread=events
    )
    partition = partition_auto(prog, h)
    path = tmp_path / "handoff.stream.jsonl"
    save_stream_file(partition, str(path))
    return prog, partition, path


def adaptive_config(tmp_path, name, fold, shard_backend="thread", ck=None):
    """An adaptive daemon with the fold factor pinned at ``fold`` so
    folding behavior is deterministic under test timing."""
    return ServeConfig(
        unix_path=str(tmp_path / f"{name}.sock"),
        checkpoint_dir=None if ck is None else str(ck),
        queue_depth=2,
        shard_backend=shard_backend,
        slo=SloConfig(min_fold=fold, max_fold=fold),
    )


def replay_report(prog, report, stream_id, producer_epochs, num_threads):
    """Re-check ``report`` offline over its own recorded boundaries."""
    replay = partition_from_boundaries(
        prog, [list(cuts) for cuts in report["boundaries"]]
    )
    guard = make_guard("addrcheck", prog.preallocated)
    with ButterflyEngine(guard) as engine:
        engine.run(replay)
    hello = make_hello(
        stream_id, num_threads, producer_epochs, sorted(prog.preallocated)
    )
    return json.loads(
        json.dumps(
            build_report(
                stream_id, hello, engine, guard,
                boundaries=replay.boundaries,
            )
        )
    )


class TestAdaptiveServe:
    @pytest.mark.parametrize("shard_backend", ["thread", "process"])
    def test_folds_and_replays_bit_identically(
        self, tmp_path, shard_backend
    ):
        prog, partition, path = handoff_trace(tmp_path)
        config = adaptive_config(tmp_path, "a", fold=4, shard_backend=shard_backend)
        with ServerThread(config) as daemon:
            served = push_trace(daemon.address, str(path), "s1")
        boundaries = served["boundaries"]
        # The daemon really coalesced: fewer analysis epochs than
        # producer rows, and every thread folded the same number.
        assert len(boundaries) == partition.num_threads
        assert 0 < len(boundaries[0]) < partition.num_epochs
        assert len({len(cuts) for cuts in boundaries}) == 1
        offline = replay_report(
            prog, served, "s1", partition.num_epochs, partition.num_threads
        )
        assert offline == served

    def test_non_folding_adaptive_matches_fixed_serve(self, tmp_path):
        prog, partition, path = handoff_trace(tmp_path)
        config = adaptive_config(tmp_path, "a", fold=1)
        with ServerThread(config) as daemon:
            served = push_trace(daemon.address, str(path), "s1")
        # Fold factor 1 means producer cuts are used verbatim...
        assert served.pop("boundaries") == [
            list(cuts) for cuts in partition.boundaries
        ]
        # ...and everything else matches a fixed-epoch offline run.
        assert served == offline_report(path, "s1")

    def test_adaptive_resume_across_restart(self, tmp_path):
        self.resume_across_restart(tmp_path, "thread")

    def test_adaptive_resume_across_restart_process_shards(self, tmp_path):
        # Adaptive progress crosses the worker pipe here.
        self.resume_across_restart(tmp_path, "process")

    def resume_across_restart(self, tmp_path, shard_backend):
        prog, partition, path = handoff_trace(tmp_path, events=200)
        ck = tmp_path / "ck"
        first = adaptive_config(
            tmp_path, "a", fold=2, shard_backend=shard_backend, ck=ck
        )
        with ServerThread(first) as daemon:
            sock = raw_handshake(daemon.address, path, "s1", 6)
            wait_for_checkpoint(ck, min_epoch=1)
            sock.close()  # abandon mid-stream

        second = adaptive_config(
            tmp_path, "b", fold=2, shard_backend=shard_backend, ck=ck
        )
        with ServerThread(second) as daemon:
            client = StreamClient(
                daemon.address, str(path), "s1", policy=fast(2)
            )
            served = client.push()
        # The resume coordinate is producer rows, not analysis epochs.
        assert client.last_ack["resume_epoch"] >= 2
        offline = replay_report(
            prog, served, "s1", partition.num_epochs, partition.num_threads
        )
        assert offline == served


class TestCheckpointModeGuard:
    def setup_stream(self, tmp_path, stream_id, h=4):
        prog = alloc_handoff_program(
            random.Random(7), num_threads=2, events_per_thread=80
        )
        partition = partition_auto(prog, h)
        hello = make_hello(
            stream_id,
            partition.num_threads,
            partition.num_epochs,
            sorted(prog.preallocated),
        )
        return partition, hello, resume_token(hello)

    ADAPTIVE = SloConfig(target_fold_ms=1000.0, min_fold=2, max_fold=2)

    def test_fixed_daemon_refuses_adaptive_checkpoint(self, tmp_path):
        partition, hello, token = self.setup_stream(tmp_path, "adaptive")
        ck = str(tmp_path / "ck")
        os.makedirs(ck)  # the daemon's loop normally creates this
        engine, resume = build_stream_engine(
            hello, token, ck, 1, "serial", self.ADAPTIVE
        )
        assert resume == 0
        for lid in range(4):
            engine.feed_blocks(lid, partition.epoch_blocks(lid))
        engine.close()

        with pytest.raises(CheckpointError, match="adaptive-epoch daemon"):
            build_stream_engine(hello, token, ck, 1, "serial", None)

        # The matching mode resumes, in producer-row coordinates: the
        # save after epoch 0 (rows 0-1) committed left out epoch 1, being
        # received, so its rows 2-3 are re-fed.
        resumed, resume = build_stream_engine(
            hello, token, ck, 1, "serial", self.ADAPTIVE
        )
        assert resume == 2
        resumed.close()

    def test_adaptive_daemon_refuses_fixed_checkpoint(self, tmp_path):
        partition, hello, token = self.setup_stream(tmp_path, "fixed")
        ck = str(tmp_path / "ck")
        os.makedirs(ck)
        engine, _ = build_stream_engine(hello, token, ck, 1, "serial", None)
        for lid in range(3):
            engine.feed_blocks(lid, partition.epoch_blocks(lid))
        engine.close()

        with pytest.raises(CheckpointError, match="fixed-epoch daemon"):
            build_stream_engine(
                hello, token, ck, 1, "serial", self.ADAPTIVE
            )
