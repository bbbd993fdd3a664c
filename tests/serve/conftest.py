"""Shared fixtures for the serve daemon tests."""

import json
import random

import pytest

from repro.core.epoch import partition_auto
from repro.core.framework import ButterflyEngine
from repro.serve import ServeConfig, ServerThread, build_report, make_hello
from repro.serve.server import make_guard
from repro.trace.generator import simulated_alloc_program
from repro.trace.serialize import (
    iter_load,
    save_stream_file,
    stream_header,
)


def write_trace(path, threads=2, events=200, h=8, seed=0):
    """A stream trace file (version 4); returns its partition."""
    prog = simulated_alloc_program(
        random.Random(seed), num_threads=threads, total_events=events
    )
    partition = partition_auto(prog, h)
    save_stream_file(partition, str(path))
    return partition


def offline_report(path, stream_id, lifeguard="addrcheck"):
    """The report offline ``repro check`` computes over the same file,
    JSON round-tripped so it compares bit-for-bit with a wire REPORT."""
    with open(path) as fp:
        header = stream_header(fp, str(path))
    guard = make_guard(lifeguard, frozenset(header["preallocated"]))
    engine = ButterflyEngine(guard)
    try:
        engine.run_source(iter_load(str(path)))
    finally:
        engine.close()
    hello = make_hello(
        stream_id,
        header["threads"],
        header["epochs"],
        header["preallocated"],
        lifeguard,
    )
    return json.loads(
        json.dumps(build_report(stream_id, hello, engine, guard))
    )


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.stream.jsonl"
    write_trace(path)
    return path


@pytest.fixture(params=["thread", "process"])
def daemon(request, tmp_path):
    """A running in-process daemon on a Unix socket; stopped on exit.

    Parametrized over both shard backends: every daemon-facing test --
    end-to-end pushes, transport faults, the overload ladder (shed),
    backpressure accounting -- must behave identically whether engines
    live on shard threads or in shard worker processes.
    """
    thread = ServerThread(
        ServeConfig(
            unix_path=str(tmp_path / "serve.sock"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            queue_depth=2,
            idle_timeout=5.0,
            shard_backend=request.param,
        )
    )
    with thread:
        yield thread
