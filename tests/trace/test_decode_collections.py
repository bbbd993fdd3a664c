"""Decoding a version 4 stream gives the cyclic collector nothing to do.

A packed record parses to one string per block, and nothing the decode
builds can form a cycle, so reading a whole stream -- beside a resident
heap a collection would have to walk -- starts no collection at all.
This is the deterministic half of
``benchmarks/test_streaming_overhead.py::
test_decode_does_not_pay_the_cyclic_collector``, which times the same
decode with the collector on and off.  Rows are what once made the
collector run: a version 1 file's per-instruction lists, decoded here
too to show the count can move.
"""

import gc
import random

from repro.core.epoch import partition_auto
from repro.trace.generator import simulated_alloc_program
from repro.trace.serialize import (
    iter_load,
    load_file,
    save_file,
    save_stream_file,
)


def collections():
    """Collections of every generation since the interpreter started."""
    return sum(stats["collections"] for stats in gc.get_stats())


def collections_during(fn):
    """How many collections ``fn()`` starts, from empty generations."""
    was = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        before = collections()
        fn()
        return collections() - before
    finally:
        if not was:
            gc.disable()


def test_decoding_a_version_4_stream_starts_no_collection(tmp_path):
    program = simulated_alloc_program(
        random.Random(5), num_threads=4, total_events=30_000
    )
    assert program.total_instructions >= 30_000
    stream, rows = tmp_path / "t.stream.jsonl", tmp_path / "t.v1.jsonl"
    save_stream_file(partition_auto(program, 512), stream)
    save_file(program, rows)
    resident = [[i] for i in range(400_000)]  # a heap for a collection

    def decode():
        epochs = 0
        for _row in iter_load(stream).epochs():
            epochs += 1
        assert epochs >= 10

    assert collections_during(decode) == 0
    assert collections_during(lambda: load_file(rows)) > 0
    del resident
