"""The cyclic collector around ``decode_epoch_text``: paused for one
record's parse -> columns lifetime, and left as it was found on every
way out of it (``collector``: the fixture in ``tests/conftest.py``)."""

import gc
import os
import sys
import threading

import pytest

from repro.errors import TraceError
from repro.trace import serialize
from repro.trace.serialize import (
    decode_epoch_text,
    iter_load,
    save_stream_file,
)

from tests.trace.test_serialize import stream_partition, stream_text


@pytest.fixture
def partition():
    return stream_partition(seed=3)[1]


@pytest.fixture
def lines(partition):
    return stream_text(partition).splitlines()


@pytest.fixture
def stream_file(partition, tmp_path):
    path = tmp_path / "t.stream.jsonl"
    save_stream_file(partition, path)
    return path


def test_paused_inside_and_restored_after_a_decode(
    collector, lines, monkeypatch
):
    decode_row = serialize.decode_epoch_row
    seen = []

    def spying(*args):
        seen.append(gc.isenabled())
        return decode_row(*args)

    monkeypatch.setattr(serialize, "decode_epoch_row", spying)
    row = decode_epoch_text(lines[1], 0, 2, "t", 2)
    assert [block.tid for block in row] == [0, 1]
    assert seen == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("text", [
    '{"epoch": 0, "starts": [0, 0], "blocks": [[["read", null, [], 1]], []]}',
    '{"epoch": 0, "starts": [0, 0], "blocks": [[["nop", null, [], 1]',
    b"\xff\xfe not utf-8",
])
def test_restored_after_a_trace_error(collector, text):
    with pytest.raises(TraceError, match="t:2: "):
        decode_epoch_text(text, 0, 2, "t", 2)
    assert gc.isenabled() is collector


def test_never_held_while_the_consumer_of_epochs_runs(
    collector, stream_file
):
    rows = 0
    for _row in iter_load(stream_file).epochs():
        assert gc.isenabled() is collector
        rows += 1
    assert rows > 2
    assert gc.isenabled() is collector


def test_restored_after_closing_a_half_consumed_generator(
    collector, stream_file
):
    epochs = iter_load(stream_file).epochs()
    next(epochs)
    next(epochs)
    epochs.close()
    assert gc.isenabled() is collector


def test_a_decode_finishing_inside_anothers_pause_does_not_end_it(
    lines, monkeypatch
):
    """Two threads: B starts after A and finishes first.  The collector
    must stay off until A -- the outermost -- is done, then come back."""
    assert gc.isenabled()
    decode_row = serialize.decode_epoch_row
    a_inside, b_done, failures = threading.Event(), threading.Event(), []

    def staged(record, lid, *rest):
        if lid == 0:  # thread A: hold the pause open across B's decode
            a_inside.set()
            if not b_done.wait(10.0):
                failures.append("B never finished")
            if gc.isenabled():
                failures.append("B's exit ended A's pause")
        return decode_row(record, lid, *rest)

    monkeypatch.setattr(serialize, "decode_epoch_row", staged)

    def thread_b():
        if not a_inside.wait(10.0):
            failures.append("A never started")
        decode_epoch_text(lines[2], 1, 2, "b", 3)
        b_done.set()

    threads = [
        threading.Thread(target=decode_epoch_text,
                         args=(lines[1], 0, 2, "a", 2)),
        threading.Thread(target=thread_b),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20.0)
        assert not thread.is_alive()
    assert failures == []
    assert gc.isenabled()


def test_many_threads_leave_the_collector_on_and_the_count_at_zero(lines):
    """More decoders than cores, switching every few bytecodes: a lost
    update to the depth count would strand the collector off (or turn
    it on under a decode still running)."""
    assert gc.isenabled()
    failures = []

    def worker():
        try:
            for _ in range(40):
                decode_epoch_text(lines[1], 0, 2, "t", 2)
        except BaseException as exc:  # reported below, on the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert serialize._collector_paused._depth == 0
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_mid_decode_gets_its_collector_back(
    lines, monkeypatch
):
    """A shard thread's engine may fork its process pool while the loop
    thread is mid-decode; nobody in the child will ever end that pause."""
    assert gc.isenabled()
    decode_row = serialize.decode_epoch_row
    statuses = []

    def forking(*args):
        pid = os.fork()
        if pid == 0:
            ok = gc.isenabled() and serialize._collector_paused._depth == 0
            os._exit(0 if ok else 1)
        statuses.append(os.waitpid(pid, 0)[1])
        return decode_row(*args)

    monkeypatch.setattr(serialize, "decode_epoch_row", forking)
    decode_epoch_text(lines[1], 0, 2, "t", 2)
    assert statuses == [0]
    assert gc.isenabled()
