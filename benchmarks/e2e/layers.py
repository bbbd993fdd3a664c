"""Timing wrappers for the traced run, and the decode/daemon replays.

Every span is recorded from here, around calls into the program's
public functions; nothing inside ``src/`` is instrumented.  Spans are
aggregated in memory (seconds and call counts by name) and reported
when the run ends.  The untraced run uses :data:`PLAIN`, whose wrappers
hand back the very object they were given, so end-to-end numbers are
taken with no wrapper in the call path.
"""

from __future__ import annotations

import json
import os
import pickle
from collections import defaultdict
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List

from repro.core.columnar import ColumnarBlock
from repro.core.framework import ButterflyEngine
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.resilience.checkpoint import Checkpointer, load_checkpoint
from repro.serve.protocol import (
    FRAME_EPOCH,
    FRAME_REPORT,
    build_report,
    checkpoint_meta,
    decode_json_payload,
    encode_frame,
    encode_json_frame,
    format_report,
    make_hello,
    resume_token,
)
from repro.serve.shards import build_stream_engine, stream_checkpoint_path
from repro.trace.serialize import decode_epoch_row, stream_header

HOOKS = ("first_pass", "meet", "second_pass", "epoch_update")

#: Span names are the per-layer metric names wherever a span is a
#: metric; these three are only ever parts of one.
CHECKPOINT_SAVE = "resilience.checkpoint.save_s"
DECODE_ROW_TOTAL = "decode_epoch_row"  # decode_row_s + from_rows_s
ENCODE_REPORT = "encode_report_frame"


class _Plain:
    """Wrappers off: every method returns its argument untouched."""

    def call(self, _name: str, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def wrap(self, _name: str, fn: Callable) -> Callable:
        return fn

    def iter(self, _name: str, it: Iterable) -> Iterable:
        return it

    def guard(self, guard: Any, _layer: str) -> Any:
        return guard


PLAIN = _Plain()


class Trace:
    """Seconds and call counts by span name."""

    def __init__(self) -> None:
        self.s: Dict[str, float] = defaultdict(float)
        self.n: Dict[str, int] = defaultdict(int)

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.s[name] += perf_counter() - t0
            self.n[name] += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        return lambda *args: self.call(name, fn, *args)

    def scale(self, factor: float) -> None:
        """Turn every span's seconds into reference-host seconds."""
        for name in self.s:
            self.s[name] *= factor

    def iter(self, name: str, it: Iterable) -> Iterator:
        """Time each ``next()`` on ``it`` (the source's own work)."""
        it = iter(it)
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.s[name] += perf_counter() - t0
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def guard(self, guard: Any, layer: str) -> "TimedGuard":
        """Proxy ``guard`` so its hooks are timed as ``<layer>.<hook>_s``
        (``layer`` names the lifeguard's module)."""
        return TimedGuard(guard, self, layer)


def _unwrap(guard: Any) -> Any:
    return guard


class TimedGuard:
    """Delegating proxy timing the guard's four public hooks.

    Everything else (``errors``, ``evict_history``, ``recorder``...)
    falls through to the guard.  It pickles as the bare guard, so a
    checkpoint written through it has the production bytes.
    """

    def __init__(self, guard: Any, trace: Trace, layer: str) -> None:
        self._guard = guard
        self._trace = trace
        self._names = {hook: f"{layer}.{hook}_s" for hook in HOOKS}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._guard, name)

    def __reduce__(self):
        return (_unwrap, (self._guard,))

    def first_pass(self, block):
        return self._trace.call(self._names["first_pass"],
                                self._guard.first_pass, block)

    def meet(self, butterfly, wing_summaries):
        return self._trace.call(self._names["meet"], self._guard.meet,
                                butterfly, wing_summaries)

    def second_pass(self, butterfly, side_in):
        return self._trace.call(self._names["second_pass"],
                                self._guard.second_pass, butterfly, side_in)

    def epoch_update(self, lid, summaries):
        return self._trace.call(self._names["epoch_update"],
                                self._guard.epoch_update, lid, summaries)


class TimedCheckpointer(Checkpointer):
    """A :class:`Checkpointer` that times and sizes every snapshot."""

    def __init__(self, trace: Trace, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._trace = trace
        self.bytes = 0

    def save_now(self, engine: Any) -> None:
        self._trace.call(CHECKPOINT_SAVE, super().save_now, engine)
        self.bytes += os.path.getsize(self.path)


def _decode_row(tr: Trace, record: Dict[str, Any], lid: int, threads: int,
                name: str) -> list:
    """``decode_epoch_row`` timed whole, then its ``from_rows`` share
    measured by calling ``from_rows`` again on the same raw rows."""
    row = tr.call(DECODE_ROW_TOTAL, decode_epoch_row,
                  record, lid, threads, name, lid + 2)
    for raw in record["blocks"]:
        tr.call("core.columnar.from_rows_s", ColumnarBlock.from_rows, raw)
    return row


def replay_decode(path: str, tr: Trace) -> None:
    """Re-run the file reader's public pieces over ``path``, one timer
    each: what ``source.epochs()`` spends its time on."""
    with open(path) as fp:
        header = stream_header(fp, path)
        for lid in range(header["epochs"]):
            line = tr.call("trace.serialize.read_s", fp.readline)
            record = tr.call("trace.serialize.json_s", json.loads, line)
            row = _decode_row(tr, record, lid, header["threads"], path)
            for block in row:
                tr.call("core.columnar.to_rows_s", block.columns.to_rows)


def replay_daemon_stream(
    path: str, checkpoint_dir: str, process_shards: bool, tr: Trace
) -> Dict[str, Any]:
    """Do, serially and in this process, what client and daemon do to
    one pushed stream: frame, parse, decode, (pickle across the shard
    pipe,) fold with a checkpoint per epoch, report.

    The daemon runs the same public functions spread over its loop and
    shards; timing them here is what attributes a stream's CPU to
    modules without instrumenting the daemon.
    """
    with open(path) as fp:
        header = stream_header(fp, path)
        threads, epochs = header["threads"], header["epochs"]
        hello = make_hello("replay", threads, epochs,
                           header["preallocated"], "addrcheck")
        token = resume_token(hello)
        os.makedirs(checkpoint_dir, exist_ok=True)
        engine, _resume = build_stream_engine(
            hello, token, checkpoint_dir, 1, "serial"
        )
        checkpointer = TimedCheckpointer(
            tr, stream_checkpoint_path(checkpoint_dir, token),
            checkpoint_meta(hello, token), every=1,
        )
        engine.enable_checkpoints(checkpointer)
        engine.analysis = tr.guard(engine.analysis, "lifeguards.addrcheck")
        pickled = 0
        try:
            for lid in range(epochs):
                line = tr.call("trace.serialize.read_s", fp.readline)
                payload = line.strip().encode("utf-8")
                tr.call("serve.protocol.encode_frame_s", encode_frame,
                        FRAME_EPOCH, payload)
                record = tr.call("serve.protocol.decode_payload_s",
                                 decode_json_payload, FRAME_EPOCH, payload)
                row = _decode_row(tr, record, lid, threads, "replay")
                if process_shards:
                    blob = tr.call("core.columnar.pickle_roundtrip_s",
                                   pickle.dumps, ("feed", token, lid, row, 0))
                    row = tr.call("core.columnar.pickle_roundtrip_s",
                                  pickle.loads, blob)[3]
                    pickled += len(blob)
                tr.call("core.framework.feed_s", engine.feed_blocks, lid, row)
            tr.call("core.framework.finish_s", engine.finish)
            report = tr.call("serve.protocol.build_report_s", build_report,
                             "replay", hello, engine, engine.analysis)
            frame = tr.call(ENCODE_REPORT, encode_json_frame,
                            FRAME_REPORT, report)
            tr.call("serve.protocol.format_report_s",
                    format_report, report, "replay")
            tr.call("resilience.checkpoint.load_s",
                    load_checkpoint, checkpointer.path)
        finally:
            engine.close()
            if os.path.exists(checkpointer.path):
                os.unlink(checkpointer.path)
    return {
        "report": report,
        "report_bytes": len(frame),
        "checkpoint_bytes": checkpointer.bytes,
        "pickled_bytes": pickled,
    }


def recorder_on_ratio(source: Any, rows: List[list],
                      make_guard: Callable[[], Any], pairs: int = 3) -> float:
    """Sweep wall with a live ``Recorder()`` attached over the wall
    without one, interleaved, medians of ``pairs``."""

    def once(recorder: Any) -> float:
        engine = ButterflyEngine(make_guard(), recorder=recorder)
        t0 = perf_counter()
        engine.attach_source(source)
        for lid, row in enumerate(rows):
            engine.feed_blocks(lid, row)
        engine.finish()
        return perf_counter() - t0

    off, on = [], []
    for _ in range(pairs):
        off.append(once(NULL_RECORDER))
        on.append(once(Recorder()))
    return median(on) / median(off)
