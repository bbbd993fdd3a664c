"""Trace persistence: save/load traces as JSON lines.

Traces are the interchange unit of this library (the LBA log, in
effect), so they deserve a stable on-disk form.  Two layouts share the
``repro-trace`` envelope:

Version 1 (thread-major, :func:`dump` / :func:`load`)
    A header, then one line per thread's whole event list, then the
    optional orders and pre-allocated set.  Compact and diff-able, but
    a reader must materialize every thread before the first epoch can
    be cut -- O(trace) memory.

Version 2 (epoch-major stream, :func:`dump_stream` / :func:`iter_load`)
    A header carrying the shape (threads, epochs, preallocated), then
    one line *per epoch* holding that epoch's blocks for every thread,
    then an ``epochs_written`` footer that distinguishes a complete
    stream from a truncated one.  A reader holds one epoch at a time,
    so the butterfly engine can analyze traces far larger than RAM
    (see ``docs/streaming.md``).  Epoch records carry each block's
    start offset, so checkpoint resume can skip already-processed
    records without decoding them.

Every structural defect in either format -- invalid JSON, truncation,
trailing garbage, out-of-order epochs -- raises :class:`TraceError`
with ``file:line`` context, never a raw ``JSONDecodeError``.
"""

from __future__ import annotations

import gc
import json
import os
import threading
from pathlib import Path
from typing import IO, Iterator, List, Union

from repro.core.columnar import ColumnarBlock, RowDecodeError
from repro.core.epoch import Block, EpochPartition
from repro.core.stream import EpochSource
from repro.errors import TraceError
from repro.trace.events import Instr, Op
from repro.trace.program import ThreadTrace, TraceProgram

FORMAT_VERSION = 1
STREAM_VERSION = 2


def _decode_instr(raw: list) -> Instr:
    try:
        op, dst, srcs, size = raw
        # Exactly ``int``: JSON ``true`` and ``1.0`` both compare equal
        # to 1 and would otherwise be analysed as location (or size) 1.
        if not (
            type(size) is int
            and (dst is None or type(dst) is int)
            and all(type(s) is int for s in srcs)
        ):
            raise TypeError("locations and sizes must be integers")
        return Instr(Op(op), dst=dst, srcs=tuple(srcs), size=size)
    except (ValueError, TypeError) as exc:
        raise TraceError(f"malformed instruction record: {raw!r}") from exc


def dump(program: TraceProgram, fp: IO[str]) -> None:
    """Write ``program`` to an open text file."""
    header = {
        "format": "repro-trace",
        "version": FORMAT_VERSION,
        "threads": program.num_threads,
    }
    fp.write(json.dumps(header) + "\n")
    for trace in program.threads:
        # Positional, compact: [op, dst, srcs, size] per instruction.
        fp.write(json.dumps(trace.columns.to_rows()) + "\n")
    fp.write(json.dumps({"true_order": program.true_order}) + "\n")
    fp.write(json.dumps({"timesliced_order": program.timesliced_order}) + "\n")
    fp.write(json.dumps({"preallocated": sorted(program.preallocated)}) + "\n")


def load(fp: IO[str], name: str = "<trace>") -> TraceProgram:
    """Read a program written by :func:`dump`.

    Every structural defect -- invalid JSON, a truncated file, missing
    keys, wrong record shapes -- raises :class:`TraceError` carrying
    ``name`` and the offending line number, never a raw ``KeyError`` or
    ``ValueError``.  ``name`` defaults to a placeholder; ``load_file``
    passes the path.
    """
    lineno = 0

    def next_record(what: str) -> object:
        nonlocal lineno
        lineno += 1
        line = fp.readline()
        if not line.strip():
            raise TraceError(
                f"{name}:{lineno}: unexpected end of file "
                f"(expected {what})"
            )
        try:
            return json.loads(line)
        except ValueError as exc:
            raise TraceError(
                f"{name}:{lineno}: invalid JSON ({what}): {exc}"
            ) from None

    def tail_field(key: str) -> object:
        record = next_record(key)
        if not isinstance(record, dict) or key not in record:
            raise TraceError(
                f"{name}:{lineno}: expected a {{{key!r}: ...}} record, "
                f"got {record!r}"
            )
        return record[key]

    header = next_record("header")
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise TraceError(f"{name}:{lineno}: not a repro trace file")
    version = header.get("version")
    if version == STREAM_VERSION:
        raise TraceError(
            f"{name}:{lineno}: a version {STREAM_VERSION} file is an "
            "epoch-major stream with no recorded order: 'repro sweep' and "
            f"the oracle need a version {FORMAT_VERSION} program file "
            "('repro generate' without --stream); 'repro check --trace' "
            "reads this one"
        )
    if version != FORMAT_VERSION:
        raise TraceError(
            f"{name}:{lineno}: unsupported trace version {version!r}"
        )
    num_threads = header.get("threads")
    if not isinstance(num_threads, int) or num_threads < 0:
        raise TraceError(
            f"{name}:{lineno}: bad thread count {num_threads!r}"
        )
    threads: List[ThreadTrace] = []
    for tid in range(num_threads):
        raw = next_record(f"thread {tid} events")
        if not isinstance(raw, list):
            raise TraceError(
                f"{name}:{lineno}: thread {tid} events must be a list, "
                f"got {type(raw).__name__}"
            )
        try:
            threads.append(ThreadTrace([_decode_instr(r) for r in raw]))
        except TraceError as exc:
            raise TraceError(f"{name}:{lineno}: {exc}") from None
    true_order = tail_field("true_order")
    ts_order = tail_field("timesliced_order")
    preallocated = tail_field("preallocated")
    # The preallocated record is the last one; anything but trailing
    # whitespace after it means a concatenated/corrupted file, and
    # silently ignoring it would hide real data loss.
    for extra in fp:
        lineno += 1
        if extra.strip():
            raise TraceError(
                f"{name}:{lineno}: trailing garbage after the final "
                f"record: {extra.strip()[:60]!r}"
            )
    try:
        program = TraceProgram(
            threads,
            true_order=(
                [tuple(x) for x in true_order] if true_order else None
            ),
            timesliced_order=(
                [tuple(x) for x in ts_order] if ts_order else None
            ),
            preallocated=frozenset(preallocated),
        )
        program.validate()
    except TraceError as exc:
        raise TraceError(f"{name}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise TraceError(f"{name}: malformed trace records: {exc}") from None
    return program


def save_file(program: TraceProgram, path: Union[str, Path]) -> None:
    """Write ``program`` to ``path``."""
    with open(path, "w") as fp:
        dump(program, fp)


def load_file(path: Union[str, Path]) -> TraceProgram:
    """Read a program from ``path`` (diagnostics carry the path)."""
    with open(path) as fp:
        return load(fp, name=str(path))


def file_version(path: Union[str, Path]) -> int:
    """Peek a trace file's format version (1 or 2) from its header.

    The CLI uses this to route ``--trace`` inputs: version 1 files are
    materialized with :func:`load_file`, version 2 files stream through
    :func:`iter_load`.
    """
    name = str(path)
    with open(path) as fp:
        line = fp.readline()
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise TraceError(f"{name}:1: invalid JSON (header): {exc}") from None
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise TraceError(f"{name}:1: not a repro trace file")
    version = header.get("version")
    if version not in (FORMAT_VERSION, STREAM_VERSION):
        raise TraceError(
            f"{name}:1: unsupported trace version {version!r}"
        )
    return version


# ---------------------------------------------------------------------------
# Version 2: epoch-major stream format
# ---------------------------------------------------------------------------


def dump_stream(partition: EpochPartition, fp: IO[str]) -> None:
    """Write ``partition`` as an epoch-major (version 2) stream.

    One line per epoch, each carrying every thread's block for that
    epoch plus the blocks' start offsets, closed by an
    ``epochs_written`` footer.  The writer holds one epoch at a time
    (the partition's block cache is evicted in step), so dumping is
    O(epoch) resident like reading back is.

    Streams are cut once, at write time: the epoch geometry is baked
    into the file, so every reader -- and every resumed run -- sees
    identical blocks.  The recorded global orders are deliberately not
    written; a stream trades the sequential-oracle replay for bounded
    memory.
    """
    header = {
        "format": "repro-trace",
        "version": STREAM_VERSION,
        "threads": partition.num_threads,
        "epochs": partition.num_epochs,
        "preallocated": sorted(partition.program.preallocated),
    }
    fp.write(json.dumps(header) + "\n")
    for lid in range(partition.num_epochs):
        row = partition.epoch_blocks(lid)
        record = {
            "epoch": lid,
            "starts": [block.start for block in row],
            "blocks": [block.columns.to_rows() for block in row],
        }
        fp.write(json.dumps(record) + "\n")
        partition.evict_blocks(lid + 1)
    fp.write(json.dumps({"epochs_written": partition.num_epochs}) + "\n")


def save_stream_file(
    partition: EpochPartition, path: Union[str, Path]
) -> None:
    """Write ``partition`` as a version 2 stream to ``path``."""
    with open(path, "w") as fp:
        dump_stream(partition, fp)


def is_location_list(value: object) -> bool:
    """Is ``value`` a JSON list of locations -- each exactly an ``int``?

    The one check behind a stream header's and a ``HELLO`` frame's
    ``preallocated`` set.  ``type(x) is int``, as for instruction rows:
    ``true`` and ``1.0`` both equal 1 and would be analysed as location
    1, and a nested list is not hashable into the set at all.
    """
    return isinstance(value, list) and set(map(type, value)) <= {int}


def stream_header(fp: IO[str], name: str) -> dict:
    """Read and validate a version 2 header (line 1 of ``fp``).

    Public because the serve client builds its ``HELLO`` frame from a
    stream file's header without decoding any epoch records.
    """
    line = fp.readline()
    if not line.strip():
        raise TraceError(f"{name}:1: unexpected end of file (expected header)")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise TraceError(f"{name}:1: invalid JSON (header): {exc}") from None
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise TraceError(f"{name}:1: not a repro trace file")
    if header.get("version") != STREAM_VERSION:
        raise TraceError(
            f"{name}:1: not a stream trace (version "
            f"{header.get('version')!r}, expected {STREAM_VERSION})"
        )
    threads = header.get("threads")
    if not isinstance(threads, int) or threads < 0:
        raise TraceError(f"{name}:1: bad thread count {threads!r}")
    epochs = header.get("epochs")
    if not isinstance(epochs, int) or epochs < 0:
        raise TraceError(f"{name}:1: bad epoch count {epochs!r}")
    prealloc = header.get("preallocated")
    if not is_location_list(prealloc):
        raise TraceError(
            f"{name}:1: bad preallocated set {prealloc!r}"
        )
    return header


def decode_epoch_row(
    record: object, lid: int, num_threads: int, name: str, lineno: int
) -> List[Block]:
    """Turn one *parsed* epoch record into a row of :class:`Block`
    objects: :func:`decode_epoch_text` after its ``json.loads``."""
    if not isinstance(record, dict):
        raise TraceError(
            f"{name}:{lineno}: expected an epoch record, got {record!r}"
        )
    if "epochs_written" in record:
        raise TraceError(
            f"{name}:{lineno}: truncated stream: footer arrived at "
            f"epoch {lid} (expected more epoch records)"
        )
    if record.get("epoch") != lid:
        raise TraceError(
            f"{name}:{lineno}: epochs must be recorded in order: "
            f"expected epoch {lid}, got {record.get('epoch')!r}"
        )
    starts = record.get("starts")
    blocks = record.get("blocks")
    if (
        not isinstance(starts, list)
        or not isinstance(blocks, list)
        or len(starts) != num_threads
        or len(blocks) != num_threads
    ):
        raise TraceError(
            f"{name}:{lineno}: epoch {lid} must carry 'starts' and "
            f"'blocks' lists with one entry per thread ({num_threads})"
        )
    row = []
    for tid, (start, raw) in enumerate(zip(starts, blocks)):
        # ``type(start) is int``: a JSON ``true`` is an ``int`` to
        # ``isinstance`` and would start the block at event 1.
        if type(start) is not int or start < 0 or not isinstance(raw, list):
            raise TraceError(
                f"{name}:{lineno}: epoch {lid} thread {tid}: malformed "
                f"block record"
            )
        # Fast path: decode raw rows straight into columns, so streamed
        # epochs reach the engine without materializing one Instr.  The
        # validation (and the error text) matches _decode_instr.
        try:
            cols = ColumnarBlock.from_rows(raw)
        except RowDecodeError as exc:
            raise TraceError(
                f"{name}:{lineno}: malformed instruction record: "
                f"{exc.row!r}"
            ) from None
        row.append(Block(lid, tid, start, columns=cols))
    return row


class _CollectorPause:
    """Context manager: the cyclic collector is off inside the block.

    ``json.loads`` returns two short-lived lists per instruction, so one
    epoch record crosses the collector's allocation threshold dozens of
    times, and each crossing walks the resident heap to find nothing:
    neither the parsed rows nor the columns built from them can form a
    cycle.  Pausing it for one record's parse -> validate -> columns
    lifetime defers at most one frame's worth of garbage
    (``MAX_FRAME``), which reference counting frees anyway.

    The collector is process-global while decodes are not (daemon
    shards, thread backends), so the pause is a depth count under a
    lock: only the outermost entry disables and only the outermost exit
    restores -- and only if the collector was on when it entered, so a
    caller that runs with ``gc.disable()`` keeps it off.  A child forked
    by one thread while another is mid-decode (a shard's engine starting
    its process pool) would inherit the pause with nobody left to end
    it, so the child ends it itself.
    """

    def __init__(self) -> None:
        self._reset()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def _after_fork(self) -> None:
        if self._depth and self._restore:
            gc.enable()
        self._reset()

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore:
                gc.enable()


_collector_paused = _CollectorPause()


def decode_epoch_text(
    text: Union[str, bytes], lid: int, num_threads: int, name: str,
    lineno: int,
) -> List[Block]:
    """One epoch record's text -> its row of columnar :class:`Block`\\ s.

    The whole decode, shared by the version 2 file reader (``text`` is
    one line) and the serve daemon (``text`` is one ``EPOCH`` frame's
    UTF-8 payload; ``name`` the stream id, ``lineno`` the frame
    ordinal): a byte stream arriving over a socket is parsed, validated
    and rejected by the same code, with the same :class:`TraceError`
    diagnostics, as a trace file.  The cyclic collector is paused from
    parse to columns (:class:`_CollectorPause`) and restored before
    this returns or raises -- never while a caller holds the row.
    """
    with _collector_paused:
        try:
            if isinstance(text, bytes):
                text = text.decode("utf-8")
            record = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise TraceError(
                f"{name}:{lineno}: invalid JSON (epoch {lid}): {exc}"
            ) from None
        return decode_epoch_row(record, lid, num_threads, name, lineno)


def _stream_rows(
    fp: IO[str], header: dict, name: str, start: int
) -> Iterator[List[Block]]:
    num_threads = header["threads"]
    num_epochs = header["epochs"]
    if not 0 <= start <= num_epochs:
        raise TraceError(
            f"{name}: cannot seek to epoch {start} of a "
            f"{num_epochs}-epoch stream"
        )
    lineno = 1
    for skipped in range(start):
        lineno += 1
        if not fp.readline():
            raise TraceError(
                f"{name}:{lineno}: unexpected end of file while seeking "
                f"(expected epoch {skipped})"
            )
    for lid in range(start, num_epochs):
        lineno += 1
        line = fp.readline()
        if not line.strip():
            raise TraceError(
                f"{name}:{lineno}: unexpected end of file "
                f"(expected epoch {lid})"
            )
        yield decode_epoch_text(line, lid, num_threads, name, lineno)
    lineno += 1
    line = fp.readline()
    if not line.strip():
        raise TraceError(
            f"{name}:{lineno}: unexpected end of file (expected the "
            f"epochs_written footer; the stream was truncated)"
        )
    try:
        footer = json.loads(line)
    except ValueError as exc:
        raise TraceError(
            f"{name}:{lineno}: invalid JSON (footer): {exc}"
        ) from None
    if (
        not isinstance(footer, dict)
        or footer.get("epochs_written") != num_epochs
    ):
        raise TraceError(
            f"{name}:{lineno}: bad footer {footer!r} (expected "
            f"{{'epochs_written': {num_epochs}}})"
        )
    for extra in fp:
        lineno += 1
        if extra.strip():
            raise TraceError(
                f"{name}:{lineno}: trailing garbage after the footer: "
                f"{extra.strip()[:60]!r}"
            )


class StreamTraceSource(EpochSource):
    """An :class:`EpochSource` over a version 2 stream file.

    Construction reads only the header (shape and preallocated set);
    each :meth:`epochs` call opens a fresh handle, so the source can be
    iterated more than once and a resumed run can seek past processed
    epochs.  At any instant one epoch record is decoded -- the trace
    never materializes.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        with open(self.path) as fp:
            self._header = stream_header(fp, self.path)
        super().__init__(
            self._header["threads"],
            self._header["epochs"],
            self._header["preallocated"],
        )

    def epochs(self, start: int = 0) -> Iterator[List[Block]]:
        with open(self.path) as fp:
            fp.readline()  # the header, validated at construction
            yield from _stream_rows(fp, self._header, self.path, start)


def iter_load(path: Union[str, Path]) -> StreamTraceSource:
    """Open a version 2 stream as an :class:`EpochSource`.

    The counterpart of :func:`load_file` for traces larger than RAM:
    nothing beyond the header is read until the engine pulls epochs.
    """
    return StreamTraceSource(path)
