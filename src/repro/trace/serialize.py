"""Trace persistence: save/load traces as JSON lines.

Traces are the interchange unit of this library (the LBA log, in
effect), so they deserve a stable on-disk form.  Two layouts share the
``repro-trace`` envelope, and both carry events the one way a file or
the serve wire does: each block as one packed, sha256-checked hex
string of narrowed columns (``ColumnarBlock.to_packed``), decoded with
no per-event Python, and a preallocated set as location runs
``[[lo, hi], ...]`` (``LocationRuns``, as a ``HELLO`` carries it).

Version 5 (thread-major program file, :func:`dump` / :func:`load`)
    A header, then one line per thread holding that thread's whole
    event list as one packed block, then the optional orders (each a
    flat list of thread ids, one per event in global order, or
    ``null``) and the preallocated set.  The only layout that keeps the
    recorded orders the oracle and ``repro sweep --traces`` need, but a
    reader must hold every thread before the first epoch can be cut --
    O(trace) memory.

Version 4 (epoch-major stream, :func:`dump_stream` / :func:`iter_load`)
    A header carrying the shape (threads, epochs) and the preallocated
    set, then one line *per epoch* holding that epoch's blocks for every
    thread, then an ``epochs_written`` footer that distinguishes a
    complete stream from a truncated one.  A reader holds one epoch at
    a time, so the butterfly engine can analyze traces far larger than
    RAM (see ``docs/streaming.md``).  Epoch records carry each block's
    start offset, so checkpoint resume can skip already-processed
    records without decoding them.

Versions 1 to 3 (JSON event rows, listed preallocated locations) are
not read: their header is refused in one line.  Both layouts share one
reader (:class:`_Records`) and one block decoder
(``ColumnarBlock.from_rows``, also the serve daemon's), so a program
file's thread is columns until something reads its ``Instr`` objects.
Every structural defect -- invalid JSON, truncation, trailing garbage,
out-of-order epochs, a block that is not a packed string, a packed
block whose lengths or digest do not match -- raises
:class:`TraceError` with ``file:line`` context, never a raw
``JSONDecodeError``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator, List, Optional, Union

from repro.core.columnar import ColumnarBlock, RowDecodeError
from repro.core.epoch import Block, EpochPartition
from repro.core.state import LocationRuns
from repro.core.stream import EpochSource
from repro.errors import TraceError
from repro.trace.program import ThreadTrace, TraceProgram

#: The program file's version, written by :func:`dump` and read.
FORMAT_VERSION = 5
#: The one stream version, written by :func:`dump_stream` and read.
STREAM_VERSION = 4
_VERSIONS = (FORMAT_VERSION, STREAM_VERSION)
_TAG = "repro-trace"


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0  # JSON ``true`` is no count


class _Records:
    """A trace file's lines as numbered JSON records: the header check,
    the next record and the trailing-garbage check of both layouts,
    each failing with a :class:`TraceError` naming ``file:line``."""

    def __init__(self, fp: IO[str], name: str, lineno: int = 0) -> None:
        self.fp = fp
        self.name = name
        self.lineno = lineno

    def fail(self, message: str) -> TraceError:
        return TraceError(f"{self.name}:{self.lineno}: {message}")

    def record(self, what: str) -> object:
        """The next line, parsed; ``what`` names it in diagnostics."""
        self.lineno += 1
        line = self.fp.readline()
        if not line.strip():
            raise self.fail(f"unexpected end of file (expected {what})")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise self.fail(f"invalid JSON ({what}): {exc}") from None

    def field(self, key: str) -> object:
        """The value of the next record, which must be ``{key: ...}``."""
        record = self.record(key)
        if not isinstance(record, dict) or key not in record:
            raise self.fail(
                f"expected a {{{key!r}: ...}} record, got {record!r}"
            )
        return record[key]

    def header(self) -> dict:
        """Line 1 of either layout: format, version and thread count."""
        header = self.record("header")
        if not isinstance(header, dict) or header.get("format") != _TAG:
            raise self.fail("not a repro trace file")
        version = header.get("version")
        if not _is_count(version) or version not in _VERSIONS:
            raise self.fail(f"unsupported trace version {version!r}")
        if not _is_count(header.get("threads")):
            raise self.fail(f"bad thread count {header.get('threads')!r}")
        return header

    def end(self, last: str) -> None:
        """Only blank lines may follow the ``last`` record: a concatenated
        or corrupted file would otherwise lose data silently."""
        for extra in self.fp:
            self.lineno += 1
            if extra.strip():
                raise self.fail(
                    f"trailing garbage after the {last}: "
                    f"{extra.strip()[:60]!r}"
                )


def _columns(packed: object, name: str, lineno: int) -> ColumnarBlock:
    """A block record -- a packed hex string, a program file's thread or
    a stream's block (file and wire alike) -- to columns, with no
    ``Instr``."""
    try:
        return ColumnarBlock.from_rows(packed)
    except RowDecodeError as exc:
        raise TraceError(
            f"{name}:{lineno}: malformed packed block: {exc}"
        ) from None


def dump(program: TraceProgram, fp: IO[str]) -> None:
    """Write ``program`` to an open text file as a version 5 program
    file; a program :meth:`TraceProgram.validate` refuses is not
    written."""
    program.validate()
    header = {
        "format": _TAG,
        "version": FORMAT_VERSION,
        "threads": program.num_threads,
    }
    fp.write(json.dumps(header) + "\n")
    for trace in program.threads:
        fp.write(json.dumps(trace.columns.to_packed()) + "\n")
    for key in ("true_order", "timesliced_order"):
        ids = getattr(program, key)
        ids = None if ids is None else ids.tolist()
        fp.write(json.dumps({key: ids}) + "\n")
    runs = LocationRuns.of(program.preallocated).runs
    fp.write(json.dumps({"preallocated": runs}) + "\n")


def _schedule(
    records: _Records, key: str, num_threads: int
) -> Optional[List[int]]:
    """Read a ``{key: [thread id, ...]}`` record (``null``: no order
    recorded) as a schedule.  Each id must be exactly an ``int`` (a JSON
    ``true`` is no thread 1) naming a thread; that the record covers
    each thread's events once is :meth:`TraceProgram.validate`'s check.
    """
    ids = records.field(key)
    if ids is not None and (
        type(ids) is not list
        or not set(map(type, ids)) <= {int}
        or ids and not 0 <= min(ids) <= max(ids) < num_threads
    ):
        raise records.fail(
            f"bad {key} record (expected a list of thread ids below "
            f"{num_threads}, one per event)"
        )
    return ids


def load(fp: IO[str], name: str = "<trace>") -> TraceProgram:
    """Read a program written by :func:`dump`; every structural defect
    is a :class:`TraceError` naming ``name`` (``load_file`` passes the
    path) and the line."""
    records = _Records(fp, name)
    header = records.header()
    if header["version"] == STREAM_VERSION:
        raise records.fail(
            f"a version {header['version']} file is an epoch-major stream "
            "with no recorded order: 'repro sweep' and the oracle need a "
            f"version {FORMAT_VERSION} program file ('repro generate' "
            "without --stream); 'repro check --trace' reads this one"
        )
    threads = [
        ThreadTrace(columns=_columns(
            records.record(f"thread {tid} events"), name, records.lineno
        ))
        for tid in range(header["threads"])
    ]
    true_order = _schedule(records, "true_order", len(threads))
    timesliced_order = _schedule(records, "timesliced_order", len(threads))
    prealloc = records.field("preallocated")
    try:
        preallocated = LocationRuns.parse(prealloc)
    except ValueError:
        raise records.fail(f"bad preallocated set {prealloc!r}") from None
    records.end("final record")
    program = TraceProgram(
        threads, true_order, preallocated, timesliced_order
    )
    try:
        program.validate()
    except TraceError as exc:
        raise TraceError(f"{name}: {exc}") from None
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
    """Peek a trace file's format version (5 or 4) from its header:
    the CLI routes ``--trace`` program files to :func:`load_file` and
    stream files (:data:`STREAM_VERSION`) to :func:`iter_load`."""
    with open(path) as fp:
        return _Records(fp, str(path)).header()["version"]


# ---------------------------------------------------------------------------
# Version 4: epoch-major stream format
# ---------------------------------------------------------------------------


def dump_stream(partition: EpochPartition, fp: IO[str]) -> None:
    """Write ``partition`` as an epoch-major (version 4) stream.

    One line per epoch, each carrying every thread's block for that
    epoch (one packed hex string each, ``ColumnarBlock.to_packed``)
    plus the blocks' start offsets, closed by an
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
        "format": _TAG,
        "version": STREAM_VERSION,
        "threads": partition.num_threads,
        "epochs": partition.num_epochs,
        "preallocated": LocationRuns.of(partition.program.preallocated).runs,
    }
    fp.write(json.dumps(header) + "\n")
    for lid in range(partition.num_epochs):
        row = partition.epoch_blocks(lid)
        record = {
            "epoch": lid,
            "starts": [block.start for block in row],
            "blocks": [block.columns.to_packed() for block in row],
        }
        fp.write(json.dumps(record) + "\n")
        partition.evict_blocks(lid + 1)
    fp.write(json.dumps({"epochs_written": partition.num_epochs}) + "\n")


def save_stream_file(
    partition: EpochPartition, path: Union[str, Path]
) -> None:
    """Write ``partition`` as a version 4 stream to ``path``."""
    with open(path, "w") as fp:
        dump_stream(partition, fp)


def stream_header(fp: IO[str], name: str) -> dict:
    """Read and validate a stream header (line 1 of ``fp``), its
    ``preallocated`` set parsed to :class:`LocationRuns`.

    Public because the serve client builds its ``HELLO`` frame from a
    stream file's header without decoding any epoch records.
    """
    records = _Records(fp, name)
    header = records.header()
    if header["version"] != STREAM_VERSION:
        raise records.fail(
            f"not a stream trace (version {header['version']!r}, "
            f"expected {STREAM_VERSION})"
        )
    if not _is_count(header.get("epochs")):
        raise records.fail(f"bad epoch count {header.get('epochs')!r}")
    prealloc = header.get("preallocated")
    try:
        header["preallocated"] = LocationRuns.parse(prealloc)
    except ValueError:
        raise records.fail(f"bad preallocated set {prealloc!r}") from None
    return header


def decode_epoch_row(
    record: object, lid: int, num_threads: int, name: str, lineno: int
) -> List[Block]:
    """Turn one *parsed* epoch record into a row of :class:`Block`
    objects: :func:`decode_epoch_text` after its ``json.loads``.  Each
    ``blocks`` entry must be a packed hex string
    (``ColumnarBlock.to_packed``); anything else, a list included, is
    a malformed block record."""
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
        # A JSON ``true`` would start the block at event 1.
        if not _is_count(start) or not isinstance(raw, str):
            raise TraceError(
                f"{name}:{lineno}: epoch {lid} thread {tid}: malformed "
                f"block record (expected a start count and a packed "
                f"block string)"
            )
        row.append(Block(lid, tid, start, _columns(raw, name, lineno)))
    return row


def decode_epoch_text(
    text: Union[str, bytes], lid: int, num_threads: int, name: str,
    lineno: int,
) -> List[Block]:
    """One epoch record's text -> its row of columnar :class:`Block`\\ s.

    The whole decode, shared by the stream file reader (``text`` is
    one line) and the serve daemon (``text`` is one ``EPOCH`` frame's
    UTF-8 payload; ``name`` the stream id, ``lineno`` the frame
    ordinal): a byte stream arriving over a socket is parsed, validated
    and rejected by the same code, with the same :class:`TraceError`
    diagnostics, as a trace file.
    """
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
    records: _Records, header: dict, start: int
) -> Iterator[List[Block]]:
    """The epoch rows of a stream whose header ``records`` has read."""
    fp, name = records.fp, records.name
    num_threads = header["threads"]
    num_epochs = header["epochs"]
    if not 0 <= start <= num_epochs:
        raise TraceError(
            f"{name}: cannot seek to epoch {start} of a "
            f"{num_epochs}-epoch stream"
        )
    lineno = records.lineno
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
    records.lineno = lineno
    footer = records.record("the epochs_written footer")
    if (
        not isinstance(footer, dict)
        or footer.get("epochs_written") != num_epochs
    ):
        raise records.fail(
            f"bad footer {footer!r} (expected "
            f"{{'epochs_written': {num_epochs}}})"
        )
    records.end("footer")


class StreamTraceSource(EpochSource):
    """An :class:`EpochSource` over a version 4 stream file.

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
            records = _Records(fp, self.path, lineno=1)
            yield from _stream_rows(records, self._header, start)


def iter_load(path: Union[str, Path]) -> StreamTraceSource:
    """Open a version 4 stream file as an :class:`EpochSource`.

    The counterpart of :func:`load_file` for traces larger than RAM:
    nothing beyond the header is read until the engine pulls epochs.
    """
    return StreamTraceSource(path)
