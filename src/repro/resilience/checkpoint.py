"""Epoch-boundary checkpoint/resume for the butterfly engine.

The engine's ordered-commit discipline gives a natural safe point: the
instant epoch ``l``'s bodies have committed and ``SOS_{l+2}`` is
published, the entire analysis state is a deterministic function of the
trace prefix.  A :class:`Checkpointer` saves, after each committed
epoch, what neither that prefix nor the committed state can give back
(``ButterflyEngine.snapshot_state()``): the analysis object (the live
SOS and its per-epoch deltas, its per-epoch indexes and counters), the
summaries of the committed epoch, the engine's ``EngineStats`` and
progress counters and, on an adaptive run, the boundary stream recorded
so far.  No event crosses into it: a committed epoch's blocks go as
their addresses, and the epoch being received is left out -- its rows
are re-fed on resume and its first pass re-run, quietly.  (A forced
save between feeds, the daemon's on a failing stream, keeps the
received epoch whole, so it resumes at every row fed.)

A save is two files.  The flags go to a *segment* beside the snapshot
(:func:`flags_path`): JSON lines, one ``[kind, location, ref, block,
detail]`` row each, the form a REPORT carries a flag in, and each save
appends only the rows raised since the previous one.  The snapshot
itself is a pickle recording how many rows of the segment it committed;
a load reads exactly that many and ignores a longer tail (torn, or
appended by a save that never committed).

Snapshots are written with the classic atomic-rename protocol (write to
a sibling temp file, fsync, ``os.replace``), so a checkpoint file on
disk is always a complete, loadable snapshot no matter when the writer
was killed.  The protocol has two halves: :func:`write_snapshot` appends
the new flags and pickles the state into the temp file, and must run at
the epoch boundary (the only instant the state is consistent);
:func:`commit_snapshot` makes both durable -- the segment first -- and
may run later, on another thread.  :func:`save_checkpoint` does both
inline; a :class:`CheckpointWriter` runs the second half in the
background -- one per serve shard, one per ``repro check`` run.

A checkpoint embeds a ``meta`` fingerprint of the run configuration
(workload, seed, epoch size, lifeguard, trace digest).  A rerun ``repro
check --checkpoint`` and a reconnecting stream share one rule
(:func:`resume_checkpoint`): an absent file starts fresh, and a present
one is refused unless its fingerprint equals the run's -- the command
line's for ``check``, the HELLO's for the daemon
(:meth:`Checkpoint.verify`) -- since continuing an analysis over a
different trace would silently produce garbage.  Otherwise attaching
an engine with the loaded checkpoint
(``engine.attach_source(source, checkpoint)``) restores it mid-stream,
so the continued run's error log, stats, and summaries are
bit-identical to an uninterrupted one (the equivalence tests in
``tests/resilience/test_checkpoint.py``).
"""

from __future__ import annotations

import copyreg
import io
import itertools
import json
import os
import pickle
import threading
import uuid
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import ButterflyEngine

FORMAT = "repro-checkpoint"
#: The pickled state's layout; any other version is refused.  Version 9:
#: the flags in the segment beside the snapshot, no block's events and
#: no summary of the epoch being received, after the error log as its
#: report rows (8), the SOS as its initial set plus gains and losses
#: (7), the one summary window on the analysis (6), TaintCheck's rule
#: columns (5) and the footprints (4).
VERSION = 9


def flags_path(path: str) -> str:
    """The flag segment beside the checkpoint at ``path``."""
    return path + ".flags"


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def remove_checkpoint(path: str) -> None:
    """Delete the checkpoint at ``path`` and its flag segment (what is
    absent already is fine): the run is complete."""
    _unlink_quietly(path)
    _unlink_quietly(flags_path(path))


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _empty_log(log: Any) -> Tuple:
    return type(log), ()


#: The array element types a snapshot holds, by the code it records.
_ARRAY_TYPES = {"i8": np.int64, "u1": np.uint8, "b1": np.bool_}


def _reduce_array(array: np.ndarray) -> Tuple:
    # Raw bytes under a code from a fixed table: unpickling numpy's own
    # form runs dtype and buffer reconstructors that a damaged file can
    # crash the process in, where this raises.
    code = f"{array.dtype.kind}{array.dtype.itemsize}"
    if _ARRAY_TYPES.get(code) is not array.dtype.type:
        raise TypeError(f"no checkpoint form for a {array.dtype} array")
    return _load_array, (code, array.shape, array.tobytes())


def _load_array(code: str, shape: Tuple[int, ...], data: bytes) -> Any:
    return np.frombuffer(data, dtype=_ARRAY_TYPES[code]).reshape(shape)


def _write_file(path: str, data: Any, flags: int) -> None:
    """``data`` written to ``path`` opened with ``flags``, unbuffered:
    one ``write`` unless the disk takes less."""
    view = memoryview(data)
    fd = os.open(path, os.O_WRONLY | flags, 0o644)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def write_snapshot(
    path: str, engine: "ButterflyEngine", meta: Dict[str, Any],
    saved_flags: int = 0,
) -> str:
    """Append the flags raised since the first ``saved_flags`` to the
    segment beside ``path`` (all of them, afresh, when it is 0), then
    pickle ``engine``'s snapshot into a fresh sibling temp file of
    ``path``, neither fsynced; returns the temp file's path.

    The first half of a save, and the half that must run at the epoch
    boundary.
    """
    from repro.lifeguards.reports import row_lines

    log = getattr(engine.analysis, "errors", None)
    if log is not None:
        _write_file(
            flags_path(path),
            row_lines(log.rows[saved_flags:]).encode(),
            os.O_CREAT | (os.O_APPEND if saved_flags else os.O_TRUNC),
        )
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {
        **copyreg.dispatch_table, np.ndarray: _reduce_array,
    }
    if log is not None:
        # Its rows are in the segment: the log goes empty.
        pickler.dispatch_table[type(log)] = _empty_log
    pickler.dump({
        "format": FORMAT,
        "version": VERSION,
        "meta": dict(meta),
        "engine": engine.snapshot_state(),
        # The segment beside it, by name (a temp file is loaded too),
        # and the rows of it this snapshot commits.
        "flags": None if log is None else (
            os.path.basename(flags_path(path)), len(log)
        ),
    })
    # Unique: one snapshot of a path can be committing while the fold
    # writes the next.
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        _write_file(tmp, buffer.getbuffer(), os.O_CREAT | os.O_EXCL)
    except BaseException:
        _unlink_quietly(tmp)
        raise
    return tmp


def commit_snapshot(tmp: str, path: str) -> None:
    """The second half of a save: ``fsync`` the flag segment and the
    temp file written by :func:`write_snapshot`, then atomically rename
    the temp file onto ``path``."""
    segment = flags_path(path)
    if os.path.exists(segment):
        _fsync(segment)
    _fsync(tmp)
    os.replace(tmp, path)


def save_checkpoint(
    path: str, engine: "ButterflyEngine", meta: Dict[str, Any]
) -> None:
    """Atomically snapshot ``engine`` (and its analysis) to ``path``:
    both halves, inline."""
    commit_snapshot(write_snapshot(path, engine, meta), path)


def discard_temps(path: str) -> None:
    """Remove the temp files of saves to ``path`` that never committed
    (a writer killed between the halves leaves one behind)."""
    directory, name = os.path.split(path)
    prefix = name + "."
    for entry in os.listdir(directory or "."):
        if entry.startswith(prefix) and entry.endswith(".tmp"):
            _unlink_quietly(os.path.join(directory, entry))


def _read_flags(segment: str, count: int) -> List[Tuple]:
    """The first ``count`` rows of ``segment``; a torn or uncommitted
    tail is ignored."""
    lines: List[bytes] = []
    if count:
        with open(segment, "rb") as fh:
            lines = list(itertools.islice(fh, count))
        if lines and not lines[-1].endswith(b"\n"):
            lines.pop()  # torn
    if len(lines) < count:
        raise CheckpointError(
            f"{segment} holds {len(lines)} of the {count} flag rows its "
            f"checkpoint committed"
        )
    return [
        (
            kind, location,
            None if ref is None else tuple(ref),
            None if block is None else tuple(block),
            detail,
        )
        for kind, location, ref, block, detail
        in json.loads(b"[" + b",".join(lines) + b"]")
    ]


def flag_rows_json(path: str, count: int) -> Optional[bytes]:
    """The first ``count`` rows of the segment beside ``path`` as the
    body of a JSON array -- ``[...],[...]``, the bytes compact
    ``json.dumps`` gives those rows -- or ``None`` when it holds fewer
    or cannot be read.
    """
    try:
        with open(flags_path(path), "rb") as fh:
            lines = fh.read().split(b"\n", count)
    except OSError:
        return None
    if len(lines) <= count:
        return None
    return b",".join(lines[:count])


def _cut_flags(path: str, count: int) -> None:
    """Cut the segment beside ``path`` back to its first ``count`` rows,
    dropping a tail no snapshot committed."""
    with open(flags_path(path), "r+b") as fh:
        for _ in range(count):
            fh.readline()
        fh.truncate()


class CheckpointWriter:
    """Commits snapshots in the background: the serve daemon's one disk
    owner per shard.

    The fold writes a snapshot's temp file (:func:`write_snapshot`) and
    :meth:`submit`\\ s it; a writer thread, started on first use, runs
    :func:`commit_snapshot`.  Latest wins per checkpoint path: a temp
    submitted while an older one for the same path still waits
    supersedes it, and the older temp is unlinked, never renamed.  A
    completed stream's checkpoint is removed the same way
    (:meth:`remove`), so no late rename outlives it and nobody waits for
    its commit.  A failed commit is kept per path until :meth:`failure`,
    :meth:`settle` or :meth:`flush` hands it to the stream's next
    command.

    Moving the commit off the fold changes only when a snapshot becomes
    durable, never what it holds: that is fixed at its epoch boundary.
    """

    def __init__(self, name: str = "repro-checkpoint-writer") -> None:
        self._name = name
        self._cond = threading.Condition()
        #: path -> the newest uncommitted temp for it, or ``None`` for
        #: a queued removal.
        self._pending: Dict[str, Optional[str]] = {}
        self._committing: Optional[str] = None
        self._failed: Dict[str, BaseException] = {}
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    def submit(self, path: str, tmp: Optional[str]) -> None:
        """Queue ``tmp`` for commit onto ``path`` (``None``: the removal
        of ``path``'s checkpoint), superseding any older uncommitted
        temp for the same path."""
        with self._cond:
            superseded = self._pending.pop(path, None)
            self._pending[path] = tmp
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=self._name, daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
        if superseded is not None:
            _unlink_quietly(superseded)

    def failure(self, path: str) -> Optional[CheckpointError]:
        """The failed background commit of ``path`` not yet reported,
        if any (reported once)."""
        with self._cond:
            exc = self._failed.pop(path, None)
        if exc is None:
            return None
        return CheckpointError(
            f"checkpoint commit to {path} failed: "
            f"{type(exc).__name__}: {exc}"
        )

    def remove(self, path: str) -> None:
        """Delete ``path``'s checkpoint and flag segment once its
        in-flight commit is through, dropping its uncommitted temp: the
        stream is complete."""
        self.submit(path, None)

    def settle(self, path: str) -> Optional[CheckpointError]:
        """Drop ``path``'s uncommitted temp and wait out its in-flight
        commit and a queued removal, so nothing renames onto ``path``
        until the next :meth:`submit`; then :meth:`failure`."""
        with self._cond:
            superseded = self._pending.get(path)
            if superseded is not None:
                del self._pending[path]
        if superseded is not None:
            _unlink_quietly(superseded)
        with self._cond:
            while self._committing == path or path in self._pending:
                self._cond.wait()
        return self.failure(path)

    def flush(self, path: str) -> Optional[CheckpointError]:
        """Wait until the newest snapshot submitted for ``path`` is
        committed -- nothing is dropped -- then :meth:`failure`."""
        with self._cond:
            while path in self._pending or self._committing == path:
                self._cond.wait()
        return self.failure(path)

    def close(self) -> None:
        """Commit what is pending, then stop the writer thread."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closing:
                    self._cond.wait()
                if not self._pending:
                    return
                path = next(iter(self._pending))
                tmp = self._pending.pop(path)
                self._committing = path
            failure: Optional[BaseException] = None
            if tmp is None:
                remove_checkpoint(path)
            else:
                try:
                    commit_snapshot(tmp, path)
                except Exception as exc:
                    _unlink_quietly(tmp)
                    failure = exc
            with self._cond:
                self._committing = None
                if failure is not None:
                    self._failed[path] = failure
                self._cond.notify_all()


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class Checkpoint:
    """A loaded checkpoint: config fingerprint plus engine state."""

    def __init__(self, meta: Dict[str, Any], state: Dict[str, Any]) -> None:
        self.meta = meta
        #: The engine's :meth:`~ButterflyEngine.snapshot_state`; an
        #: engine attached with this checkpoint restores it.
        self.state = state

    @property
    def analysis(self) -> Any:
        return self.state["analysis"]

    @property
    def next_epoch(self) -> int:
        """The first producer row the resumed run still has to feed."""
        return self.state["rows_folded"]

    @property
    def events_emitted(self) -> int:
        """Event-log position at the snapshot (the dedup boundary)."""
        return self.state["events_emitted"]

    @property
    def adaptive(self) -> bool:
        """Whether the writer coalesced rows under a controller (such a
        run and a fixed one do not share analysis-epoch coordinates)."""
        return self.state["boundaries"] is not None

    def verify(self, expected_meta: Dict[str, Any]) -> None:
        """Refuse to resume under a different configuration, naming
        each differing key (a long value, such as a boundary stream, by
        its first characters)."""
        mismatches = [
            f"{key}: checkpoint={_brief(self.meta.get(key))} "
            f"run={_brief(expected_meta.get(key))}"
            for key in sorted(set(self.meta) | set(expected_meta))
            if self.meta.get(key) != expected_meta.get(key)
        ]
        if mismatches:
            raise CheckpointError(
                "checkpoint was taken under a different configuration "
                "(" + "; ".join(mismatches) + ")"
            )


def load_checkpoint(path: str) -> Checkpoint:
    """Read and structurally validate a checkpoint file.

    The file may come from a directory this process does not control,
    and a damaged pickle raises whatever its mangled opcodes run into
    (``UnicodeDecodeError``, ``MemoryError``, ``KeyError``, ...), so
    every failure of the load or the shape checks is a
    :class:`CheckpointError` naming the path.  The analysis's error log
    is the first rows of the flag segment, as many as the snapshot
    committed.
    """
    from repro.lifeguards.reports import ErrorLog

    try:
        with open(path, "rb") as fh:
            raw = pickle.load(fh)
        if not isinstance(raw, dict) or raw.get("format") != FORMAT:
            raise CheckpointError(f"{path} is not a repro checkpoint file")
        if raw.get("version") != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version "
                f"{raw.get('version')!r} (this build reads version {VERSION})"
            )
        meta, state = raw["meta"], raw["engine"]
        if not isinstance(meta, dict) or not isinstance(state, dict):
            raise CheckpointError(
                f"{path} is not a readable checkpoint: meta and engine "
                "must be records"
            )
        if raw["flags"] is not None:
            name, count = raw["flags"]
            segment = os.path.join(os.path.dirname(path), name)
            state["analysis"].errors = ErrorLog(_read_flags(segment, count))
    except CheckpointError:
        raise
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except Exception as exc:
        raise CheckpointError(
            f"{path} is not a readable checkpoint: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return Checkpoint(meta, state)


def resume_checkpoint(
    path: str, meta: Dict[str, Any]
) -> Optional[Checkpoint]:
    """The one resume rule of ``repro check --checkpoint`` and the serve
    daemon: the checkpoint at ``path`` that a run fingerprinted ``meta``
    continues from, or ``None`` to start fresh.

    Temps of saves that never committed are discarded first.  An absent
    ``path`` starts fresh; a present one must load
    (:func:`load_checkpoint`) and carry exactly ``meta``
    (:meth:`Checkpoint.verify`), or the :class:`CheckpointError` says
    why not.
    """
    discard_temps(path)
    if not os.path.exists(path):
        return None
    checkpoint = load_checkpoint(path)
    checkpoint.verify(meta)
    return checkpoint


class Checkpointer:
    """Engine hook writing a snapshot after committed epochs.

    Attach with :meth:`ButterflyEngine.enable_checkpoints`; the engine
    calls :meth:`after_epoch` each time an epoch's bodies have
    committed and its SOS advance has been published.

    Without a ``writer`` every save is :meth:`save_now`, both halves
    inline.  With one (a serve shard's, or a ``repro check`` run's), the
    per-epoch saves write the snapshot on the fold and hand the commit
    to the writer; :meth:`save_now` stays inline and flushes first.

    Each save appends the flags raised since the previous one to the
    segment.  The first save of a fresh run starts the segment over; the
    first of a restored one first cuts it back to the rows the restored
    snapshot committed.
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Dict[str, Any]] = None,
        every: int = 1,
        writer: Optional[CheckpointWriter] = None,
    ) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1: {every}")
        self.path = path
        self.meta = dict(meta or {})
        self.every = every
        self.writer = writer
        self.written = 0
        #: The ``resume_position`` of the newest snapshot written -- or,
        #: before the first, of the one the engine was restored from
        #: (``enable_checkpoints`` sets it; 0 means none).
        self.position = 0
        #: Flag rows in the segment, on the same terms (0: a fresh run).
        self.flags = 0
        self._segment_checked = False

    def save_now(self, engine: "ButterflyEngine") -> None:
        """Write one snapshot immediately (the forced-save entry point
        shard backends use on session failure).  With a writer it is a
        flush: the uncommitted older snapshot is dropped and the
        in-flight commit waited out, so this one lands last (and
        supersedes a failed background commit)."""
        if self.writer is not None:
            self.writer.settle(self.path)
        commit_snapshot(self._write(engine), self.path)

    def flush(self) -> None:
        """Make the newest snapshot written durable without taking a new
        one: what a forced save does for an engine whose analysis cannot
        be trusted.  Raises the :class:`CheckpointError` of a failed
        commit."""
        if self.writer is not None:
            failure = self.writer.flush(self.path)
            if failure is not None:
                raise failure

    def _write(self, engine: "ButterflyEngine") -> str:
        """The first half of a save, past the flags already written."""
        if not self._segment_checked:
            if self.flags:
                _cut_flags(self.path, self.flags)
            self._segment_checked = True
        tmp = write_snapshot(self.path, engine, self.meta, self.flags)
        self.position = engine.resume_position
        self.flags = len(getattr(engine.analysis, "errors", ()))
        return tmp

    def _save_epoch(self, engine: "ButterflyEngine") -> None:
        if self.writer is None:
            self.save_now(engine)
        else:
            self.writer.submit(self.path, self._write(engine))

    def after_epoch(self, engine: "ButterflyEngine", lid: int) -> None:
        if (lid + 1) % self.every:
            return
        rec = engine.recorder
        if rec.enabled:
            with rec.span("resilience.checkpoint", epoch=lid):
                self._save_epoch(engine)
            rec.count("resilience.checkpoints")
        else:
            self._save_epoch(engine)
        self.written += 1
