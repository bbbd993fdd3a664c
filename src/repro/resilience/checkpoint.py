"""Epoch-boundary checkpoint/resume for the butterfly engine.

The engine's ordered-commit discipline gives a natural safe point: the
instant epoch ``l``'s bodies have committed and ``SOS_{l+2}`` is
published, the entire analysis state is a deterministic function of the
trace prefix.  A :class:`Checkpointer` snapshots exactly that state --
the analysis object (the live SOS and its per-epoch deltas, the
window of block summaries the engine keeps on it, error log), the
engine's window of blocks, its ``EngineStats``/progress counters and,
on an adaptive run, the boundary stream recorded so far
(``ButterflyEngine.snapshot_state()``) -- after each committed epoch.

Snapshots are written with the classic atomic-rename protocol (write to
a sibling temp file, fsync, ``os.replace``), so a checkpoint file on
disk is always a complete, loadable snapshot no matter when the writer
was killed.  The protocol has two halves: :func:`write_snapshot` pickles
the state into the temp file and must run at the epoch boundary (the
only instant the state is consistent); :func:`commit_snapshot` makes it
durable and may run later, on another thread.  :func:`save_checkpoint`
does both inline; a :class:`CheckpointWriter` runs the second half in
the background for the serve daemon, one writer per shard.

A checkpoint embeds a ``meta`` fingerprint of the run configuration
(workload, seed, epoch size, lifeguard, trace digest).  ``repro
resume`` rebuilds the run from it and refuses a trace file whose digest
changed; the daemon refuses a checkpoint whose fingerprint disagrees
with the reconnecting stream's HELLO (:meth:`Checkpoint.verify`) --
continuing an analysis over a different trace would silently produce
garbage.  Otherwise attaching an engine with the loaded checkpoint
(``engine.attach_source(source, checkpoint)``) restores it mid-stream,
so the continued run's error log, stats, and summaries are
bit-identical to an uninterrupted one (the equivalence tests in
``tests/resilience/test_checkpoint.py``).
"""

from __future__ import annotations

import os
import pickle
import threading
import uuid
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import ButterflyEngine

FORMAT = "repro-checkpoint"
#: The pickled state's layout; any other version is refused.  Version 8:
#: the error log as its report rows, after the SOS as its initial set
#: plus gains and losses (7), the one summary window on the analysis
#: (6), TaintCheck's rule columns (5) and the footprints (4).
VERSION = 8


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def write_snapshot(
    path: str, engine: "ButterflyEngine", meta: Dict[str, Any]
) -> str:
    """Pickle ``engine`` (and its analysis) into a fresh sibling temp
    file of ``path``, without ``fsync``; returns the temp file's path.

    The first half of a save, and the half that must run at the epoch
    boundary.  The pickle streams into the file rather than through an
    in-memory copy.  The analysis's recorder is detached during
    pickling (a live sink holds an open file handle); resume re-attaches
    whatever recorder the resuming run configures.
    """
    # Unique: one snapshot of a path can be committing while the fold
    # writes the next.
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    analysis = engine.analysis
    had_recorder = "recorder" in analysis.__dict__
    saved_recorder = analysis.__dict__.pop("recorder", None)
    try:
        with open(tmp, "xb") as fh:
            pickle.dump(
                {
                    "format": FORMAT,
                    "version": VERSION,
                    "meta": dict(meta),
                    "engine": engine.snapshot_state(),
                },
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
    except BaseException:
        _unlink_quietly(tmp)
        raise
    finally:
        if had_recorder:
            analysis.recorder = saved_recorder
    return tmp


def commit_snapshot(tmp: str, path: str) -> None:
    """The second half of a save: ``fsync`` the temp file written by
    :func:`write_snapshot` and atomically rename it onto ``path``."""
    fd = os.open(tmp, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
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


class CheckpointWriter:
    """Commits snapshots in the background: the serve daemon's one disk
    owner per shard.

    The fold writes a snapshot's temp file (:func:`write_snapshot`) and
    :meth:`submit`\\ s it; a writer thread, started on first use, runs
    :func:`commit_snapshot`.  Latest wins per checkpoint path: a temp
    submitted while an older one for the same path still waits
    supersedes it, and the older temp is unlinked, never renamed.  A
    failed commit is kept per path until :meth:`failure`, :meth:`settle`
    or :meth:`flush` hands it to the stream's next command.

    Moving the commit off the fold changes only when a snapshot becomes
    durable, never what it holds: that is fixed at its epoch boundary.
    """

    def __init__(self, name: str = "repro-checkpoint-writer") -> None:
        self._name = name
        self._cond = threading.Condition()
        #: path -> the newest uncommitted temp for it.
        self._pending: Dict[str, str] = {}
        self._committing: Optional[str] = None
        self._failed: Dict[str, BaseException] = {}
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    def submit(self, path: str, tmp: str) -> None:
        """Queue ``tmp`` for commit onto ``path``, superseding any older
        uncommitted temp for the same path."""
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

    def settle(self, path: str) -> Optional[CheckpointError]:
        """Drop ``path``'s uncommitted temp and wait out its in-flight
        commit, so nothing renames onto ``path`` until the next
        :meth:`submit`; then :meth:`failure`."""
        with self._cond:
            superseded = self._pending.pop(path, None)
        if superseded is not None:
            _unlink_quietly(superseded)
        with self._cond:
            while self._committing == path:
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
        """Refuse to resume under a different configuration."""
        mismatches = [
            f"{key}: checkpoint={self.meta.get(key)!r} "
            f"run={expected_meta.get(key)!r}"
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
    :class:`CheckpointError` naming the path.
    """
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


class Checkpointer:
    """Engine hook writing a snapshot after committed epochs.

    Attach with :meth:`ButterflyEngine.enable_checkpoints`; the engine
    calls :meth:`after_epoch` each time an epoch's bodies have
    committed and its SOS advance has been published.

    Without a ``writer`` every save is :meth:`save_now`, both halves
    inline.  With one (the serve daemon's shard writer), the per-epoch
    saves write the snapshot on the fold and hand the commit to the
    writer; :meth:`save_now` stays inline and flushes first.
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

    def save_now(self, engine: "ButterflyEngine") -> None:
        """Write one snapshot immediately (the forced-save entry point
        shard backends use on session failure).  With a writer it is a
        flush: the uncommitted older snapshot is dropped and the
        in-flight commit waited out, so this one lands last (and
        supersedes a failed background commit)."""
        if self.writer is not None:
            self.writer.settle(self.path)
        save_checkpoint(self.path, engine, self.meta)
        self.position = engine.resume_position

    def flush(self) -> None:
        """Make the newest snapshot written durable without taking a new
        one: what a forced save does for an engine whose analysis cannot
        be trusted.  Raises the :class:`CheckpointError` of a failed
        commit."""
        if self.writer is not None:
            failure = self.writer.flush(self.path)
            if failure is not None:
                raise failure

    def _save_epoch(self, engine: "ButterflyEngine") -> None:
        if self.writer is None:
            self.save_now(engine)
        else:
            self.writer.submit(
                self.path, write_snapshot(self.path, engine, self.meta)
            )
            self.position = engine.resume_position

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
