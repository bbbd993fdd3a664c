"""Epoch-boundary checkpoint/resume for the butterfly engine.

The engine's ordered-commit discipline gives a natural safe point: the
instant epoch ``l``'s bodies have committed and ``SOS_{l+2}`` is
published, the entire analysis state is a deterministic function of the
trace prefix.  A :class:`Checkpointer` snapshots exactly that state --
the analysis object (the live SOS and its per-epoch deltas, interner
tables, shadow memory, error log), the engine's window of block
summaries, its ``EngineStats``/progress counters and, on an adaptive
run, the boundary stream recorded so far
(``ButterflyEngine.snapshot_state()``) -- after each committed epoch.

Snapshots are written with the classic atomic-rename protocol (write to
a sibling temp file, flush, fsync, ``os.replace``), so a checkpoint
file on disk is always a complete, loadable snapshot no matter when the
writer was killed.

A checkpoint embeds a ``meta`` fingerprint of the run configuration
(workload, seed, epoch size, lifeguard, trace digest).  ``repro
resume`` rebuilds the run from it and refuses a trace file whose digest
changed; the daemon refuses a checkpoint whose fingerprint disagrees
with the reconnecting stream's HELLO (:meth:`Checkpoint.verify`) --
continuing an analysis over a different trace would silently produce
garbage.  Otherwise the engine is restored mid-stream so the continued
run's error log, stats, and summaries are bit-identical to an
uninterrupted one (the equivalence tests in
``tests/resilience/test_checkpoint.py``).
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import ButterflyEngine

FORMAT = "repro-checkpoint"
#: Version 2: the engine state is ``ButterflyEngine.snapshot_state()``
#: (adds producer-row progress and the recorded boundary stream).
#: Version 3: the pickled SOS history is one live set plus per-epoch
#: deltas (was a set per epoch); AddrCheck summaries carry no masks.
VERSION = 3


def save_checkpoint(
    path: str, engine: "ButterflyEngine", meta: Dict[str, Any]
) -> None:
    """Atomically snapshot ``engine`` (and its analysis) to ``path``.

    The analysis's recorder is detached during pickling (a live sink
    holds an open file handle); resume re-attaches whatever recorder
    the resuming run configures.
    """
    analysis = engine.analysis
    had_recorder = "recorder" in analysis.__dict__
    saved_recorder = analysis.__dict__.pop("recorder", None)
    try:
        payload = pickle.dumps(
            {
                "format": FORMAT,
                "version": VERSION,
                "meta": dict(meta),
                "engine": engine.snapshot_state(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    finally:
        if had_recorder:
            analysis.recorder = saved_recorder
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class Checkpoint:
    """A loaded checkpoint: config fingerprint plus engine state."""

    def __init__(self, meta: Dict[str, Any], state: Dict[str, Any]) -> None:
        self.meta = meta
        self._state = state

    @property
    def analysis(self) -> Any:
        return self._state["analysis"]

    @property
    def next_epoch(self) -> int:
        """The first producer row the resumed run still has to feed."""
        return self._state["rows_folded"]

    @property
    def events_emitted(self) -> int:
        """Event-log position at the snapshot (the dedup boundary)."""
        return self._state["events_emitted"]

    @property
    def adaptive(self) -> bool:
        """Whether the writer coalesced rows under a controller (such a
        run and a fixed one do not share analysis-epoch coordinates)."""
        return self._state["boundaries"] is not None

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

    def restore_into(self, engine: "ButterflyEngine") -> None:
        """Fast-forward an attached engine to the checkpointed state
        (see :meth:`ButterflyEngine.restore_state`)."""
        engine.restore_state(self._state)


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
                f"unsupported checkpoint version {raw.get('version')!r} "
                f"(this build reads version {VERSION})"
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
    """

    def __init__(
        self,
        path: str,
        meta: Optional[Dict[str, Any]] = None,
        every: int = 1,
    ) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1: {every}")
        self.path = path
        self.meta = dict(meta or {})
        self.every = every
        self.written = 0

    def save_now(self, engine: "ButterflyEngine") -> None:
        """Write one snapshot immediately (the forced-save entry point
        shard backends use on session failure)."""
        save_checkpoint(self.path, engine, self.meta)

    def after_epoch(self, engine: "ButterflyEngine", lid: int) -> None:
        if (lid + 1) % self.every:
            return
        rec = engine.recorder
        if rec.enabled:
            with rec.span("resilience.checkpoint", epoch=lid):
                self.save_now(engine)
            rec.count("resilience.checkpoints")
        else:
            self.save_now(engine)
        self.written += 1
