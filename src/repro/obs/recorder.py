"""The observability recorder: typed counters/gauges, monotonic timing
spans, and a structured JSONL event log.

Design constraints (in priority order):

1. **Zero overhead when disabled.**  The default recorder everywhere is
   :data:`NULL_RECORDER`, whose methods are no-ops and whose ``enabled``
   flag is ``False``; instrumented hot paths branch on ``enabled`` once
   per epoch/batch so the disabled configuration executes the exact
   pre-observability code path (``benchmarks/test_observability_overhead.py``
   asserts the < 2% budget against the recorded baseline).
2. **Deterministic across execution backends.**  All recording happens
   on the engine's serial commit path, so analysis-level events arrive
   in the serial schedule's order regardless of backend.  Events whose
   very existence depends on the backend (fan-out batches, task
   submit/complete) are namespaced ``backend.*`` so consumers --
   including the determinism property tests -- can separate
   schedule-dependent telemetry from analysis-level facts.  Wall-clock
   readings only ever appear under the keys in
   :data:`WALL_CLOCK_FIELDS`; :func:`normalize_events` strips them.
3. **Zero dependencies.**  Standard library only; the JSONL sink is a
   thin wrapper over ``json.dumps`` + a text file handle.

Event schema (one JSON object per line)::

    {"seq": <int>, "ev": "<name>", ...fields..., ["dur_ns": <int>]}

``seq`` is a per-recorder monotonic sequence number; ``dur_ns`` is
present on span-close events only.  The full event vocabulary is
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, IO, Iterable, List, Optional

#: Keys holding wall-clock readings.  Everything else in an event is a
#: deterministic function of the trace and the analysis configuration.
WALL_CLOCK_FIELDS = ("dur_ns", "t_ns")


class JsonlSink:
    """Append events to a text stream as JSON lines.

    Crash-safe by construction: :meth:`open` uses line buffering and
    each record is emitted as one ``write`` of a complete line, so a
    killed run leaves a log that is readable up to (at worst) a single
    truncated final record -- which :func:`read_events` tolerates.

    Owns the handle when constructed via :meth:`open`; :meth:`close` is
    idempotent either way.
    """

    def __init__(self, stream: IO[str], owns_stream: bool = False) -> None:
        self._stream: Optional[IO[str]] = stream
        self._owns = owns_stream

    @classmethod
    def open(cls, path: str) -> "JsonlSink":
        """Open ``path`` for writing (raises ``OSError`` up front so
        callers fail before doing any work, not at flush time)."""
        return cls(open(path, "w", buffering=1), owns_stream=True)

    def write(self, event: Dict[str, Any]) -> None:
        if self._stream is not None:
            # One write call per record: with a line-buffered stream the
            # whole line reaches the OS before the next event starts.
            self._stream.write(
                json.dumps(event, separators=(",", ":")) + "\n"
            )

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.flush()
            except ValueError:  # caller closed the handle underneath us
                pass
            if self._owns:
                self._stream.close()
        self._stream = None


class _Span:
    """Reusable span context manager (one live span per ``with``)."""

    __slots__ = ("_recorder", "_name", "_fields", "_t0")

    def __init__(self, recorder: "Recorder", name: str, fields: Dict) -> None:
        self._recorder = recorder
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._t0 = self._recorder._clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._recorder._close_span(
            self._name, self._recorder._clock() - self._t0, self._fields
        )


class Recorder:
    """Collects counters, gauges, span aggregates, and an event log.

    Not thread-safe by design: every instrumented call site sits on the
    engine's serial commit path (see the module docstring), so a lock
    would only tax the common case.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[JsonlSink] = None,
        keep_events: bool = True,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: Per-span aggregates: name -> [count, total_ns, max_ns].
        self.spans: Dict[str, List[int]] = {}
        self.events: List[Dict[str, Any]] = []
        self._sink = sink
        self._keep_events = keep_events
        self._clock = clock
        self._seq = 0

    # -- metrics --------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    # -- events ---------------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the most recently emitted event (0 when
        nothing has been emitted).  Checkpoints persist this so a
        resumed run's log continues the numbering instead of restarting
        at 1 and re-covering already-logged epochs."""
        return self._seq

    def resume_from(self, seq: int) -> None:
        """Continue an earlier log: the next event gets ``seq + 1``.

        Used by checkpoint resume so that truncating the interrupted
        run's log at the checkpoint boundary and concatenating the
        resumed log yields exactly the uninterrupted run's log.
        """
        if seq < 0:
            raise ValueError(f"cannot resume event log from seq {seq}")
        self._seq = seq

    def event(self, name: str, **fields: Any) -> None:
        """Append a structured event to the log (and the sink)."""
        self._seq += 1
        record = {"seq": self._seq, "ev": name}
        record.update(fields)
        if self._keep_events:
            self.events.append(record)
        if self._sink is not None:
            self._sink.write(record)

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **fields: Any) -> _Span:
        """Context manager timing a region; emits a ``name`` event with
        ``dur_ns`` on exit and feeds the per-name aggregate."""
        return _Span(self, name, fields)

    def _close_span(self, name: str, dur_ns: int, fields: Dict) -> None:
        agg = self.spans.get(name)
        if agg is None:
            self.spans[name] = [1, dur_ns, dur_ns]
        else:
            agg[0] += 1
            agg[1] += dur_ns
            if dur_ns > agg[2]:
                agg[2] = dur_ns
        self.event(name, **fields, dur_ns=dur_ns)

    # -- output ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time metrics view (counters, gauges, span stats)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {
                name: {"count": c, "total_ns": t, "max_ns": m}
                for name, (c, t, m) in self.spans.items()
            },
        }

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def dump_snapshot(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` as JSON, atomically.

        Uses the write-temp-then-rename protocol so a reader never sees
        a partially written summary, even if this process is killed
        mid-dump.
        """
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class NullRecorder(Recorder):
    """The disabled recorder: every operation is a no-op.

    A single shared instance (:data:`NULL_RECORDER`) is the default
    everywhere; instrumented code branches on :attr:`enabled` so hot
    loops never even reach these methods.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(keep_events=False)
        self._null_span = _NullSpan()

    def count(self, name: str, delta: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **fields: Any) -> "_NullSpan":
        return self._null_span


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


#: The process-wide disabled recorder (safe to share: it holds no state).
NULL_RECORDER = NullRecorder()


#: Event families that are schedule-dependent by nature: ``backend.*``
#: telemetry only exists on concurrent backends, and ``resilience.*``
#: depends on the fault schedule and the supervision configuration.
SCHEDULE_DEPENDENT = ("backend.", "resilience.")


def normalize_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Project an event log onto its deterministic content.

    Strips the wall-clock fields (:data:`WALL_CLOCK_FIELDS`) and drops
    the :data:`SCHEDULE_DEPENDENT` event families.  ``seq`` is
    recomputed after filtering so logs from different backends compare
    equal.
    """
    out: List[Dict[str, Any]] = []
    for ev in events:
        if ev.get("ev", "").startswith(SCHEDULE_DEPENDENT):
            continue
        clean = {
            k: v
            for k, v in ev.items()
            if k not in WALL_CLOCK_FIELDS and k != "seq"
        }
        clean["seq"] = len(out) + 1
        out.append(clean)
    return out


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL event log written by :class:`JsonlSink`.

    Tolerates a truncated *final* record (the footprint a killed run
    leaves behind): the partial line is dropped, everything before it
    is returned.  A malformed record anywhere else still raises --
    that is corruption, not truncation.
    """
    out: List[Dict[str, Any]] = []
    with open(path) as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except ValueError:
            if i == len(lines) - 1:
                break  # truncated-at-a-record tail from a killed run
            raise
    return out
