"""Execution backends: deterministic fan-out for the butterfly engine.

The paper's central claim is that lifeguards parallelize: within an
epoch every block's first pass is independent, and every body's second
pass depends only on already-published wing summaries (Section 4.3).
The :class:`~repro.core.framework.ButterflyEngine` exploits that by
splitting each pass into a *pure* compute stage (safe to run
concurrently) and an ordered *commit* stage (applied serially, in
thread-id order).  A backend decides how the compute stage executes:

- ``serial`` -- in the calling thread (the default, and the reference
  schedule every other backend must be bit-identical to);
- ``threads`` -- a :class:`~concurrent.futures.ThreadPoolExecutor`;
  compute stages may share read-only analysis state;
- ``processes`` -- a :class:`~concurrent.futures.ProcessPoolExecutor`;
  work units (scanner, block, context) must be picklable, so only the
  first pass fans out and second passes stay serial.

Because commits always happen in the serial schedule's order,
``EngineStats``, summaries, and lifeguard error logs are bit-identical
across backends; the determinism property tests assert exactly that.
"""

from __future__ import annotations

import abc
import os
import time
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import AnalysisError
from repro.obs.recorder import NULL_RECORDER, Recorder

#: Backend names accepted by the engine and the CLI.
BACKEND_CHOICES = ("serial", "threads", "processes")


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


class ExecutionBackend(abc.ABC):
    """How a batch of independent work units executes."""

    #: Registry name ("serial", "threads", "processes").
    name: str = "abstract"
    #: Whether work units may run concurrently (enables engine fan-out).
    concurrent: bool = False
    #: Whether compute stages can see the live analysis object.  False
    #: for process pools: work units are pickled, so only self-contained
    #: (scanner, block, context) units may cross; the engine keeps any
    #: stage needing shared state on the serial path.
    shares_memory: bool = True
    #: Observability hook (``backend.*`` events/metrics); the engine
    #: points this at its recorder when observability is on.  All
    #: recording happens in the coordinating thread -- workers never
    #: touch the recorder -- so no locking is needed.
    recorder: Recorder = NULL_RECORDER

    @abc.abstractmethod
    def map_ordered(
        self, fn: Callable[..., Any], items: Sequence[Tuple]
    ) -> List[Any]:
        """Apply ``fn(*item)`` to every item; results in item order."""

    def close(self) -> None:
        """Release pooled workers (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The reference schedule: everything in the calling thread."""

    name = "serial"
    concurrent = False

    def map_ordered(
        self, fn: Callable[..., Any], items: Sequence[Tuple]
    ) -> List[Any]:
        return [fn(*item) for item in items]


class _PooledBackend(ExecutionBackend):
    """Shared lazy-executor plumbing for the pooled backends."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1 (got {max_workers}); "
                f"omit it to use the CPU-count default"
            )
        self.max_workers = (
            max_workers if max_workers is not None else _default_workers()
        )
        self._executor: Optional[Executor] = None

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            self._executor = self._make_executor()
        return self._executor

    def map_ordered(
        self, fn: Callable[..., Any], items: Sequence[Tuple]
    ) -> List[Any]:
        if self.recorder.enabled:
            return self._map_ordered_instrumented(fn, items)
        executor = self.executor
        futures = [executor.submit(_apply, (fn, item)) for item in items]
        return self._collect_ordered(futures)

    def _collect_ordered(self, futures: List["Future"]) -> List[Any]:
        """Collect results in submission order; never leak on failure.

        A failing ``future.result()`` used to abandon the remaining
        in-flight futures inside a now-suspect executor.  Instead,
        cancel everything still pending and drop the executor entirely
        before re-raising, so any retry (e.g. by a
        :class:`~repro.resilience.supervisor.SupervisedBackend` wrapping
        this one) starts from a clean pool.
        """
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            self.discard()
            raise

    def _map_ordered_instrumented(
        self, fn: Callable[..., Any], items: Sequence[Tuple]
    ) -> List[Any]:
        """Fan out with per-task telemetry.

        Tasks are submitted individually (instead of ``Executor.map``)
        so each submit/complete is observable; results are still
        collected in submission order, and completion events are emitted
        at collection time from the coordinating thread, so the event
        stream stays deterministic even though workers finish in any
        order.  Per-task wall time is measured inside the worker by
        :func:`_timed_apply` and travels back with the result.
        """
        rec = self.recorder
        executor = self.executor
        n = len(items)
        rec.count("backend.batches")
        rec.count("backend.tasks_submitted", n)
        rec.gauge("backend.queue_depth", n)
        rec.gauge("backend.workers", self.max_workers)
        with rec.span("backend.map", backend=self.name, tasks=n):
            futures = []
            for i, item in enumerate(items):
                futures.append(executor.submit(_timed_apply, (fn, item)))
                rec.event("backend.task.submit", backend=self.name, task=i)
            results = []
            try:
                for i, future in enumerate(futures):
                    result, dur_ns = future.result()
                    rec.count("backend.tasks_completed")
                    rec.event(
                        "backend.task.complete",
                        backend=self.name,
                        task=i,
                        pending=n - i - 1,
                        dur_ns=dur_ns,
                    )
                    results.append(result)
            except BaseException:
                # Same no-leak contract as _collect_ordered.
                for future in futures:
                    future.cancel()
                self.discard()
                raise
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def discard(self) -> None:
        """Drop the executor without waiting for its workers.

        For broken or hung pools, where :meth:`close` would block on
        workers that will never finish.  Pending work is cancelled; the
        next :attr:`executor` access lazily builds a fresh pool.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


def _apply(payload: Tuple[Callable[..., Any], Tuple]) -> Any:
    fn, args = payload
    return fn(*args)


def _timed_apply(
    payload: Tuple[Callable[..., Any], Tuple]
) -> Tuple[Any, int]:
    """Worker-side wrapper measuring one task's wall time (picklable so
    it crosses the process-pool boundary)."""
    fn, args = payload
    t0 = time.perf_counter_ns()
    result = fn(*args)
    return result, time.perf_counter_ns() - t0


class ThreadPoolBackend(_PooledBackend):
    """Fan out over a thread pool; workers share the analysis object."""

    name = "threads"
    concurrent = True
    shares_memory = True

    def _make_executor(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="butterfly",
        )


class ProcessPoolBackend(_PooledBackend):
    """Fan out over a process pool; work units must pickle."""

    name = "processes"
    concurrent = True
    shares_memory = False

    def _make_executor(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.max_workers)


def get_backend(
    spec: Union[str, ExecutionBackend, None],
    max_workers: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "threads":
        return ThreadPoolBackend(max_workers=max_workers)
    if spec == "processes":
        return ProcessPoolBackend(max_workers=max_workers)
    raise AnalysisError(
        f"unknown execution backend {spec!r} "
        f"(choose from {', '.join(BACKEND_CHOICES)})"
    )
