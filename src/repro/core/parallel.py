"""Execution backends: deterministic, fault-tolerant fan-out.

The paper's central claim is that lifeguards parallelize: within an
epoch every block's first pass is independent (Section 4.3).  The
:class:`~repro.core.framework.ButterflyEngine` exploits that by
splitting the first pass into a *pure* scan stage (safe to run
concurrently) and an ordered *commit* stage (applied serially, in
thread-id order).  A backend decides how the scan stage executes:

- ``serial`` -- :class:`SerialBackend`, in the calling thread (the
  default, and the reference schedule every other backend must be
  bit-identical to);
- ``threads`` -- :class:`PoolBackend` over a
  :class:`~concurrent.futures.ThreadPoolExecutor`; scan stages may
  share read-only analysis state;
- ``processes`` -- :class:`PoolBackend` over a
  :class:`~concurrent.futures.ProcessPoolExecutor`; work units
  (scanner, block, context) must be picklable.

Only the first pass fans out; steps 2-3 run in the calling thread on
every backend.

There is one pooled executor and it is supervised: work units are pure
by the engine's scan/commit contract, so re-executing one is always
safe, and :meth:`PoolBackend.map_ordered` uses that to survive faults
without changing results --

- **per-task timeout** -- a unit that hangs past
  ``policy.task_timeout`` is abandoned (the pool is recycled so the
  stuck worker cannot starve later batches) and retried;
- **bounded retry** -- a unit that raises, or returns a corrupted
  summary (:func:`~repro.resilience.faults.result_is_valid`), is
  re-executed up to ``policy.max_retries`` times with exponential
  backoff and deterministic jitter; ``max_retries=0`` fails fast;
- **pool healing** -- ``BrokenProcessPool``/``BrokenThreadPool`` tears
  the executor down and lazily builds a fresh one; lost units are
  resubmitted, completed ones kept;
- **graceful degradation** -- after
  :data:`~repro.resilience.supervisor.DEGRADE_AFTER`
  *consecutive* pool-level failures the pool steps down
  :data:`~repro.resilience.supervisor.DEGRADATION_LADDER`
  (``processes -> threads -> serial``, the last rung running units
  inline in the calling thread) mid-run.

Because results always come back in item order and commits happen in
the serial schedule's order, ``EngineStats``, summaries, and lifeguard
error logs are bit-identical across backends, worker counts, faults
and rungs; the determinism and resilience property tests assert
exactly that.  Telemetry is one set: ``backend.*`` per batch and task,
``resilience.*`` per detected fault, retry, recycle and degradation
(with epoch/thread provenance when the unit carries a block); both
families are schedule-dependent and are stripped by
:func:`~repro.obs.recorder.normalize_events`.
"""

from __future__ import annotations

import abc
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import AnalysisError, ResilienceError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.resilience.faults import FaultPlan, faulted_apply, result_is_valid
from repro.resilience.supervisor import (
    DEGRADATION_LADDER,
    DEGRADE_AFTER,
    RetryPolicy,
)

#: Backend names accepted by the engine and the CLI.
BACKEND_CHOICES = ("serial", "threads", "processes")


class ExecutionBackend(abc.ABC):
    """How a batch of independent work units executes."""

    #: Registry name ("serial", "threads", "processes").
    name: str = "abstract"
    #: Whether work units may run concurrently (enables engine fan-out).
    concurrent: bool = False
    #: Observability hook (``backend.*``/``resilience.*``); the engine
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


class PoolBackend(ExecutionBackend):
    """The pooled executor: ordered fan-out that survives its workers.

    Parameters
    ----------
    kind:
        ``"threads"`` or ``"processes"`` -- the rung the pool starts on.
        The pool is as wide as the host has CPUs; results are identical
        at any width.
    policy:
        Retry and timeout knobs (default :class:`RetryPolicy`).
    plan:
        Optional deterministic
        :class:`~repro.resilience.faults.FaultPlan` injected into every
        work unit (testing/chaos mode).
    """

    #: Fan-out capability is fixed: the engine may cache its scheduling
    #: decision, and degradation must never narrow or widen it mid-run.
    concurrent = True

    def __init__(
        self,
        kind: str,
        policy: Optional[RetryPolicy] = None,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        if kind not in DEGRADATION_LADDER[:-1]:
            raise AnalysisError(
                f"a pool runs on threads or processes, not {kind!r}"
            )
        #: The *current* rung of the ladder: ``kind`` until the pool
        #: degrades, then the name of the rung it stepped down to.
        self.name = kind
        self.max_workers = max(1, os.cpu_count() or 1)
        self.policy = policy or RetryPolicy()
        self.plan = plan
        self._executor: Optional[Executor] = None
        #: Batches mapped so far: the current batch's id in fault keys,
        #: backoff jitter and ``resilience.*`` events.
        self._batches = 0
        self._consecutive_pool_failures = 0

    @property
    def executor(self) -> Executor:
        if self._executor is None:
            if self.name == "processes":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="butterfly",
                )
        return self._executor

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

    def map_ordered(
        self, fn: Callable[..., Any], items: Sequence[Tuple]
    ) -> List[Any]:
        """Fan out, collect in item order, recover what fails."""
        self._batches += 1
        rec = self.recorder
        n = len(items)
        if rec.enabled:
            rec.count("backend.batches")
            rec.count("backend.tasks_submitted", n)
            rec.gauge("backend.queue_depth", n)
            rec.gauge("backend.workers", self.max_workers)
        futures: List[Future] = []
        with rec.span("backend.map", backend=self.name, tasks=n):
            try:
                return self._collect(fn, items, futures)
            except BaseException:
                # Never leak on the way out (retries exhausted, or an
                # interrupt): cancel what is pending and drop the
                # executor, so the next call starts from a fresh pool.
                for future in futures:
                    future.cancel()
                self.discard()
                raise

    # -- internals --------------------------------------------------------

    def _collect(
        self, fn: Callable[..., Any], items: Sequence[Tuple], futures: List
    ) -> List[Any]:
        """The one submit/collect loop.

        Tasks are submitted individually (instead of ``Executor.map``)
        so each submit/complete is observable and each can be retried
        alone; completion events are emitted at collection time from
        the coordinating thread, so the event stream stays
        deterministic even though workers finish in any order.
        Per-task wall time is measured inside the worker by
        :func:`_run_task` and travels back with the result.
        """
        rec = self.recorder
        n = len(items)
        for idx, item in enumerate(items):
            futures.append(self._submit(fn, item, idx, 0))
            if rec.enabled:
                rec.event("backend.task.submit", backend=self.name, task=idx)
        results: List[Any] = [None] * n
        attempts = [0] * n
        idx = 0
        while idx < n:
            try:
                result, dur_ns = futures[idx].result(
                    timeout=self.policy.task_timeout
                )
                fault = None if result_is_valid(result) else "corrupt"
                cause: Optional[Exception] = None
            except FuturesTimeoutError as exc:
                fault, cause = "timeout", exc
            except BrokenExecutor as exc:
                fault, cause = "pool", exc
            except Exception as exc:
                fault, cause = "crash", exc
            if fault is None:
                self._consecutive_pool_failures = 0
                if rec.enabled:
                    rec.count("backend.tasks_completed")
                    rec.event(
                        "backend.task.complete",
                        backend=self.name,
                        task=idx,
                        pending=n - idx - 1,
                        dur_ns=dur_ns,
                    )
                results[idx] = result
                idx += 1
                continue
            self._note_fault(fault, idx, attempts[idx], items[idx])
            pool_level = fault in ("timeout", "pool")
            if pool_level:
                self._pool_incident("broken" if fault == "pool" else fault)
            else:
                self._consecutive_pool_failures = 0
            attempts[idx] += 1
            if attempts[idx] > self.policy.max_retries:
                self._give_up(idx, attempts[idx], fault, cause)
            self._backoff(idx, attempts[idx])
            futures[idx] = self._submit(fn, items[idx], idx, attempts[idx])
            if not pool_level:
                continue  # the pool is healthy: retry just this unit
            # The recycle lost whatever the old executor had not
            # finished.  Completed, healthy futures keep their results
            # (units are pure and nothing has been committed).
            for j in range(idx + 1, n):
                old = futures[j]
                if (
                    not old.done()
                    or old.cancelled()
                    or old.exception() is not None
                ):
                    futures[j] = self._submit(fn, items[j], j, attempts[j])
        return results

    def _submit(
        self, fn: Callable[..., Any], item: Tuple, index: int, attempt: int
    ) -> Future:
        """Start one execution of one unit on the current rung.

        On the last rung the unit runs here, in the calling thread, and
        comes back as an already-finished future, so the collect loop
        treats every rung alike; no timeout is possible there, so an
        injected hang is a stall of ``plan.hang_s`` and the unit still
        returns the correct result.  A submission that itself fails --
        a worker killed by a racing task can break the pool *between* a
        collect and the next submit -- comes back as a failed future
        and is classified at collection like any other failure.
        """
        fault = None
        if self.plan is not None:
            # Only a sacrificial worker process may really be killed.
            allow_kill = self.name == "processes"
            key = (self._batches, index)
            fault = (self.plan, key, attempt, allow_kill)
        future: Future = Future()
        try:
            if self.name != DEGRADATION_LADDER[-1]:
                return self.executor.submit(_run_task, (fn, item, fault))
            future.set_result(_run_task((fn, item, fault)))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def _pool_incident(self, reason: str) -> None:
        """A pool-level failure: recycle the executor, maybe degrade."""
        self.discard()
        self.recorder.count("resilience.pool_recycles")
        self.recorder.event(
            "resilience.pool.recycle", backend=self.name, reason=reason
        )
        self._consecutive_pool_failures += 1
        if self._consecutive_pool_failures >= DEGRADE_AFTER:
            self._degrade()

    def _degrade(self) -> bool:
        """Step down one rung; ``False`` once on the last."""
        rung = DEGRADATION_LADDER.index(self.name)
        if rung == len(DEGRADATION_LADDER) - 1:
            return False
        self.discard()
        lower = DEGRADATION_LADDER[rung + 1]
        self.recorder.count("resilience.degradations")
        self.recorder.event(
            "resilience.degrade",
            from_backend=self.name,
            to_backend=lower,
            after_failures=self._consecutive_pool_failures,
        )
        self.name = lower
        self._consecutive_pool_failures = 0
        return True

    def _note_fault(
        self, kind: str, index: int, attempt: int, item: Tuple
    ) -> None:
        rec = self.recorder
        rec.count("resilience.faults")
        rec.count(f"resilience.faults.{kind}")
        block_id = _block_provenance(item)
        rec.event(
            "resilience.fault",
            kind=kind,
            backend=self.name,
            batch=self._batches,
            task=index,
            attempt=attempt,
            epoch=block_id[0] if block_id else None,
            thread=block_id[1] if block_id else None,
        )

    def _give_up(
        self, index: int, attempts: int, fault: str, cause: Optional[Exception]
    ) -> None:
        """Retries exhausted: say which unit and why it kept failing."""
        self.recorder.event(
            "resilience.giveup",
            backend=self.name,
            batch=self._batches,
            task=index,
            attempts=attempts,
        )
        if fault == "timeout":
            why = f"no result within {self.policy.task_timeout}s"
        elif fault == "corrupt":
            why = "the result failed validation (corrupt)"
        else:  # the unit's own exception, or the broken pool's
            why = f"{type(cause).__name__}: {cause}"
        raise ResilienceError(
            f"task {index} of batch {self._batches} failed {attempts} times "
            f"(max_retries={self.policy.max_retries}): {why}"
        ) from cause

    def _backoff(self, index: int, attempt: int) -> None:
        delay = self.policy.delay_for(self._batches, index, attempt)
        self.recorder.count("resilience.retries")
        self.recorder.event(
            "resilience.retry",
            backend=self.name,
            batch=self._batches,
            task=index,
            attempt=attempt,
            delay_ms=round(delay * 1e3, 3),
        )
        if delay > 0:
            time.sleep(delay)


def _run_task(payload: Tuple) -> Tuple[Any, int]:
    """Worker-side wrapper: one execution of one unit, timed.

    ``payload`` is ``(fn, args, fault)`` with ``fault`` either ``None``
    or the ``(plan, key, attempt, allow_kill)`` tail of a
    :func:`~repro.resilience.faults.faulted_apply` payload.
    Module-level so it crosses the process-pool boundary.
    """
    fn, args, fault = payload
    t0 = time.perf_counter_ns()
    if fault is None:
        result = fn(*args)
    else:
        result = faulted_apply((fn, args) + fault)
    return result, time.perf_counter_ns() - t0


def _block_provenance(item: Tuple) -> Optional[Tuple[int, int]]:
    """Best-effort ``(epoch, thread)`` of a work unit: first-pass units
    are ``(block, context)``; anything else yields ``None``."""
    if not item:
        return None
    return getattr(item[0], "block_id", None)


def get_backend(
    spec: Union[str, ExecutionBackend, None],
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
) -> ExecutionBackend:
    """Resolve a backend name (an instance passes through untouched).

    ``policy`` and ``plan`` configure a pooled backend.  The serial
    backend fans nothing out, so a plan with compute-fault rates would
    inject nothing there; that is refused rather than run clean.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None or spec == "serial":
        if plan is not None and plan.total_rate > 0:
            raise ResilienceError(
                "compute faults (crash/hang/kill/corrupt) are injected "
                "into fanned-out work units and the serial backend has "
                "none; use --backend threads|processes"
            )
        return SerialBackend()
    if spec in DEGRADATION_LADDER[:-1]:
        return PoolBackend(spec, policy, plan)
    raise AnalysisError(
        f"unknown execution backend {spec!r} "
        f"(choose from {', '.join(BACKEND_CHOICES)})"
    )
