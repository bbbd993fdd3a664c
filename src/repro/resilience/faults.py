"""Deterministic fault injection for the execution backends.

A :class:`FaultPlan` is a seeded, pure decision function: given a work
unit's identity ``(batch, index)`` and its retry ``attempt``, it decides
whether that execution raises (*crash*), stalls (*hang*), dies taking
its worker process with it (*kill*), or returns a detectably corrupted
summary (*corrupt*).  The decision depends only on the plan's seed and
the task identity -- never on wall clock, scheduling, or process
identity -- so a fault schedule is reproducible run to run and the
fault-injection property tests can pin exact recovery behaviour.

Plans are frozen dataclasses of primitives, so they pickle across the
process-pool boundary; the worker-side wrapper
(:func:`faulted_apply`) re-evaluates the same pure decision inside the
worker.

Since the serve daemon landed, a plan also carries *transport-level*
fault rates -- the ways a live trace stream goes wrong between a
producer and the lifeguard, which ``repro serve`` treats as first-class
inputs rather than assuming away:

``disconnect``
    The producer's connection drops cleanly between epoch frames
    (client crash, network partition) -- mid-stream, mid-epoch-window.
``trunc_frame``
    The connection dies *inside* a frame: the length prefix promises
    more bytes than ever arrive.
``corrupt_bytes``
    A frame arrives whole but its payload bytes are damaged.
``stall``
    The producer stops sending for ``stall_s`` seconds -- long enough
    to trip a consumer's idle timeout.

Transport decisions (:meth:`FaultPlan.decide_transport`) are keyed and
salted independently of the compute-fault decisions, so mixing both
families in one plan never correlates their dice.  The fault-injecting
stream client (:mod:`repro.serve.client`) evaluates transport faults on
the producer side; the daemon must isolate and survive them.

The CLI surfaces plans as ``--inject-faults SPEC`` where ``SPEC`` is a
comma-separated list of ``key=value`` pairs::

    crash=0.05,hang=0.02,corrupt=0.05,seed=7
    kill=0.01,seed=3,hang_s=0.25
    disconnect=0.1,stall=0.05,stall_s=1.5,seed=11

Keys: per-kind rates (``crash``, ``hang``, ``kill``, ``corrupt`` for
compute faults; ``disconnect``, ``trunc_frame``, ``corrupt_bytes``,
``stall`` for transport faults; each a probability in ``[0, 1]``, and
each family's sum must stay ``<= 1``), ``seed`` (default 0),
``hang_s`` (compute stall duration in seconds, default 0.25) and
``stall_s`` (producer stall duration in seconds, default 0.75).
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.errors import ResilienceError

#: Compute fault kinds a plan can inject, in cumulative-probability
#: order (decided per work unit by :meth:`FaultPlan.decide`).
FAULT_KINDS = ("crash", "hang", "kill", "corrupt")

#: Transport fault kinds, in cumulative-probability order (decided per
#: stream frame by :meth:`FaultPlan.decide_transport`).
TRANSPORT_FAULT_KINDS = ("disconnect", "trunc_frame", "corrupt_bytes", "stall")

_MASK64 = (1 << 64) - 1

#: Salt separating the transport dice from the compute dice: one seed
#: drives both families without correlating their decisions.
_TRANSPORT_SALT = 0xA5C3D1E87B29F04D


def _mix(*values: int) -> int:
    """SplitMix64-style avalanche over the packed inputs.

    Used instead of ``hash()`` (salted per process) and ``random``
    (stateful) so decisions agree between the coordinator and any
    worker process.
    """
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h ^ (v & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h ^= h >> 27
        h = h * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


class InjectedFault(RuntimeError):
    """Raised by a work unit the fault plan chose to crash."""

    def __init__(self, key: Tuple[int, int], attempt: int) -> None:
        super().__init__(
            f"injected crash in task {key} (attempt {attempt})"
        )
        self.key = key
        self.attempt = attempt

    def __reduce__(self):
        # Exceptions unpickle as ``cls(*args)`` and ``args`` is the
        # message; without this a crash injected in a worker *process*
        # fails to unpickle in the parent and breaks the whole pool.
        return (type(self), (self.key, self.attempt))


class CorruptedResult:
    """A detectably corrupted work-unit result.

    Models a summary whose integrity check fails: the pool's
    result validation rejects it and schedules a retry, exactly as a
    checksum mismatch would in a real monitor.
    """

    __slots__ = ("key", "attempt")

    def __init__(self, key: Tuple[int, int], attempt: int) -> None:
        self.key = key
        self.attempt = attempt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CorruptedResult(key={self.key}, attempt={self.attempt})"


def result_is_valid(result: Any) -> bool:
    """The pool's result validation hook."""
    return not isinstance(result, CorruptedResult)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault schedule (see module docstring)."""

    crash: float = 0.0
    hang: float = 0.0
    kill: float = 0.0
    corrupt: float = 0.0
    disconnect: float = 0.0
    trunc_frame: float = 0.0
    corrupt_bytes: float = 0.0
    stall: float = 0.0
    seed: int = 0
    hang_s: float = 0.25
    stall_s: float = 0.75

    def __post_init__(self) -> None:
        for family, kinds in (
            ("fault", FAULT_KINDS),
            ("transport fault", TRANSPORT_FAULT_KINDS),
        ):
            for kind in kinds:
                rate = getattr(self, kind)
                if not 0.0 <= rate <= 1.0:
                    raise ResilienceError(
                        f"{family} rate {kind}={rate!r} must be in [0, 1]"
                    )
            if sum(getattr(self, k) for k in kinds) > 1.0:
                raise ResilienceError(
                    f"{family} rates must sum to at most 1"
                )

    @property
    def total_rate(self) -> float:
        return sum(getattr(self, k) for k in FAULT_KINDS)

    @property
    def total_transport_rate(self) -> float:
        return sum(getattr(self, k) for k in TRANSPORT_FAULT_KINDS)

    def decide(self, key: Tuple[int, int], attempt: int) -> Optional[str]:
        """The compute fault (or ``None``) for one execution of one task.

        Pure: depends only on ``(seed, key, attempt)``.
        """
        u = _mix(self.seed, key[0], key[1], attempt) / float(1 << 64)
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self, kind)
            if u < edge:
                return kind
        return None

    def decide_transport(
        self, key: Tuple[int, int], attempt: int
    ) -> Optional[str]:
        """The transport fault (or ``None``) for one frame of one stream.

        ``key`` is conventionally ``(stream digest, epoch)`` and
        ``attempt`` the stream's reconnect count, so a retried delivery
        of the same epoch rolls fresh dice -- a producer that resumes
        after a disconnect is not doomed to disconnect there forever.
        Pure and salted independently of :meth:`decide`.
        """
        u = _mix(
            self.seed ^ _TRANSPORT_SALT, key[0], key[1], attempt
        ) / float(1 << 64)
        edge = 0.0
        for kind in TRANSPORT_FAULT_KINDS:
            edge += getattr(self, kind)
            if u < edge:
                return kind
        return None

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from an ``--inject-faults`` spec string."""
        all_kinds = FAULT_KINDS + TRANSPORT_FAULT_KINDS
        fields: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ResilienceError(
                    f"bad fault spec part {part!r}: expected key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key in all_kinds or key in ("hang_s", "stall_s"):
                    fields[key] = float(value)
                elif key == "seed":
                    fields[key] = int(value)
                else:
                    raise ResilienceError(
                        f"unknown fault spec key {key!r} (choose from "
                        f"{', '.join(all_kinds + ('seed', 'hang_s', 'stall_s'))})"
                    )
            except ValueError as exc:
                raise ResilienceError(
                    f"bad fault spec value {part!r}: {exc}"
                ) from None
        if not any(k in fields for k in all_kinds):
            raise ResilienceError(
                f"fault spec {spec!r} names no fault kind "
                f"({', '.join(all_kinds)})"
            )
        return cls(**fields)


def faulted_apply(
    payload: Tuple[
        Callable[..., Any], Tuple, FaultPlan, Tuple[int, int], int, bool
    ]
) -> Any:
    """Worker-side wrapper executing one possibly-faulted work unit.

    ``payload`` is ``(fn, args, plan, key, attempt, allow_kill)``.
    Module-level (and all-primitive-carrying) so it crosses the
    process-pool boundary.  ``allow_kill`` is set by the pool only
    when the unit runs in a sacrificial worker process; elsewhere a
    ``kill`` decision downgrades to ``crash`` so injection never takes
    the coordinating process down.
    """
    fn, args, plan, key, attempt, allow_kill = payload
    fault = plan.decide(key, attempt)
    if fault == "crash" or (fault == "kill" and not allow_kill):
        raise InjectedFault(key, attempt)
    if fault == "kill":
        os._exit(113)  # simulate a worker crash: breaks the pool
    if fault == "corrupt":
        # The unit's work is lost, not merely mislabeled: fn must NOT
        # run, because on shares-memory backends work units may consume
        # their context argument (e.g. the AddrCheck scanner's running
        # LSOS), and the retry needs it pristine.
        return CorruptedResult(key, attempt)
    if fault == "hang":
        time.sleep(plan.hang_s)
        # A hung unit can outlive its timeout and race the retry that
        # replaced it, so it may only touch a private copy of its args.
        return fn(*copy.deepcopy(args))
    return fn(*args)
