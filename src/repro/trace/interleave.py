"""Serializations of parallel traces under different consistency assumptions.

Butterfly analysis never sees an interleaving; these helpers exist to
(1) drive the *sequential* baseline lifeguards (the "timesliced" state of
the art in Figure 11 interleaves all threads onto one stream), and
(2) provide ground-truth oracles in tests: enumerating every sequentially
consistent interleaving of a small trace, or sampling relaxed-memory
reorderings, lets the suite check the paper's zero-false-negative
theorems against *all* possible executions.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.events import Instr
from repro.trace.program import GlobalRef, TraceProgram


def round_robin(program: TraceProgram, quantum: int = 1) -> np.ndarray:
    """Interleave threads round-robin with a fixed quantum, as a
    schedule (one thread id per event).

    This models the timesliced baseline: application threads share one
    core and the OS switches between them every ``quantum`` events.
    """
    if quantum < 1:
        raise ValueError("quantum must be >= 1")
    lengths = np.array([len(trace) for trace in program.threads], np.int64)
    tids = np.repeat(np.arange(lengths.size), lengths)
    # Each event's slice number: its index in its thread // quantum.
    starts = np.cumsum(lengths) - lengths
    rounds = (np.arange(tids.size) - starts[tids]) // quantum
    # Slice by slice, thread by thread; the sort is stable, so each
    # thread's slice stays in program order.
    return tids[np.lexsort((tids, rounds))]


def random_interleave(
    program: TraceProgram, rng: Optional[random.Random] = None
) -> List[GlobalRef]:
    """One uniformly random sequentially consistent interleaving."""
    rng = rng or random.Random()
    cursors = [0] * program.num_threads
    live = [t for t, tr in enumerate(program.threads) if len(tr) > 0]
    order: List[GlobalRef] = []
    while live:
        t = rng.choice(live)
        order.append((t, cursors[t]))
        cursors[t] += 1
        if cursors[t] == len(program.threads[t]):
            live.remove(t)
    return order


def all_interleavings(program: TraceProgram) -> Iterator[List[GlobalRef]]:
    """Every sequentially consistent interleaving (exhaustive; tests only).

    The count is multinomial in the thread lengths, so callers must keep
    traces tiny (the test-suite stays under ~10 total events).
    """
    lengths = [len(t) for t in program.threads]

    def rec(cursors: Tuple[int, ...]) -> Iterator[List[GlobalRef]]:
        if all(c == n for c, n in zip(cursors, lengths)):
            yield []
            return
        for t in range(program.num_threads):
            if cursors[t] < lengths[t]:
                advanced = tuple(
                    c + 1 if i == t else c for i, c in enumerate(cursors)
                )
                for rest in rec(advanced):
                    yield [(t, cursors[t])] + rest

    return rec(tuple(0 for _ in lengths))


def count_interleavings(program: TraceProgram) -> int:
    """Number of SC interleavings (multinomial coefficient)."""
    total = program.total_instructions
    result = 1
    used = 0
    for trace in program.threads:
        n = len(trace)
        for k in range(1, n + 1):
            used += 1
            result = result * used // k
    assert used == total
    return result


# ---------------------------------------------------------------------------
# Relaxed memory models
# ---------------------------------------------------------------------------


def _conflicts(a: Instr, b: Instr) -> bool:
    """Whether two same-thread instructions are ordered by an intra-thread
    dependence (shared location with at least one writer, in the coarse
    sense used by the paper's weak assumptions)."""
    a_writes = set(a.extent)
    b_writes = set(b.extent)
    a_all = set(a.locations)
    b_all = set(b.locations)
    return bool(a_writes & b_all) or bool(b_writes & a_all)


def relaxed_thread_orders(
    trace: Sequence[Instr], window: int = 2
) -> Iterator[List[int]]:
    """All per-thread instruction permutations a relaxed machine may commit.

    The paper assumes only that a memory model "respects its own
    intra-thread dependences" (Section 4.4).  We approximate hardware
    reordering by allowing an instruction to commit up to ``window``
    slots early, provided it never passes an instruction it conflicts
    with.  ``window=0`` degenerates to program order.
    """
    if window < 0:
        raise ValueError(f"reorder window must be >= 0, got {window}")

    n = len(trace)

    def rec(remaining: Tuple[int, ...]) -> Iterator[List[int]]:
        if not remaining:
            yield []
            return
        earliest = remaining[0]
        for pos, idx in enumerate(remaining):
            if idx - earliest > window:
                break
            # idx may commit now only if it doesn't conflict with any
            # not-yet-committed earlier instruction.
            if any(
                _conflicts(trace[idx], trace[j])
                for j in remaining[:pos]
            ):
                continue
            rest = remaining[:pos] + remaining[pos + 1 :]
            for tail in rec(rest):
                yield [idx] + tail

    return rec(tuple(range(n)))


def relaxed_interleavings(
    program: TraceProgram, window: int = 1
) -> Iterator[List[GlobalRef]]:
    """Every interleaving of every relaxed per-thread commit order.

    Exhaustive and exponential: strictly a test oracle for tiny traces.
    Yields global orders as ``(thread, original_index)`` refs, so the
    same ref vocabulary works for SC and relaxed oracles.
    """
    per_thread = [
        list(relaxed_thread_orders(trace.instrs, window=window))
        for trace in program.threads
    ]
    for combo in itertools.product(*per_thread):
        reordered = TraceProgram.from_lists(
            *[
                [program.threads[t][i] for i in order]
                for t, order in enumerate(combo)
            ]
        )
        for inter in all_interleavings(reordered):
            yield [(t, combo[t][k]) for t, k in inter]


def serialize(
    program: TraceProgram, order: Sequence[GlobalRef]
) -> List[Instr]:
    """Materialize an order as a flat instruction list."""
    return [program.instr_at(ref) for ref in order]


def is_valid_sc_order(
    program: TraceProgram, order: Sequence[GlobalRef]
) -> bool:
    """Check an order visits every instruction once, in program order
    within each thread."""
    cursors = [0] * program.num_threads
    for t, i in order:
        if not 0 <= t < program.num_threads:
            return False
        if i != cursors[t]:
            return False
        cursors[t] += 1
    return all(
        cursors[t] == len(program.threads[t]) for t in range(program.num_threads)
    )
