"""Butterflies: the sliding three-epoch window around a body block.

For body block ``(l, t)`` (paper Section 4.1, Figure 7):

- **head** -- ``(l-1, t)``: same thread, already executed;
- **tail** -- ``(l+1, t)``: same thread, not yet executed;
- **wings** -- ``(l-1, t'), (l, t'), (l+1, t')`` for every ``t' != t``:
  other threads' blocks whose instructions may interleave arbitrarily
  with the body.

Epochs outside ``[l-1, l+1]`` are strictly ordered with respect to the
body and are summarized by the SOS instead of appearing in the window.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Sequence, Tuple

from repro.core.epoch import Block, EpochPartition


class Butterfly(NamedTuple):
    """The window of potential concurrency around one body block.  The
    head and tail are the body's own thread, which no pass reads here
    (the head's effect reaches the body through its LSOS)."""

    body: Block
    wings: Tuple[Block, ...]


def butterflies_for_epoch(
    partition: EpochPartition, lid: int
) -> List[Butterfly]:
    """All butterflies with bodies in epoch ``l``, in thread order.

    The engine asks for them once epoch ``l+1`` has been received.  The
    three rows ``l-1, l, l+1`` (those that exist) are fetched once and
    every butterfly is cut from them; each body's wings are the rows'
    other-thread blocks, row by row in thread order.
    """
    num_threads = partition.num_threads
    block = partition.block
    rows = [
        [block(wl, wt) for wt in range(num_threads)]
        for wl in (lid - 1, lid, lid + 1)
        if 0 <= wl < partition.num_epochs
    ]
    butterflies = []
    for tid, body in enumerate(rows[lid >= 1]):
        wings: List[Block] = []
        for row in rows:
            wings += row[:tid]
            wings += row[tid + 1:]
        butterflies.append(Butterfly(body, tuple(wings)))
    return butterflies


def window_union(
    butterflies: Sequence[Butterfly], wings: Sequence[Sequence[Any]]
) -> List[Tuple[int, Any]]:
    """``(thread, summary)`` for every block one epoch's wings hold,
    each once (``wings[i]`` are ``butterflies[i]``'s wing summaries):
    the first body's wings hold every other thread's blocks, and the
    second body's wings hold the first body's thread's.  Body ``t``'s
    wings are then exactly the pairs of threads other than ``t``."""
    if not wings:
        return []
    first = butterflies[0]
    union = [(b.tid, s) for b, s in zip(first.wings, wings[0])]
    if len(wings) > 1:
        tid = first.body.tid
        union += [
            (tid, s) for b, s in zip(butterflies[1].wings, wings[1])
            if b.tid == tid
        ]
    return union
