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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.epoch import Block, EpochPartition


@dataclass(frozen=True)
class Butterfly:
    """The window of potential concurrency around one body block."""

    body: Block
    head: Optional[Block]
    tail: Optional[Block]
    wings: Tuple[Block, ...]


def butterflies_for_epoch(
    partition: EpochPartition, lid: int
) -> List[Butterfly]:
    """All butterflies with bodies in epoch ``l``, in thread order.

    This is one fan-out unit for the engine: once epoch ``l+1`` has been
    received these bodies are mutually independent (each second pass
    reads only wing summaries already published by first passes).  The
    three rows ``l-1, l, l+1`` (those that exist) are fetched once and
    every butterfly is cut from them; each body's wings are the rows'
    other-thread blocks, row by row in thread order.
    """
    num_threads = partition.num_threads
    rows = [
        [partition.block(wl, wt) for wt in range(num_threads)]
        for wl in (lid - 1, lid, lid + 1)
        if 0 <= wl < partition.num_epochs
    ]
    head_row = rows[0] if lid >= 1 else None
    tail_row = rows[-1] if lid + 1 < partition.num_epochs else None
    butterflies = []
    for tid, body in enumerate(rows[lid >= 1]):
        wings: List[Block] = []
        for row in rows:
            wings += row[:tid]
            wings += row[tid + 1:]
        butterflies.append(Butterfly(
            body=body,
            head=head_row[tid] if head_row else None,
            tail=tail_row[tid] if tail_row else None,
            wings=tuple(wings),
        ))
    return butterflies
