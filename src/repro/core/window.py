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


def butterfly_for(partition: EpochPartition, lid: int, tid: int) -> Butterfly:
    """Construct the butterfly whose body is block ``(l, t)``."""
    body = partition.block(lid, tid)
    head = partition.block(lid - 1, tid) if lid >= 1 else None
    tail = (
        partition.block(lid + 1, tid)
        if lid + 1 < partition.num_epochs
        else None
    )
    wings = []
    for wl in (lid - 1, lid, lid + 1):
        if not 0 <= wl < partition.num_epochs:
            continue
        for wt in range(partition.num_threads):
            if wt != tid:
                wings.append(partition.block(wl, wt))
    return Butterfly(body=body, head=head, tail=tail, wings=tuple(wings))


def butterflies_for_epoch(
    partition: EpochPartition, lid: int
) -> List[Butterfly]:
    """All butterflies with bodies in epoch ``l``, in thread order.

    This is one fan-out unit for the engine: once epoch ``l+1`` has been
    received these bodies are mutually independent (each second pass
    reads only wing summaries already published by first passes).
    """
    return [
        butterfly_for(partition, lid, tid)
        for tid in range(partition.num_threads)
    ]
