"""Epoch sources: bounded-memory input for the butterfly engine.

Butterfly analysis is a *sliding-window* algorithm (paper Sections 4.2
and 5.1.2): once epoch ``l+1`` has been received, everything older than
the head epoch ``l-1`` has been absorbed into the SOS and is dead
state.  Nothing about the algorithm needs the whole trace in memory --
only the engine's historical ``run(partition)`` entry point did.

An :class:`EpochSource` is the streaming alternative: anything that can
hand the engine one epoch of :class:`~repro.core.epoch.Block` rows at a
time, in order -- a materialized partition, a JSONL stream file
(:func:`repro.trace.serialize.iter_load`), a generator producing the
workload on the fly, or a socket.  The engine's
:meth:`~repro.core.framework.ButterflyEngine.run_source` /
``feed_blocks`` loop consumes it while holding at most the three-epoch
butterfly window resident, so traces far larger than RAM stream through
in bounded space.

The shape is plain attributes, set by :class:`EpochSource`'s
constructor:

``num_threads``
    Application thread count (every epoch row has one block per
    thread).
``num_epochs``
    Total epoch count when known up front (a file with a header, a
    partition), else ``None`` (an unbounded feed).  It reaches the
    ``run.attach`` event, bounds the checkpoint position a resume may
    start from, and drives ``finish()``'s completeness check.
``preallocated``
    Locations allocated before the monitored window began -- lifeguards
    seed their metadata with these, so the source must surface them
    before the first epoch.

and a subclass adds the rows:

``epochs(start)``
    The epoch rows themselves, in order, beginning at epoch ``start``.
    ``start > 0`` is the resume seek: a file-backed source skips
    records without decoding them, a partition-backed source indexes
    directly.

A bare :class:`EpochSource` is the shape alone: what a push-driven
session (``repro serve``, whose rows arrive on a socket and go to
``feed_blocks`` directly) attaches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.core.epoch import Block, EpochPartition

__all__ = ["EpochSource", "PartitionSource"]


class EpochSource:
    """An input's shape and, in a subclass, its epoch rows in epoch
    order (see module doc).

    A bare instance is push-driven: the engine gets its shape (for row
    validation, the completeness check, lifeguard seeding and streamed
    history eviction) while the rows arrive through
    :meth:`ButterflyEngine.feed_blocks`, so :meth:`epochs` raises.
    """

    def __init__(
        self,
        num_threads: int,
        num_epochs: Optional[int] = None,
        preallocated: Iterable[int] = (),
    ) -> None:
        self.num_threads = num_threads
        self.num_epochs = num_epochs
        self.preallocated = frozenset(preallocated)

    def epochs(self, start: int = 0) -> Iterator[List[Block]]:
        """Yield epoch rows (one :class:`Block` per thread) from epoch
        ``start`` onward.  ``start > 0`` is the checkpoint-resume seek."""
        raise RuntimeError(
            "this source is push-driven: feed the engine with "
            "feed_blocks(), do not pull epochs from it"
        )

    def __iter__(self) -> Iterator[List[Block]]:
        return self.epochs()


class PartitionSource(EpochSource):
    """Adapt a materialized :class:`EpochPartition` to the protocol.

    This is how generated workloads and legacy (version-1) trace files
    run through the streaming pipeline: the *trace* is in memory, but
    the engine's resident state still obeys the three-epoch window
    bound, and every downstream consumer (backends, checkpointing,
    observability) exercises the exact code path a file- or
    socket-backed source uses.

    The partition's block cache is evicted as epochs are yielded -- the
    engine keeps its own window of ``Block`` references, so the cache
    would only duplicate the window.
    """

    def __init__(self, partition: EpochPartition) -> None:
        super().__init__(
            partition.num_threads,
            partition.num_epochs,
            partition.program.preallocated,
        )
        self.partition = partition

    def epochs(self, start: int = 0) -> Iterator[List[Block]]:
        partition = self.partition
        for lid in range(start, partition.num_epochs):
            yield partition.epoch_blocks(lid)
            # The consumer holds its own references to the live window;
            # the cache behind us is dead weight.
            partition.evict_blocks(lid + 1)
