"""Multi-threaded dynamic traces.

A :class:`TraceProgram` is the unit of input to every analysis in this
package: one event sequence per application thread, plus (optionally) the
ground-truth global interleaving recorded by the workload generator.  The
ground truth is *never* visible to butterfly analysis -- the whole point
of the paper is operating without it -- but it lets the harness compute
true error sets and therefore false-positive rates (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import OP_NOP, ColumnarBlock, access_stream
from repro.errors import TraceError
from repro.trace.events import Instr


class ThreadTrace:
    """The dynamic event sequence of a single application thread.

    The :class:`~repro.core.epoch.Block` idiom: ``columns`` holds the
    events as one :class:`~repro.core.columnar.ColumnarBlock` of
    read-only arrays, which every partition slices.  A thread built
    from ``Instr`` objects (the fuzz and test generators, tests) keeps
    them as ``instrs``, so reference legs iterate the program's own
    objects; one built from ``columns`` alone (the workload generators,
    the trace file reader) materializes ``instrs`` on first read.
    """

    __slots__ = ("columns", "_instrs")

    def __init__(
        self,
        instrs: Sequence[Instr] = (),
        columns: Optional[ColumnarBlock] = None,
    ) -> None:
        self._instrs: Optional[Tuple[Instr, ...]] = None
        if columns is None:
            self._instrs = tuple(instrs)
            columns = ColumnarBlock.from_instrs(self._instrs)
        for name in ("op", "dst", "size", "src_off", "src_val"):
            getattr(columns, name).flags.writeable = False
        self.columns = columns

    @property
    def instrs(self) -> Tuple[Instr, ...]:
        if self._instrs is None:
            self._instrs = self.columns.to_instrs()
        return self._instrs

    def cut(
        self, start: int, end: int
    ) -> Tuple[ColumnarBlock, Optional[Tuple[Instr, ...]]]:
        """Events ``[start, end)`` as a block's columns, and as ``Instr``
        objects only if this thread holds them."""
        held = self._instrs
        columns = self.columns.slice(start, end)
        return columns, None if held is None else held[start:end]

    def __len__(self) -> int:
        return self.columns.length

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __getitem__(self, idx: int) -> Instr:
        return self.instrs[idx]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ThreadTrace) and self.columns == other.columns


#: A global-order entry: (thread id, index within that thread's trace).
GlobalRef = Tuple[int, int]

_SCHEDULES = ("true_order", "timesliced_order")


@dataclass
class TraceProgram:
    """A parallel program's dynamic trace: one :class:`ThreadTrace` per thread.

    ``true_order`` is the ground-truth interleaving a generator that
    *simulates* an execution recorded, as a *schedule*: one thread id
    per event in global order (program order fixes which of its
    thread's events each one is; :meth:`walk`).  Analyses must not read
    it.  ``timesliced_order`` is a legal schedule of the *timesliced*
    execution (threads run in OS-quantum slices between synchronization
    points) that the Figure 11 baseline runs; barrier-phased generators
    record one.  Either schedule is held as a read-only ``int64`` array,
    whatever sequence of ids is assigned, and takes no part in ``==``.
    ``preallocated`` locations were allocated before the monitored
    window began (program startup is outside the paper's measurement
    interval); sequential and butterfly AddrCheck both seed them.
    """

    threads: List[ThreadTrace] = field(default_factory=list)
    true_order: Optional[np.ndarray] = field(default=None, compare=False)
    preallocated: FrozenSet[int] = frozenset()
    timesliced_order: Optional[np.ndarray] = field(
        default=None, compare=False
    )

    def __setattr__(self, name: str, value: object) -> None:
        if name in _SCHEDULES and value is not None:
            value = np.array(value, dtype=np.int64)
            value.flags.writeable = False
        super().__setattr__(name, value)

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_lists(*thread_instrs: Sequence[Instr]) -> "TraceProgram":
        """Build a program from per-thread instruction lists."""
        return TraceProgram([ThreadTrace(seq) for seq in thread_instrs])

    def validate(self) -> None:
        """Raise :class:`TraceError` on structural problems."""
        if not self.threads:
            raise TraceError("a trace program needs at least one thread")
        num_threads = self.num_threads
        for label in _SCHEDULES:
            ids = getattr(self, label)
            if ids is None:
                continue
            if ids.ndim != 1 or ids.size and not (
                0 <= ids.min() and ids.max() < num_threads
            ):
                raise TraceError(f"{label} must be one thread id per event")
            counts = np.bincount(ids, minlength=num_threads)
            for t, trace in enumerate(self.threads):
                if counts[t] != len(trace):
                    raise TraceError(
                        f"{label} covers {counts[t]} of {len(trace)} "
                        f"instructions in thread {t}"
                    )

    # -- shape ------------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def total_instructions(self) -> int:
        return sum(len(t) for t in self.threads)

    @property
    def memory_op_count(self) -> int:
        """Number of memory-accessing events (Figure 13's denominator):
        the events that dereference a location."""
        return sum(
            int(np.count_nonzero(access_stream(trace.columns)[2]))
            for trace in self.threads
        )

    def instr_at(self, ref: GlobalRef) -> Instr:
        t, i = ref
        return self.threads[t][i]

    # -- serializations ----------------------------------------------------

    def recorded_order(self) -> np.ndarray:
        """The ground-truth schedule; raises if none was recorded."""
        if self.true_order is None:
            raise TraceError("this trace has no recorded ground-truth order")
        return self.true_order

    def walk(
        self, schedule: Sequence[int]
    ) -> Iterator[Tuple[GlobalRef, int, int, int, List[int]]]:
        """The events ``schedule`` runs (its k-th entry naming thread t
        runs that thread's k-th event), NOPs left out, as plain ints off
        the columns: ``((thread, index), op code, dst, size, accessed)``,
        ``accessed`` being what the event dereferences
        (:func:`~repro.core.columnar.access_stream`)."""
        tids = np.asarray(schedule, dtype=np.int64)
        lengths = np.array([len(t) for t in self.threads], dtype=np.int64)
        counts = np.bincount(tids, minlength=lengths.shape[0])
        if counts.shape[0] > lengths.shape[0] or (counts > lengths).any():
            raise TraceError("the schedule runs past a thread's events")
        # An entry's index in its thread is its rank among the entries
        # naming that thread, which a stable sort lines up in order.
        index = np.empty_like(tids)
        index[np.argsort(tids, kind="stable")] = np.arange(
            tids.shape[0]
        ) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = ColumnarBlock.concat([trace.columns for trace in self.threads])
        acc_off, acc_loc, _ = access_stream(cols)
        event = (np.cumsum(lengths) - lengths)[tids] + index
        kept = np.flatnonzero(cols.op[event] != OP_NOP)
        event = event[kept]
        accessed = acc_loc.tolist()
        return zip(
            zip(tids[kept].tolist(), index[kept].tolist()),
            cols.op[event].tolist(),
            cols.dst[event].tolist(),
            cols.size[event].tolist(),
            map(accessed.__getitem__, map(
                slice, acc_off[event].tolist(), acc_off[event + 1].tolist()
            )),
        )
