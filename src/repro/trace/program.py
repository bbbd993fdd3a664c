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

from repro.core.columnar import ColumnarBlock
from repro.errors import TraceError
from repro.trace.events import Instr


@dataclass
class ThreadTrace:
    """The dynamic event sequence of a single application thread.

    ``columns`` holds the same events as one
    :class:`~repro.core.columnar.ColumnarBlock`, built once here, so
    building a program pays the conversion and every partition of it
    cuts blocks as slices of these arrays.  Both forms are fixed at
    construction (``instrs`` becomes a tuple, the arrays read-only):
    every block of every partition shares them.
    """

    instrs: Tuple[Instr, ...] = ()
    columns: ColumnarBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.instrs = tuple(self.instrs)
        self.columns = ColumnarBlock.from_instrs(self.instrs)
        for name in ("op", "dst", "size", "src_off", "src_val"):
            getattr(self.columns, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __getitem__(self, idx: int) -> Instr:
        return self.instrs[idx]


#: A global-order entry: (thread id, index within that thread's trace).
GlobalRef = Tuple[int, int]


@dataclass
class TraceProgram:
    """A parallel program's dynamic trace: one :class:`ThreadTrace` per thread.

    Parameters
    ----------
    threads:
        Per-thread event sequences, indexed by thread id.
    true_order:
        Optional ground-truth serialization as ``(thread, index)`` pairs.
        Generators that *simulate* an execution record the interleaving
        they actually produced here; analyses must not read it.
    preallocated:
        Locations allocated before the monitored window began (program
        startup happens outside the paper's measurement interval); both
        sequential and butterfly AddrCheck seed their metadata with
        these.
    timesliced_order:
        Optional legal serialization of the *timesliced* execution
        (threads run in long OS-quantum slices between synchronization
        points) used by the Figure 11 baseline.  Generators with
        barrier-phase structure record one; it is an alternative valid
        execution of the same program, not the ground truth.
    """

    threads: List[ThreadTrace] = field(default_factory=list)
    true_order: Optional[List[GlobalRef]] = None
    preallocated: FrozenSet[int] = frozenset()
    timesliced_order: Optional[List[GlobalRef]] = None

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
        for label, order in (
            ("true_order", self.true_order),
            ("timesliced_order", self.timesliced_order),
        ):
            if order is None:
                continue
            counts = [0] * num_threads
            for t, i in order:
                if not 0 <= t < num_threads:
                    raise TraceError(f"{label} references unknown thread {t}")
                if i != counts[t]:
                    raise TraceError(
                        f"{label} violates program order in thread {t}: "
                        f"expected index {counts[t]}, saw {i}"
                    )
                counts[t] += 1
            for t, n in enumerate(counts):
                if n != len(self.threads[t]):
                    raise TraceError(
                        f"{label} covers {n} of {len(self.threads[t])} "
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
        """Number of memory-accessing events (Figure 13's denominator)."""
        return sum(
            1 for trace in self.threads for instr in trace if instr.is_memory_op
        )

    def instr_at(self, ref: GlobalRef) -> Instr:
        t, i = ref
        return self.threads[t][i]

    # -- serializations ----------------------------------------------------

    def recorded_order(self) -> List[GlobalRef]:
        """The ground-truth interleaving; raises if none was recorded."""
        if self.true_order is None:
            raise TraceError("this trace has no recorded ground-truth order")
        return self.true_order

    def iter_recorded(self) -> Iterator[Tuple[GlobalRef, Instr]]:
        """Iterate ``((thread, index), instr)`` in ground-truth order."""
        for ref in self.recorded_order():
            yield ref, self.instr_at(ref)
