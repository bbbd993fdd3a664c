"""Instruction-level application events observed by lifeguards.

The paper's monitoring model (Section 2) delivers one event per retired
application instruction.  Lifeguards only care about a handful of event
classes; everything else is an opaque ``NOP`` that still consumes log
bandwidth and lifeguard dispatch time.

Abstract memory locations are plain ``int`` values.  A ``MALLOC``/``FREE``
of ``size`` locations covers the half-open range ``[dst, dst + size)``,
mirroring the paper's per-byte allocation metadata at a coarser grain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class Op(enum.Enum):
    """Event kinds a lifeguard can observe.

    The vocabulary covers both canonical analyses (Section 5) and the two
    concrete lifeguards (Section 6):

    - ``READ``/``WRITE``: data memory accesses (AddrCheck checks these;
      WRITE creates a reaching definition of its destination).
    - ``MALLOC``/``FREE``: allocation events (AddrCheck GEN/KILL).
    - ``ASSIGN``: ``dst := op(srcs)`` -- a unary/binary computation
      (TaintCheck inheritance; reaching-expressions GEN).
    - ``TAINT``/``UNTAINT``: system-call effects marking locations as
      (un)trusted (TaintCheck GEN of bottom / top).
    - ``JUMP``: use of a location in a critical way, e.g. an indirect
      jump target (TaintCheck raises an error when the location may be
      tainted).
    - ``NOP``: any instruction irrelevant to the current analysis.
    """

    READ = "read"
    WRITE = "write"
    MALLOC = "malloc"
    FREE = "free"
    ASSIGN = "assign"
    TAINT = "taint"
    UNTAINT = "untaint"
    JUMP = "jump"
    NOP = "nop"


#: Ops that dereference memory and therefore appear in AddrCheck's
#: ACCESS summaries.  ASSIGN both reads its sources and writes its
#: destination; JUMP reads its single source.
_ACCESSING_OPS = frozenset(
    {Op.READ, Op.WRITE, Op.ASSIGN, Op.JUMP}
)


@dataclass(frozen=True)
class Instr:
    """One dynamic instruction (event) in a thread's trace.

    Parameters
    ----------
    op:
        The event kind.
    dst:
        Destination location (written/allocated/tainted), or ``None``
        for events with no destination (``READ``, ``JUMP``, ``NOP``).
    srcs:
        Source locations read by the instruction.  ``READ`` and ``JUMP``
        carry their address here; ``ASSIGN`` carries its one or two
        operands.
    size:
        Number of consecutive locations covered, only meaningful for
        ``MALLOC``/``FREE`` (the allocated/freed extent).
    """

    op: Op
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = field(default=())
    size: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.op in (Op.MALLOC, Op.FREE, Op.WRITE, Op.TAINT, Op.UNTAINT, Op.ASSIGN):
            if self.dst is None:
                raise ValueError(f"{self.op.value} requires a destination")
        if self.op in (Op.READ, Op.JUMP) and len(self.srcs) != 1:
            raise ValueError(f"{self.op.value} requires exactly one source")
        if self.op is Op.ASSIGN and not 0 <= len(self.srcs) <= 2:
            raise ValueError("assign takes zero, one, or two sources")

    # -- convenience constructors ------------------------------------

    @staticmethod
    def read(addr: int) -> "Instr":
        """A load from ``addr``."""
        return Instr(Op.READ, srcs=(addr,))

    @staticmethod
    def write(addr: int) -> "Instr":
        """A store to ``addr``."""
        return Instr(Op.WRITE, dst=addr)

    @staticmethod
    def malloc(base: int, size: int = 1) -> "Instr":
        """Allocate ``[base, base + size)``."""
        return Instr(Op.MALLOC, dst=base, size=size)

    @staticmethod
    def free(base: int, size: int = 1) -> "Instr":
        """Deallocate ``[base, base + size)``."""
        return Instr(Op.FREE, dst=base, size=size)

    @staticmethod
    def assign(dst: int, *srcs: int) -> "Instr":
        """``dst := unop/binop(srcs)`` -- taint inheritance edge."""
        return Instr(Op.ASSIGN, dst=dst, srcs=tuple(srcs))

    @staticmethod
    def taint(addr: int) -> "Instr":
        """Mark ``addr`` tainted (untrusted input arrived)."""
        return Instr(Op.TAINT, dst=addr)

    @staticmethod
    def untaint(addr: int) -> "Instr":
        """Mark ``addr`` untainted (overwritten with trusted data)."""
        return Instr(Op.UNTAINT, dst=addr)

    @staticmethod
    def jump(addr: int) -> "Instr":
        """Use ``addr`` as an indirect jump target (critical use)."""
        return Instr(Op.JUMP, srcs=(addr,))

    @staticmethod
    def nop() -> "Instr":
        """An instruction irrelevant to any analysis: one shared
        instance, since a frozen NOP carries no state of its own."""
        return _NOP

    # -- derived views -------------------------------------------------

    @property
    def locations(self) -> Tuple[int, ...]:
        """Every location this instruction touches (reads or writes)."""
        locs = list(self.srcs)
        if self.dst is not None:
            if self.op in (Op.MALLOC, Op.FREE):
                locs.extend(range(self.dst, self.dst + self.size))
            else:
                locs.append(self.dst)
        return tuple(locs)

    @property
    def extent(self) -> Tuple[int, ...]:
        """Locations covered by a MALLOC/FREE, else the dst singleton."""
        if self.dst is None:
            return ()
        if self.op in (Op.MALLOC, Op.FREE):
            return tuple(range(self.dst, self.dst + self.size))
        return (self.dst,)

    @property
    def accessed(self) -> Tuple[int, ...]:
        """Locations *dereferenced* by this instruction.

        AddrCheck verifies these are allocated.  MALLOC/FREE are
        allocation-state changes, not accesses, so they return ``()``.
        """
        if self.op not in _ACCESSING_OPS:
            return ()
        locs = list(self.srcs)
        if self.op in (Op.WRITE, Op.ASSIGN) and self.dst is not None:
            locs.append(self.dst)
        return tuple(locs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.value]
        if self.dst is not None:
            parts.append(f"dst={self.dst}")
        if self.srcs:
            parts.append(f"srcs={self.srcs}")
        if self.size != 1:
            parts.append(f"size={self.size}")
        return f"Instr({', '.join(parts)})"


#: The one plain NOP (no destination, no sources, size 1) every
#: :meth:`Instr.nop` and :meth:`~repro.core.columnar.ColumnarBlock.to_instrs`
#: hands out.
_NOP = Instr(Op.NOP)
