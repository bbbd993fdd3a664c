"""Columnar (structure-of-arrays) event blocks.

The per-event :class:`~repro.trace.events.Instr` dataclass is the right
unit for tests and reference implementations, but on million-event
traces the object representation *is* the bottleneck: every event costs
an allocation, an ``Op`` enum box, a ``__post_init__`` and a tuple of
sources, and every pass over a block pays Python-level attribute
dispatch per event.  A :class:`ColumnarBlock` stores the same
information as parallel arrays instead:

====================  ======================================================
column                meaning
====================  ======================================================
``op``                per-event op code (``OP_CODES[Op]``), unsigned byte
``dst``               destination location, or :data:`NO_DST` for ``None``
``size``              MALLOC/FREE extent (1 elsewhere)
``src_off``           CSR offsets into ``src_val`` (length ``n + 1``)
``src_val``           flattened source locations, in per-event order
====================  ======================================================

The CSR source layout is lossless for any source arity, so *every*
legal ``Instr`` round-trips exactly (``from_instrs`` then ``to_instrs``
is the identity).  Vector kernels (the AddrCheck first-pass scan, the
columnar sources, the stream decoder) operate on the raw columns, and
the workload generators append each thread's events straight into
columns (:class:`ColumnAppender`), so none of them materializes an
``Instr``; what iterates events (the dataflow analyses, the
per-``Instr`` reference kernels) asks a
:class:`~repro.core.epoch.Block` for ``.instrs``.

What an event dereferences is one rule over the columns,
:func:`access_stream`: AddrCheck's first pass, the schedule walk
(:meth:`~repro.trace.program.TraceProgram.walk`) and the timing model
all read it.  A block's access footprint,
AddrCheck's and RaceCheck's alike, is a :class:`SortedFirstAccess`,
defined here with what both kernels share.

Columns are numpy arrays (``uint8`` ops, ``int64`` everything else);
numpy is a dependency of the package, not an option.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import accumulate, chain
from typing import Any, Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.trace.events import Instr, Op

#: Always true: numpy is a dependency.  Kept because result sets of the
#: end-to-end benchmark record the column backend under this name.
HAVE_NUMPY = True

#: Stable op-code table (baked into pickled blocks; append-only).
OP_CODES = {
    Op.READ: 0,
    Op.WRITE: 1,
    Op.MALLOC: 2,
    Op.FREE: 3,
    Op.ASSIGN: 4,
    Op.TAINT: 5,
    Op.UNTAINT: 6,
    Op.JUMP: 7,
    Op.NOP: 8,
}
OPS_BY_CODE: Tuple[Op, ...] = tuple(
    op for op, _ in sorted(OP_CODES.items(), key=lambda kv: kv[1])
)
#: ``op.value`` -> code, for decoding raw stream rows without Op boxing.
CODE_OF_VALUE = {op.value: code for op, code in OP_CODES.items()}
#: code -> ``op.value``, for encoding them.
VALUE_OF_CODE: Tuple[str, ...] = tuple(op.value for op in OPS_BY_CODE)

OP_READ = OP_CODES[Op.READ]
OP_WRITE = OP_CODES[Op.WRITE]
OP_MALLOC = OP_CODES[Op.MALLOC]
OP_FREE = OP_CODES[Op.FREE]
OP_ASSIGN = OP_CODES[Op.ASSIGN]
OP_TAINT = OP_CODES[Op.TAINT]
OP_UNTAINT = OP_CODES[Op.UNTAINT]
OP_JUMP = OP_CODES[Op.JUMP]
OP_NOP = OP_CODES[Op.NOP]

# Op classes over the uint8 op column.  A class of four codes is a bool
# table read as ``TABLE.take(ops)`` -- never ``TABLE[ops]``, which numpy
# serves on a slow path for a uint8 index, ~2.7x the ``take``
# (benchmarks/test_microbench_core.py holds every ``*_LUT`` in src/ to
# that).  A class of two codes is two SIMD compares, which beat any
# table read at 25 000 events (4.5 vs 25 us) and tie it at 2 048
# (docs/perf.md, "Numpy's slow paths").
_ACC_LUT = np.zeros(256, dtype=bool)
_ACC_LUT[[OP_READ, OP_WRITE, OP_ASSIGN, OP_JUMP]] = True

#: Sentinel encoding ``dst=None`` (int64 minimum; never a real location).
NO_DST = -(2**63)
#: Largest value an int64 column holds.
_I64_MAX = 2**63 - 1

#: Ops that require a destination (mirrors ``Instr.__post_init__``).
_NEEDS_DST = frozenset(
    OP_CODES[op]
    for op in (Op.MALLOC, Op.FREE, Op.WRITE, Op.TAINT, Op.UNTAINT, Op.ASSIGN)
)
_NEEDS_DST_LUT = np.zeros(256, dtype=bool)
_NEEDS_DST_LUT[sorted(_NEEDS_DST)] = True

#: A packed block's header fields: event count, source count, and the
#: width codes of the ``dst``, ``size``, per-event source count and
#: ``src_val`` columns.  A 32-byte sha256 of those fields and the body
#: (the ``op`` bytes, then those four columns at their widths) follows
#: them, so no flipped byte of the header or body decodes.
_PACKED_HEAD = struct.Struct("<QQ4B")
_DIGEST = 32
#: Width code -> little-endian column type (the op column is one byte).
_PACKED_WIDTHS = tuple(np.dtype(f"<i{w}") for w in (1, 2, 4, 8))


class RowDecodeError(ValueError):
    """A raw ``[op, dst, srcs, size]`` row or a packed block failed
    validation.

    Carries the offending row (``None`` for a packed block, whose
    message names the event), which the trace readers and the serve
    daemon name in one :class:`~repro.errors.TraceError` message.
    """

    def __init__(self, row: object, reason: str) -> None:
        super().__init__(reason)
        self.row = row


#: ``(ops, dsts, sizes, src_off, src_val)`` as plain sequences of ints.
_Columns = Tuple[Sequence[int], ...]


def _walk_columns(rows: Sequence[object]) -> _Columns:
    """Validate a version 1 thread's raw rows one at a time, in Python,
    naming the first offending row in the :class:`RowDecodeError`."""
    code_of = CODE_OF_VALUE
    needs_dst = _NEEDS_DST
    ops: List[int] = []
    dsts: List[int] = []
    sizes: List[int] = []
    src_off: List[int] = [0]
    src_val: List[int] = []
    # Bound once: the loop runs once per event of a version 1 file.
    add_op, add_dst, add_size = ops.append, dsts.append, sizes.append
    add_off, add_srcs = src_off.append, src_val.extend
    for row in rows:
        try:
            op_value, dst, srcs, size = row
            code = code_of[op_value]
        except (ValueError, TypeError, KeyError):
            raise RowDecodeError(row, "bad row shape or op") from None
        # ``type(x) is int``, not ``isinstance``: a JSON ``true`` is
        # an ``int`` to the latter and would be analysed as 1.
        if type(size) is not int or not 1 <= size <= _I64_MAX:
            raise RowDecodeError(row, f"size must be >= 1, got {size!r}")
        if dst is None:
            if code in needs_dst:
                raise RowDecodeError(row, "op requires a destination")
            dst = NO_DST
        elif type(dst) is not int or not NO_DST < dst <= _I64_MAX:
            raise RowDecodeError(row, f"bad destination {dst!r}")
        elif dst > _I64_MAX - size + 1:
            raise RowDecodeError(row, f"extent of {size} runs past 2**63-1")
        if type(srcs) is not list:
            raise RowDecodeError(row, f"bad sources {srcs!r}")
        for src in srcs:  # not all(<generator>): the walk runs ~1.5x faster
            if type(src) is not int or not NO_DST <= src <= _I64_MAX:
                raise RowDecodeError(row, f"bad sources {srcs!r}")
        nsrc = len(srcs)
        if (code == OP_READ or code == OP_JUMP) and nsrc != 1:
            raise RowDecodeError(row, "op requires exactly one source")
        if code == OP_ASSIGN and nsrc > 2:
            raise RowDecodeError(row, "assign takes at most two sources")
        add_op(code)
        add_dst(dst)
        add_size(size)
        add_srcs(srcs)
        add_off(len(src_val))
    return ops, dsts, sizes, src_off, src_val


def _width_code(col: Any) -> int:
    """The code of the narrowest packed width that holds ``col``."""
    lo, hi = (int(col.min()), int(col.max())) if col.shape[0] else (0, 0)
    fits = (-(1 << b - 1) <= lo and hi < 1 << b - 1 for b in (8, 16, 32))
    return next((code for code, ok in enumerate(fits) if ok), 3)


def _unpack(text: str) -> "ColumnarBlock":
    """A packed block (:meth:`ColumnarBlock.to_packed`) -> columns.

    Lengths are checked against the header, then the digest, then every
    rule of :func:`_walk_columns` as one vector check over a column --
    no loop over events.  A defect raises :class:`RowDecodeError`
    naming it (and the first offending event)."""
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        raise RowDecodeError(None, "not a hex string") from None
    head = _PACKED_HEAD.size + _DIGEST
    if len(raw) < head:
        raise RowDecodeError(None, f"{len(raw)} bytes, short of a header")
    n, nsrc_total, *codes = _PACKED_HEAD.unpack_from(raw)
    if max(codes) >= len(_PACKED_WIDTHS):
        raise RowDecodeError(None, f"bad width code in {codes}")
    layout = list(zip(
        [np.dtype(np.uint8)] + [_PACKED_WIDTHS[code] for code in codes],
        (n, n, n, n, nsrc_total),
    ))
    promised = sum(dtype.itemsize * count for dtype, count in layout)
    if len(raw) - head != promised:
        raise RowDecodeError(
            None, f"body of {len(raw) - head} bytes, header says {promised}"
        )
    view = memoryview(raw)
    digest = hashlib.sha256(view[:_PACKED_HEAD.size])
    digest.update(view[head:])
    if digest.digest() != raw[_PACKED_HEAD.size:head]:
        raise RowDecodeError(None, "sha256 does not match")
    cols = []
    for dtype, count in layout:
        cols.append(np.frombuffer(raw, dtype, count, head))
        head += dtype.itemsize * count
    op = cols[0].copy()  # no column keeps ``raw`` alive
    dst, size, nsrc, src_val = (col.astype(np.int64) for col in cols[1:])
    if n:
        if nsrc.min() < 0 or nsrc.max() > nsrc_total:
            raise RowDecodeError(None, "bad source counts")
        one_src = (op == OP_READ) | (op == OP_JUMP)
        for bad, reason in (
            (op > OP_NOP, "bad op"),
            (size < 1, "size must be >= 1"),
            (_NEEDS_DST_LUT.take(op) & (dst == NO_DST),
             "op requires a destination"),
            (dst > _I64_MAX - (size - 1), "extent runs past 2**63-1"),
            (one_src & (nsrc != 1), "op requires exactly one source"),
            ((op == OP_ASSIGN) & (nsrc > 2),
             "assign takes at most two sources"),
        ):
            if bad.any():
                at = int(np.flatnonzero(bad)[0])
                raise RowDecodeError(None, f"event {at}: {reason}")
    src_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nsrc, out=src_off[1:])
    if src_off[-1] != nsrc_total:
        raise RowDecodeError(None, "source counts do not sum to the header's")
    return ColumnarBlock(n, op, dst, size, src_off, src_val)


class ColumnarBlock:
    """One block's events as parallel columns (see module docstring).

    Instances are immutable by convention: columns are built once by a
    constructor and never written afterwards, so a block may be shared
    across threads, and a slice's columns are views of its parent's.
    """

    __slots__ = ("length", "op", "dst", "size", "src_off", "src_val")

    def __init__(self, length, op, dst, size, src_off, src_val) -> None:
        self.length = length
        self.op = op
        self.dst = dst
        self.size = size
        self.src_off = src_off
        self.src_val = src_val

    def __len__(self) -> int:
        return self.length

    # -- constructors ---------------------------------------------------

    @classmethod
    def _frozen(cls, ops, dsts, sizes, src_off, src_val) -> "ColumnarBlock":
        """Columns held as plain int sequences -> arrays."""
        return cls(
            len(ops),
            np.array(ops, dtype=np.uint8),
            np.array(dsts, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            np.array(src_off, dtype=np.int64),
            np.array(src_val, dtype=np.int64),
        )

    @classmethod
    def from_instrs(cls, instrs: Sequence[Instr]) -> "ColumnarBlock":
        """Convert materialized events (already validated) to columns."""
        op_codes = OP_CODES
        ops: List[int] = []
        dsts: List[int] = []
        sizes: List[int] = []
        src_off: List[int] = [0]
        src_val: List[int] = []
        for instr in instrs:
            ops.append(op_codes[instr.op])
            dsts.append(NO_DST if instr.dst is None else instr.dst)
            sizes.append(instr.size)
            src_val.extend(instr.srcs)
            src_off.append(len(src_val))
        return cls._frozen(ops, dsts, sizes, src_off, src_val)

    @classmethod
    def from_rows(cls, rows: Union[str, Sequence[object]]) -> "ColumnarBlock":
        """Decode a block record -- a packed block's hex string
        (:meth:`to_packed`, every stream block on file and wire) or a
        version 1 thread's raw ``[op, dst, srcs, size]`` rows -- to
        columns.

        The one block decoder of both trace file layouts and the serve
        wire: it applies the same validation as ``Instr.__post_init__``
        (plus the int64 range, which keeps :data:`NO_DST` for ``None``
        and every extent inside it) but touches no dataclass, no enum
        boxing, no per-event tuple; a packed block touches no event from
        Python at all (:func:`_unpack`).  A malformed block raises
        :class:`RowDecodeError`.
        """
        if isinstance(rows, str):
            return _unpack(rows)
        return cls._frozen(*_walk_columns(rows))

    @classmethod
    def concat(cls, blocks: Sequence["ColumnarBlock"]) -> "ColumnarBlock":
        """Concatenate blocks' events in order, staying columnar.

        Pure column appends (the CSR source offsets shift by each
        block's running total), no per-event objects.  Its hot callers
        are the AddrCheck and RaceCheck row scans, once per row; the
        adaptive serve path also merges consecutive producer epochs into
        one analysis epoch with it.
        """
        blocks = [b for b in blocks]
        if not blocks:
            return cls.from_instrs(())
        if len(blocks) == 1:
            return blocks[0]
        op = np.concatenate([b.op for b in blocks])
        n = int(op.shape[0])
        # Each block's shifted offsets land in place in the output.
        src_off = np.empty(n + 1, dtype=np.int64)
        src_off[0] = 0
        at = base = 0
        for b in blocks:
            off = b.src_off
            np.add(off[1:], base, out=src_off[at + 1:at + off.shape[0]])
            at += off.shape[0] - 1
            base += int(off[-1])
        return cls(
            n,
            op,
            np.concatenate([b.dst for b in blocks]),
            np.concatenate([b.size for b in blocks]),
            src_off,
            np.concatenate([b.src_val for b in blocks]),
        )

    def slice(self, start: int, end: int) -> "ColumnarBlock":
        """Events ``start .. end - 1`` as views of these columns.

        Only the ``end - start + 1`` source offsets are new (rebased to
        0); every other column is a zero-copy view, so a pickled slice
        carries its own events' bytes and nothing else.  This is how an
        :class:`~repro.core.epoch.EpochPartition` cuts a thread's
        columns into blocks.
        """
        off = self.src_off[start:end + 1]
        lo, hi = int(off[0]), int(off[-1])
        return ColumnarBlock(
            end - start,
            self.op[start:end],
            self.dst[start:end],
            self.size[start:end],
            off - lo,
            self.src_val[lo:hi],
        )

    # -- materialization ------------------------------------------------

    def to_instrs(self) -> Tuple[Instr, ...]:
        """Materialize the whole block (the slow/object path).  Every
        plain NOP (no destination, no sources, size 1) is the one
        shared :meth:`Instr.nop`."""
        ops_by_code = OPS_BY_CODE
        nop = Instr.nop()
        # .tolist() converts numpy scalars to plain ints in one C pass.
        ops = self.op.tolist()
        dsts = self.dst.tolist()
        sizes = self.size.tolist()
        offs = self.src_off.tolist()
        vals = self.src_val.tolist()
        return tuple(
            nop
            if ops[i] == OP_NOP and dsts[i] == NO_DST and sizes[i] == 1
            and offs[i] == offs[i + 1]
            else Instr(
                ops_by_code[ops[i]],
                dst=None if dsts[i] == NO_DST else dsts[i],
                srcs=tuple(vals[offs[i]:offs[i + 1]]),
                size=sizes[i],
            )
            for i in range(self.length)
        )

    def to_rows(self) -> List[list]:
        """Encode as raw ``[op, dst, srcs, size]`` stream rows."""
        value_of = VALUE_OF_CODE
        offs = self.src_off.tolist()
        vals = self.src_val.tolist()
        return [
            [value_of[op], None if dst == NO_DST else dst, vals[lo:hi], size]
            for op, dst, lo, hi, size in zip(
                self.op.tolist(), self.dst.tolist(), offs, offs[1:],
                self.size.tolist(),
            )
        ]

    def to_packed(self) -> str:
        """Encode as one packed block, hex: the :data:`_PACKED_HEAD`
        fields, their and the body's sha256, then the body -- ``op``,
        then ``dst``, ``size``, per-event source counts and ``src_val``,
        each little-endian at the narrowest width that holds it."""
        cols = (self.dst, self.size, np.diff(self.src_off), self.src_val)
        codes = [_width_code(col) for col in cols]
        body = b"".join([self.op.tobytes()] + [
            col.astype(_PACKED_WIDTHS[code]).tobytes()
            for col, code in zip(cols, codes)
        ])
        fields = _PACKED_HEAD.pack(self.length, self.src_val.shape[0], *codes)
        digest = hashlib.sha256(fields + body).digest()
        return (fields + digest + body).hex()

    # -- pickling (compact wire form) -----------------------------------

    def __getstate__(self):
        # Raw little-endian bytes: no numpy object in the payload, and
        # orders of magnitude cheaper to pickle than per-event objects.
        return (
            self.length,
            self.op.tobytes(),
            self.dst.tobytes(),
            self.size.tobytes(),
            self.src_off.tobytes(),
            self.src_val.tobytes(),
        )

    def __setstate__(self, state) -> None:
        length, op_b, dst_b, size_b, off_b, val_b = state
        self.length = length
        self.op = np.frombuffer(op_b, dtype=np.uint8)
        self.dst = np.frombuffer(dst_b, dtype=np.int64)
        self.size = np.frombuffer(size_b, dtype=np.int64)
        self.src_off = np.frombuffer(off_b, dtype=np.int64)
        self.src_val = np.frombuffer(val_b, dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarBlock):
            return NotImplemented
        return self.length == other.length and self.__getstate__() == (
            other.__getstate__()
        )

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarBlock(n={self.length})"


class ColumnAppender:
    """One thread's events appended one at a time as the five columns'
    plain ints: how the workload generators build a thread's
    :class:`ColumnarBlock` without a per-event object.  The event
    methods mirror ``Instr``'s factories, arguments included;
    :meth:`block` turns the lists into arrays once, at the end."""

    __slots__ = ("op", "dst", "size", "src_off", "src_val")

    def __init__(self) -> None:
        self.op: List[int] = []
        self.dst: List[int] = []
        self.size: List[int] = []
        self.src_off: List[int] = [0]
        self.src_val: List[int] = []

    def __len__(self) -> int:
        return len(self.op)

    def _append(self, code: int, dst: int = NO_DST, size: int = 1) -> None:
        self.op.append(code)
        self.dst.append(dst)
        self.size.append(size)
        self.src_off.append(len(self.src_val))

    def read(self, addr: int) -> None:
        self.src_val.append(addr)
        self._append(OP_READ)

    def write(self, addr: int) -> None:
        self._append(OP_WRITE, addr)

    def malloc(self, base: int, size: int = 1) -> None:
        self._append(OP_MALLOC, base, size)

    def free(self, base: int, size: int = 1) -> None:
        self._append(OP_FREE, base, size)

    def assign(self, dst: int, *srcs: int) -> None:
        self.src_val.extend(srcs)
        self._append(OP_ASSIGN, dst)

    def taint(self, addr: int) -> None:
        self._append(OP_TAINT, addr)

    def untaint(self, addr: int) -> None:
        self._append(OP_UNTAINT, addr)

    def jump(self, addr: int) -> None:
        self.src_val.append(addr)
        self._append(OP_JUMP)

    def nop(self) -> None:
        self._append(OP_NOP)

    def permute(self, start: int, order: Sequence[int]) -> None:
        """Reorder the events from ``start`` on: the ``k``-th becomes
        the one that was ``order[k]`` places after ``start``."""
        picks = [start + k for k in order]
        for col in (self.op, self.dst, self.size):
            col[start:] = [col[i] for i in picks]
        off, val = self.src_off, self.src_val
        srcs = [val[off[i]:off[i + 1]] for i in picks]
        val[off[start]:] = chain.from_iterable(srcs)
        off[start + 1:] = list(
            accumulate(map(len, srcs), initial=off[start])
        )[1:]

    def block(self) -> ColumnarBlock:
        """The appended events as one block."""
        return ColumnarBlock._frozen(
            self.op, self.dst, self.size, self.src_off, self.src_val
        )


def expand_extents(dst: Any, idx: Any, extent: Any) -> Tuple[Any, Any]:
    """``(event, location)`` arrays with one entry per location of each
    event ``idx[k]``'s extent, the ``extent[k]`` from ``dst[idx[k]]``
    up, in the order of the ascending ``idx``."""
    ent = np.repeat(idx, extent)
    ent_loc = dst[ent]
    n_ent = ent.shape[0]
    if n_ent > idx.shape[0]:  # an extent's k-th is dst + k
        ent_loc += np.arange(n_ent, dtype=np.int64) - np.repeat(
            np.cumsum(extent) - extent, extent
        )
    return ent, ent_loc


def access_stream(cols: ColumnarBlock) -> Tuple[Any, Any, Any]:
    """Every location ``cols`` dereferences, as one access stream
    ``(acc_off, acc_loc, tot)``: event ``e`` owns the ``tot[e]`` slots
    ``acc_off[e] .. acc_off[e+1]-1`` of ``acc_loc``, which hold its
    sources in order then (for WRITE/ASSIGN) its destination -- the
    order of ``Instr.accessed``.

    Every masked scatter or gather goes through an index array, every
    ``flatnonzero`` runs over bools, and the block-sized int64 arrays
    are built in place: each temporary is one more round of fresh pages
    from the allocator."""
    n = cols.length
    ops = cols.op
    src_off = cols.src_off
    src_val = cols.src_val
    is_acc = _ACC_LUT.take(ops)
    has_dst = (ops == OP_WRITE) | (ops == OP_ASSIGN)
    tot = src_off[1:] - src_off[:-1]
    tot *= is_acc
    tot += has_dst
    acc_off = np.empty(n + 1, dtype=np.int64)
    acc_off[0] = 0
    np.cumsum(tot, out=acc_off[1:])
    total = int(acc_off[-1])
    acc_loc = np.empty(total, dtype=np.int64)
    if total:
        dst_ev = np.flatnonzero(has_dst)
        # A destination is its event's last slot.
        dst_pos = acc_off[1:][dst_ev]
        dst_pos -= 1
        if total - dst_ev.shape[0] != src_val.shape[0]:
            # Fewer source slots than sources: some non-access event
            # carries sources.  Filter them out of the flattened source
            # stream before scattering.
            src_cnt = tot - has_dst
            src_ev = np.repeat(
                np.arange(n, dtype=np.int64), src_off[1:] - src_off[:-1]
            )
            kept = np.flatnonzero(is_acc[src_ev])
            kept_ev = src_ev[kept]
            # The kept sources of event e are contiguous starting at
            # kept_start[e]; shift each run to its slot in acc_loc.
            kept_start = np.cumsum(src_cnt) - src_cnt
            pos = (acc_off[:-1] - kept_start)[kept_ev] + np.arange(
                kept_ev.shape[0], dtype=np.int64
            )
            acc_loc[pos] = src_val[kept]
        elif src_val.shape[0]:
            # All sources belong to access events (the usual case): the
            # slots that are not destination slots are exactly the
            # sources in stream order.
            is_src_slot = np.ones(total, dtype=bool)
            is_src_slot[dst_pos] = False
            acc_loc[np.flatnonzero(is_src_slot)] = src_val
        acc_loc[dst_pos] = cols.dst[dst_ev]
    return acc_off, acc_loc, tot


def _sorted_hits(locs: Any, changed: Any) -> Set[int]:
    """The members of ``changed`` (a set, or an int64 array that may
    repeat values) that the ascending int64 array ``locs`` holds: one
    ``searchsorted`` of the probe values, so the cost follows
    ``len(changed)`` and an empty ``changed`` costs nothing."""
    if not len(changed) or not locs.shape[0]:
        return set()
    probe = changed if isinstance(changed, np.ndarray) else np.fromiter(
        changed, dtype=np.int64, count=len(changed)
    )
    # A probe above every location lands one past the end; ``clip``
    # compares it with the last location there, which it cannot equal.
    found = locs.take(locs.searchsorted(probe), mode="clip") == probe
    return set(probe[found].tolist())


class SortedFirstAccess:
    """A block's access footprint: the locations it touches, ascending
    (``locs``, int64), beside the block offset of each one's first touch
    (``offsets``) -- AddrCheck's ACCESS set and RaceCheck's read and
    write footprints, from every kernel (the per-``Instr`` ones convert
    their dicts, :meth:`from_dict`) and in every checkpoint.  Read by
    sorted search only, never by visiting every location."""

    __slots__ = ("locs", "offsets")

    def __init__(self, locs: Any, offsets: Any) -> None:
        self.locs = locs
        self.offsets = offsets

    @classmethod
    def from_dict(cls, first: Dict[int, int]) -> "SortedFirstAccess":
        """``location -> first offset`` as a footprint."""
        n = len(first)
        locs = np.fromiter(first, dtype=np.int64, count=n)
        offsets = np.fromiter(first.values(), dtype=np.int64, count=n)
        order = locs.argsort()
        return cls(locs[order], offsets[order])

    def hits(self, changed: Any) -> Set[int]:
        """The locations of ``changed`` this footprint holds."""
        return _sorted_hits(self.locs, changed)

    def __contains__(self, loc: int) -> bool:
        return bool(_sorted_hits(self.locs, (loc,)))

    def first_offsets(self, hits: Sequence[int]) -> List[int]:
        """The first offsets of ``hits`` (held locations), in one search."""
        if not hits:
            return []
        return self.offsets.take(self.locs.searchsorted(hits)).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortedFirstAccess):
            return NotImplemented
        return np.array_equal(self.locs, other.locs) and np.array_equal(
            self.offsets, other.offsets
        )
