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
columnar workload generator, the stream decoder) operate on the raw
columns and never materialize ``Instr`` objects; everything else can
ask a columnar-backed :class:`~repro.core.epoch.Block` for ``.instrs``
and fall back to the object path transparently.

Backends: columns are numpy arrays when numpy is importable, and
:mod:`array`-module arrays otherwise -- same dtypes, same ``tobytes``
wire form, so pickled blocks are interchangeable between the two.  Set
``REPRO_NO_NUMPY=1`` to force the pure-Python fallback (the CI leg that
proves the fallback works runs the whole suite this way).
"""

from __future__ import annotations

import os
from array import array
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.trace.events import Instr, Op

if TYPE_CHECKING:  # pragma: no cover
    import numpy

try:  # pragma: no cover - exercised via the REPRO_NO_NUMPY CI leg
    if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
        raise ImportError("numpy disabled via REPRO_NO_NUMPY")
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

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

OP_READ = OP_CODES[Op.READ]
OP_WRITE = OP_CODES[Op.WRITE]
OP_MALLOC = OP_CODES[Op.MALLOC]
OP_FREE = OP_CODES[Op.FREE]
OP_ASSIGN = OP_CODES[Op.ASSIGN]
OP_TAINT = OP_CODES[Op.TAINT]
OP_UNTAINT = OP_CODES[Op.UNTAINT]
OP_JUMP = OP_CODES[Op.JUMP]
OP_NOP = OP_CODES[Op.NOP]

#: Sentinel encoding ``dst=None`` (int64 minimum; never a real location).
NO_DST = -(2**63)
#: Largest value an int64 column holds.
_I64_MAX = 2**63 - 1

#: Ops whose sources/destination count as dereferences (mirrors
#: ``Instr.accessed``): READ/JUMP read their source; WRITE/ASSIGN read
#: their sources and write their destination.
_ACCESS_CODES = frozenset((OP_READ, OP_WRITE, OP_ASSIGN, OP_JUMP))
_DST_ACCESS_CODES = frozenset((OP_WRITE, OP_ASSIGN))

#: Ops that require a destination (mirrors ``Instr.__post_init__``).
_NEEDS_DST = frozenset(
    OP_CODES[op]
    for op in (Op.MALLOC, Op.FREE, Op.WRITE, Op.TAINT, Op.UNTAINT, Op.ASSIGN)
)


class RowDecodeError(ValueError):
    """A raw ``[op, dst, srcs, size]`` row failed validation.

    Carries the offending row so the stream reader can wrap it in the
    same :class:`~repro.errors.TraceError` message the object decoder
    produces.
    """

    def __init__(self, row: object, reason: str) -> None:
        super().__init__(reason)
        self.row = row


def _freeze_i64(values: Sequence[int]):
    if HAVE_NUMPY:
        return np.array(values, dtype=np.int64)
    return array("q", values)


def _freeze_u8(values: Sequence[int]):
    if HAVE_NUMPY:
        return np.array(values, dtype=np.uint8)
    return array("B", values)


#: ``(ops, dsts, sizes, src_off, src_val)`` as plain sequences of ints.
_Columns = Tuple[Sequence[int], ...]
_NONE = type(None)


def _walk_columns(rows: Sequence[object]) -> _Columns:
    """Validate raw stream rows one at a time, in Python.

    The reference the bulk pass must agree with, and the only path that
    raises: :func:`_bulk_columns` returns ``None`` on anything it does
    not recognise, :meth:`ColumnarBlock.from_rows` hands over a block
    whose values do not fit the int64 columns, and this walk names the
    first offending row.
    """
    code_of = CODE_OF_VALUE
    needs_dst = _NEEDS_DST
    ops: List[int] = []
    dsts: List[int] = []
    sizes: List[int] = []
    src_off: List[int] = [0]
    src_val: List[int] = []
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
        elif type(dst) is not int or not NO_DST <= dst <= _I64_MAX:
            raise RowDecodeError(row, f"bad destination {dst!r}")
        if not isinstance(srcs, list) or not all(
            type(s) is int and NO_DST <= s <= _I64_MAX for s in srcs
        ):
            raise RowDecodeError(row, f"bad sources {srcs!r}")
        nsrc = len(srcs)
        if (code == OP_READ or code == OP_JUMP) and nsrc != 1:
            raise RowDecodeError(row, "op requires exactly one source")
        if code == OP_ASSIGN and nsrc > 2:
            raise RowDecodeError(row, "assign takes at most two sources")
        ops.append(code)
        dsts.append(dst)
        sizes.append(size)
        src_val.extend(srcs)
        src_off.append(len(src_val))
    return ops, dsts, sizes, src_off, src_val


def _signature_ok(signature: tuple) -> bool:
    """:func:`_walk_columns`' per-row rules, asked once per distinct
    ``(code, type(dst), len(srcs), type(size), type(srcs))``."""
    code, dst_type, nsrc, size_type, srcs_type = signature
    if size_type is not int or srcs_type is not list:
        return False
    if dst_type is not int and (dst_type is not _NONE or code in _NEEDS_DST):
        return False
    if code == OP_READ or code == OP_JUMP:
        return nsrc == 1
    return code != OP_ASSIGN or nsrc <= 2


def _bulk_columns(rows: Sequence[object]) -> Optional[_Columns]:
    """The columns of a well-formed block, or ``None``.

    A row is valid or not by its op, the *types* of its fields and its
    source count -- a block of thousands of rows has a handful of such
    signatures -- plus two facts about values: every size is >= 1 and
    every flattened source is exactly an ``int``.  So the block is
    transposed once and each rule is one C-level pass over a column;
    nothing below loops over rows in Python bytecode except the
    ``None`` -> :data:`NO_DST` substitution.  Every check is at least as
    strict as the walk's, and whatever is not recognised here (a short
    row, an unknown op, an unsized ``srcs``) is left to the walk to name.
    """
    try:
        if set(map(len, rows)) != {4}:  # zip would truncate to the shortest
            return None
        op_values, dsts, srcs, sizes = zip(*rows)
        codes = list(map(CODE_OF_VALUE.__getitem__, op_values))
        nsrcs = list(map(len, srcs))
        signatures = set(zip(
            codes, map(type, dsts), nsrcs, map(type, sizes), map(type, srcs)
        ))
        src_val = list(chain.from_iterable(srcs))
    except (TypeError, KeyError):
        return None
    if not all(map(_signature_ok, signatures)):
        return None
    if min(sizes) < 1 or not set(map(type, src_val)) <= {int}:
        return None
    if None in dsts:
        dsts = [NO_DST if dst is None else dst for dst in dsts]
    return codes, dsts, sizes, list(accumulate(nsrcs, initial=0)), src_val


class ColumnarBlock:
    """One block's events as parallel columns (see module docstring).

    Instances are immutable by convention: columns are built once by a
    constructor and never written afterwards, so a block may be shared
    across threads and cached alongside its materialized twin.
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
        """Columns held as plain int sequences -> the backend's arrays
        (the one place numpy and ``REPRO_NO_NUMPY=1`` differ in building
        a block)."""
        return cls(
            len(ops),
            _freeze_u8(ops),
            _freeze_i64(dsts),
            _freeze_i64(sizes),
            _freeze_i64(src_off),
            _freeze_i64(src_val),
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
    def from_rows(cls, rows: Sequence[object]) -> "ColumnarBlock":
        """Decode raw ``[op, dst, srcs, size]`` stream rows to columns.

        This is the version 2 stream reader's fast path: it applies the
        same validation as ``Instr.__post_init__`` but touches no
        dataclass, no enum boxing, no per-event tuple -- and, for a
        well-formed block, no row from Python at all
        (:func:`_bulk_columns`).  A malformed row raises
        :class:`RowDecodeError` carrying the row.

        The bulk pass leaves the int64 range to the freeze, which
        checks every value at C level anyway: a value outside it sends
        the block down the walk, whose range rule names its row.
        """
        columns = _bulk_columns(rows)
        if columns is None:
            # The reject path: walk the rows to name the first bad one.
            columns = _walk_columns(rows)
        try:
            return cls._frozen(*columns)
        except OverflowError:
            _walk_columns(rows)
            raise

    @classmethod
    def concat(cls, blocks: Sequence["ColumnarBlock"]) -> "ColumnarBlock":
        """Concatenate blocks' events in order, staying columnar.

        Pure column appends (the CSR source offsets shift by each
        block's running total), no per-event objects.  Its hot caller is
        :meth:`AddrScanner.scan_row
        <repro.lifeguards.addrcheck.AddrScanner.scan_row>`, which scans
        an epoch row's small blocks as one stream, once per row; the
        adaptive serve path also merges consecutive producer epochs into
        one analysis epoch with it.
        """
        blocks = [b for b in blocks]
        if not blocks:
            return cls.from_instrs(())
        if len(blocks) == 1:
            return blocks[0]
        if HAVE_NUMPY:
            op = np.concatenate([np.asarray(b.op) for b in blocks])
            n = int(op.shape[0])
            # Each block's shifted offsets land in place in the output.
            src_off = np.empty(n + 1, dtype=np.int64)
            src_off[0] = 0
            at = base = 0
            for b in blocks:
                off = np.asarray(b.src_off)
                np.add(off[1:], base, out=src_off[at + 1:at + off.shape[0]])
                at += off.shape[0] - 1
                base += int(off[-1])
            return cls(
                n,
                op.astype(np.uint8, copy=False),
                np.concatenate([np.asarray(b.dst) for b in blocks]),
                np.concatenate([np.asarray(b.size) for b in blocks]),
                src_off,
                np.concatenate([np.asarray(b.src_val) for b in blocks]),
            )
        op = array("B")
        dst = array("q")
        size = array("q")
        src_off = array("q", [0])
        src_val = array("q")
        base = 0
        for b in blocks:
            op.extend(b.op)
            dst.extend(b.dst)
            size.extend(b.size)
            src_val.extend(b.src_val)
            offs = b.src_off
            for o in list(offs)[1:]:
                src_off.append(o + base)
            base += int(offs[-1]) if len(offs) else 0
        return cls(len(op), op, dst, size, src_off, src_val)

    # -- materialization ------------------------------------------------

    def instr(self, i: int) -> Instr:
        """Materialize event ``i`` as an :class:`Instr`."""
        dst = self.dst[i]
        lo, hi = self.src_off[i], self.src_off[i + 1]
        return Instr(
            OPS_BY_CODE[self.op[i]],
            dst=None if dst == NO_DST else int(dst),
            srcs=tuple(int(s) for s in self.src_val[lo:hi]),
            size=int(self.size[i]),
        )

    def to_instrs(self) -> Tuple[Instr, ...]:
        """Materialize the whole block (the slow/object path)."""
        ops_by_code = OPS_BY_CODE
        # .tolist() converts numpy scalars to plain ints in one C pass.
        ops = self.op.tolist()
        dsts = self.dst.tolist()
        sizes = self.size.tolist()
        offs = self.src_off.tolist()
        vals = self.src_val.tolist()
        return tuple(
            Instr(
                ops_by_code[ops[i]],
                dst=None if dsts[i] == NO_DST else dsts[i],
                srcs=tuple(vals[offs[i]:offs[i + 1]]),
                size=sizes[i],
            )
            for i in range(self.length)
        )

    def gather(self, idx) -> Tuple[List[int], List[int], List[int], List[int]]:
        """CSR-gather the rows at ``idx`` (a sorted numpy index array).

        Returns ``(codes, dsts, bounds, flat_srcs)`` as plain Python
        lists, where row ``k``'s sources are
        ``flat_srcs[bounds[k]:bounds[k + 1]]``.  This is the shared
        selection step of the TaintCheck scan and the dataflow
        summarizer: one table read picks the relevant rows, one gather
        through ``idx`` materializes just those rows' fields, and only
        the (typically sparse) selection is ever touched from Python.
        Numpy path only -- pure-Python callers iterate the columns
        directly.
        """
        src_off = np.asarray(self.src_off)
        lo = src_off[idx]
        counts = src_off[1:][idx] - lo
        out_off = np.zeros(idx.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=out_off[1:])
        total = int(out_off[-1])
        if total:
            flat = np.repeat(lo - out_off[:-1], counts)
            flat += np.arange(total, dtype=np.int64)
            flat_srcs = np.asarray(self.src_val)[flat].tolist()
        else:
            flat_srcs = []
        return (
            np.asarray(self.op)[idx].tolist(),
            np.asarray(self.dst)[idx].tolist(),
            out_off.tolist(),
            flat_srcs,
        )

    def to_rows(self) -> List[list]:
        """Encode as raw ``[op, dst, srcs, size]`` stream rows."""
        ops = self.op.tolist()
        dsts = self.dst.tolist()
        sizes = self.size.tolist()
        offs = self.src_off.tolist()
        vals = self.src_val.tolist()
        return [
            [
                OPS_BY_CODE[ops[i]].value,
                None if dsts[i] == NO_DST else dsts[i],
                vals[offs[i]:offs[i + 1]],
                sizes[i],
            ]
            for i in range(self.length)
        ]

    # -- pickling (compact wire form, backend-agnostic) -----------------

    def __getstate__(self):
        # Raw little-endian bytes: identical for numpy and array-module
        # columns on every platform this runs on, and orders of
        # magnitude cheaper to pickle than per-event objects.
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
        if HAVE_NUMPY:
            self.op = np.frombuffer(op_b, dtype=np.uint8)
            self.dst = np.frombuffer(dst_b, dtype=np.int64)
            self.size = np.frombuffer(size_b, dtype=np.int64)
            self.src_off = np.frombuffer(off_b, dtype=np.int64)
            self.src_val = np.frombuffer(val_b, dtype=np.int64)
        else:
            self.op = array("B")
            self.op.frombytes(op_b)
            self.dst = array("q")
            self.dst.frombytes(dst_b)
            self.size = array("q")
            self.size.frombytes(size_b)
            self.src_off = array("q")
            self.src_off.frombytes(off_b)
            self.src_val = array("q")
            self.src_val.frombytes(val_b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarBlock):
            return NotImplemented
        return self.length == other.length and self.__getstate__() == (
            other.__getstate__()
        )

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = "numpy" if HAVE_NUMPY else "array"
        return f"ColumnarBlock(n={self.length}, backend={backend})"


class ColumnBuilder:
    """Incremental builder for generators that synthesize events
    directly as columns (no ``Instr`` on the fast path)."""

    __slots__ = ("ops", "dsts", "sizes", "src_off", "src_val")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.dsts: List[int] = []
        self.sizes: List[int] = []
        self.src_off: List[int] = [0]
        self.src_val: List[int] = []

    def emit(
        self,
        code: int,
        dst: int = NO_DST,
        srcs: Iterable[int] = (),
        size: int = 1,
    ) -> None:
        self.ops.append(code)
        self.dsts.append(dst)
        self.sizes.append(size)
        self.src_val.extend(srcs)
        self.src_off.append(len(self.src_val))

    def __len__(self) -> int:
        return len(self.ops)

    def freeze(self) -> ColumnarBlock:
        return ColumnarBlock._frozen(
            self.ops, self.dsts, self.sizes, self.src_off, self.src_val
        )
