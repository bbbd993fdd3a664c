"""``ColumnarBlock.from_rows``: the one block decoder -- of every
program file thread, stream block and ``EPOCH`` frame, each a packed
block -- against the per-``Instr`` reference.

A well-formed block decodes to the columns ``from_instrs`` builds from
the same events: the same five columns and dtypes.  A block a writer
packed from raw columns that break a rule of ``Instr.__post_init__``
(or the int64 bound on an extent), with its true digest, is one
``RowDecodeError`` naming the first event that breaks the rule; a record
that is not a packed string -- a version 1 row included -- is refused
whole.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.columnar import (
    NO_DST,
    OP_CODES,
    ColumnarBlock,
    RowDecodeError,
)
from repro.trace.events import Instr, Op

COLUMNS = ("op", "dst", "size", "src_off", "src_val")
NEEDS_DST = {"malloc", "free", "write", "taint", "untaint", "assign"}

locations = st.integers(min_value=0, max_value=2**40)


@st.composite
def good_rows(draw):
    op = draw(st.sampled_from([op.value for op in Op]))
    dst = draw(locations | st.just(2**63 - 64))
    if op not in NEEDS_DST:
        dst = draw(st.none() | st.just(dst))
    if op in ("read", "jump"):
        nsrc = 1
    else:
        nsrc = draw(st.integers(0, 2 if op == "assign" else 3))
    srcs = draw(st.lists(locations, min_size=nsrc, max_size=nsrc))
    return [op, dst, srcs, draw(st.integers(1, 64))]


good_blocks = st.lists(good_rows(), max_size=40)

#: Every malformed shape ``tests/core/test_columnar.py`` lists, then
#: ``true`` / ``1.5`` / a string in each field, wrong row lengths, rows
#: that are not lists and ``srcs`` that are not lists.
BAD_ROWS = [
    ["write", 1],
    ["teleport", 1, [], 1],
    ["malloc", 1, [], 0],
    ["malloc", 1, [], -3],
    ["write", None, [], 1],
    ["read", None, ["x"], 1],
    ["read", None, [1, 2], 1],
    ["read", None, [], 1],
    ["jump", None, [], 1],
    ["assign", 0, [1, 2, 3], 1],
    [True, 1, [], 1],
    [1.5, 1, [], 1],
    [["nop"], None, [], 1],
    ["write", True, [3], 1],
    ["write", 1.5, [3], 1],
    ["write", "1", [3], 1],
    ["read", None, [True], 1],
    ["read", None, [1.5], 1],
    ["assign", 0, [1, "2"], 1],
    ["malloc", 5, [], True],
    ["malloc", 5, [], 1.5],
    ["malloc", 5, [], "1"],
    ["malloc", 5, [], None],
    ["nop", None, []],
    ["nop", None, [], 1, 1],
    [],
    7,
    None,
    "nop!",
    {"op": "nop", "dst": None, "srcs": [], "size": 1},
    ["read", None, 3, 1],
    ["read", None, "3", 1],
    ["nop", None, None, 1],
    ["nop", None, {}, 1],
    ["read", None, (3,), 1],
    # NO_DST is how a column says "None": as a literal it would come
    # back as ``null`` and a MALLOC would lose its destination.
    ["malloc", NO_DST, [], 1],
    ["nop", NO_DST, [], 1],
    # An extent past 2**63-1 would wrap to negative locations.
    ["malloc", 2**63 - 2, [], 4],
    ["free", 2**63 - 1, [], 2],
    ["write", 2**63 - 64, [3], 66],
]


I64_MAX = 2**63 - 1
#: ``op.value`` -> code; a name the table lacks packs as the first
#: unused code.
CODE_OF_NAME = {op.value: code for op, code in OP_CODES.items()}


def raw(rows):
    """The columns a writer that skipped validation would pack for
    ``rows``: ``(op, dst, size, per-event source count, sources)``, with
    ``None`` as :data:`NO_DST`."""
    return (
        [CODE_OF_NAME.get(op, len(OP_CODES)) for op, _, _, _ in rows],
        [NO_DST if dst is None else dst for _, dst, _, _ in rows],
        [size for _, _, _, size in rows],
        [len(srcs) for _, _, srcs, _ in rows],
        [src for _, _, srcs, _ in rows for src in srcs],
    )


def pack_rows(rows):
    """``rows``' raw columns as one packed block with its true digest."""
    return pack(*raw(rows))


def carried(row):
    """Can the int64 columns carry ``row`` -- and so its defect?  Not a
    wrong shape or a field that is not exactly an int (the form has no
    place for either), nor a literal :data:`NO_DST`, which is how a
    column says ``None``."""
    if type(row) is not list or len(row) != 4:
        return False
    op, dst, srcs, size = row

    def ints(*values):
        return all(type(v) is int and NO_DST <= v <= I64_MAX for v in values)

    return (
        type(op) is str and type(srcs) is list and ints(*srcs, size)
        and (dst is None or dst != NO_DST and ints(dst))
    )


#: The rows of ``BAD_ROWS`` a packed block can carry: an unknown op, a
#: size below 1, a missing destination, a wrong source count, an extent
#: past 2**63-1.
CARRIED = [row for row in BAD_ROWS if carried(row)]


def outcome(block):
    """A block's five columns and their dtypes."""
    return (
        [getattr(block, name).tolist() for name in COLUMNS],
        [getattr(block, name).dtype.str for name in COLUMNS],
    )


def reference(rows):
    """Each row through ``Instr`` (and its ``__post_init__`` checks),
    then ``from_instrs``: the columns the decoder must build."""
    return ColumnarBlock.from_instrs([
        Instr(Op(op), dst=dst, srcs=tuple(srcs), size=size)
        for op, dst, srcs, size in rows
    ])


def assert_one_decoder(rows):
    """The block packed from ``rows``' columns decodes to the columns
    the reference builds, and lists back as the same rows."""
    decoded = ColumnarBlock.from_rows(pack_rows(rows))
    assert outcome(decoded) == outcome(reference(rows))
    assert decoded.to_rows() == rows


class TestWellFormed:
    def test_empty_block(self):
        assert_one_decoder([])
        assert ColumnarBlock.from_rows(pack_rows([])) == (
            ColumnarBlock.from_instrs([])
        )

    @pytest.mark.parametrize("op", [op.value for op in Op])
    def test_one_row_block_of_every_op(self, op):
        assert_one_decoder([[op, 9, [4], 1]])

    def test_none_is_no_dst_and_extents_reach_the_max(self):
        rows = [["nop", None, [], 1], ["malloc", 2**63 - 4, [], 4]]
        assert_one_decoder(rows)
        block = ColumnarBlock.from_rows(pack_rows(rows))
        assert block.dst.tolist() == [NO_DST, 2**63 - 4]


class TestMalformed:
    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_alone(self, bad):
        """Each row the version 1 row decoder refused.  No decoder takes
        a row now: in a packed string's place, alone or as a block's
        list, it is refused whole; and where the columns can carry its
        defect, the block packed from them is refused naming event 0."""
        for record in (bad, [bad]):
            with pytest.raises(RowDecodeError, match="not a hex string"):
                ColumnarBlock.from_rows(record)
        if carried(bad):
            with pytest.raises(RowDecodeError, match=r"^event 0: "):
                ColumnarBlock.from_rows(pack_rows([bad]))

    def test_the_carried_rows_break_every_event_rule(self):
        reasons = set()
        for row in CARRIED:
            with pytest.raises(RowDecodeError) as exc:
                ColumnarBlock.from_rows(pack_rows([row]))
            reasons.add(str(exc.value).split(": ", 1)[1])
        assert reasons == {
            "bad op", "size must be >= 1", "op requires a destination",
            "extent runs past 2**63-1", "op requires exactly one source",
            "assign takes at most two sources",
        }

    @settings(max_examples=200, deadline=None)
    @given(good_blocks, st.sampled_from(CARRIED), st.data())
    def test_the_first_offending_row_is_named(self, rows, bad, data):
        """Each rule is one check over a column, which names the first
        event breaking it: here ``bad``, and again at the end."""
        at = data.draw(st.integers(0, len(rows)))
        rows = rows[:at] + [bad] + rows[at:] + [bad]
        with pytest.raises(RowDecodeError, match=rf"^event {at}: "):
            ColumnarBlock.from_rows(pack_rows(rows))


# -- packed blocks ---------------------------------------------------------


def pack(op, dst, size, nsrc, src_val, codes=None):
    """A packed block of these raw columns, valid or not, with its true
    digest: what a writer that skipped validation would send."""
    cols = [np.array(c, dtype=np.int64) for c in (dst, size, nsrc, src_val)]
    if codes is None:
        codes = [columnar._width_code(c) for c in cols]
    widths = columnar._PACKED_WIDTHS
    body = np.array(op, dtype=np.uint8).tobytes() + b"".join(
        c.astype(widths[min(code, 3)]).tobytes()
        for c, code in zip(cols, codes)
    )
    fields = columnar._PACKED_HEAD.pack(len(op), len(src_val), *codes)
    return (fields + hashlib.sha256(fields + body).digest() + body).hex()


def assert_round_trips(block):
    """``from_rows(packed(c)) == c``, dtypes included."""
    decoded = ColumnarBlock.from_rows(block.to_packed())
    assert decoded == block
    assert [getattr(decoded, name).dtype.str for name in COLUMNS] == [
        "|u1", "<i8", "<i8", "<i8", "<i8",
    ]


def instrs_block(*instrs):
    return ColumnarBlock.from_instrs(instrs)


class TestPacked:
    @settings(max_examples=200, deadline=None)
    @given(good_blocks)
    def test_packed_equals_rows_equals_columns(self, rows):
        block = reference(rows)
        assert_round_trips(block)
        assert block.to_rows() == rows

    @pytest.mark.parametrize("block", [
        instrs_block(),
        instrs_block(Instr.nop(), Instr.read(NO_DST)),
        instrs_block(Instr.malloc(2**63 - 4, 4), Instr.free(2**63 - 1, 1)),
        instrs_block(Instr(Op.WRITE, dst=5), Instr(Op.TAINT, dst=6)),
        instrs_block(Instr(Op.NOP, srcs=tuple(range(300)))),
        instrs_block(Instr.assign(1, 2, 3), Instr.assign(4)),
        instrs_block(Instr.write(-7), Instr.read(-(2**40))),
    ], ids=["empty", "no-dst", "extent-at-max", "zero-sources",
            "nop-300-sources", "assign-2", "negative"])
    def test_edge_cases(self, block):
        assert_round_trips(block)

    def test_a_slice_packs_its_own_events(self):
        whole = instrs_block(
            Instr.read(1), Instr.assign(2, 3, 4), Instr.malloc(8, 2)
        )
        assert_round_trips(whole.slice(1, 3))

    @pytest.mark.parametrize("values, code", [
        ([0, 127, -128], 0), ([128], 1), ([-129], 1), ([2**15], 2),
        ([-(2**31)], 2), ([2**31], 3), ([NO_DST], 3), ([], 0),
    ])
    def test_each_column_takes_the_narrowest_width(self, values, code):
        assert columnar._width_code(np.array(values, dtype=np.int64)) == code

    def test_packing_narrows_the_columns(self):
        """100 READs of locations below 128: one byte each for op, size,
        source count and source, eight for the ``NO_DST`` column."""
        block = instrs_block(*[Instr.read(i) for i in range(100)])
        assert len(block.to_packed()) // 2 == PACKED_HEAD + 100 * 12


PACKED_HEAD = columnar._PACKED_HEAD.size + columnar._DIGEST
MALLOC = OP_CODES[Op.MALLOC]
VALID = pack([OP_CODES[Op.READ], MALLOC], [NO_DST, 8], [1, 2], [1, 0], [3])


def flip_body_byte(packed):
    raw = bytearray.fromhex(packed)
    raw[-1] ^= 0x01
    return raw.hex()


class TestPackedMalformed:
    def test_the_valid_reference_decodes(self):
        assert ColumnarBlock.from_rows(VALID) == instrs_block(
            Instr.read(3), Instr.malloc(8, 2)
        )

    @pytest.mark.parametrize("packed, reason", [
        (pack([9], [1], [1], [0], []), "event 0: bad op"),
        (pack([MALLOC], [1], [0], [0], []), "event 0: size must be >= 1"),
        (pack([OP_CODES[Op.NOP], MALLOC], [NO_DST, NO_DST], [1, 1], [0, 0],
              []), "event 1: op requires a destination"),
        (pack([OP_CODES[Op.READ]], [NO_DST], [1], [0], []),
         "event 0: op requires exactly one source"),
        (pack([OP_CODES[Op.JUMP]], [NO_DST], [1], [2], [1, 2]),
         "event 0: op requires exactly one source"),
        (pack([OP_CODES[Op.ASSIGN]], [0], [1], [3], [1, 2, 3]),
         "event 0: assign takes at most two sources"),
        (pack([MALLOC], [2**63 - 2], [4], [0], []),
         "event 0: extent runs past 2**63-1"),
        (pack([MALLOC], [2**63 - 1], [2**62], [0], []),
         "event 0: extent runs past 2**63-1"),
        (pack([OP_CODES[Op.NOP]], [NO_DST], [1], [-1], []),
         "bad source counts"),
        (pack([OP_CODES[Op.NOP]] * 2, [NO_DST] * 2, [1, 1], [1, 0], []),
         "bad source counts"),
        (pack([OP_CODES[Op.NOP]] * 2, [NO_DST] * 2, [1, 1], [1, 1], [5]),
         "source counts do not sum"),
        (VALID[:-2], "body of 22 bytes, header says 23"),
        (VALID + "00", "body of 24 bytes, header says 23"),
        (VALID[:40], "20 bytes, short of a header"),
        ("", "0 bytes, short of a header"),
        (pack([MALLOC], [1], [1], [0], [], codes=[0, 0, 0, 4]),
         "bad width code"),
        (flip_body_byte(VALID), "sha256 does not match"),
        ("zz" + VALID[2:], "not a hex string"),
        (VALID[:-1], "not a hex string"),
    ], ids=[
        "bad-op", "size-0", "malloc-no-dst", "read-0-sources",
        "jump-2-sources", "assign-3", "wrapping-extent", "huge-extent",
        "negative-count", "count-over-total", "counts-short-of-total",
        "short-body", "trailing-bytes", "short-header", "empty-string",
        "bad-width-code", "digest-mismatch", "bad-hex-digit", "odd-hex",
    ])
    def test_is_a_row_decode_error(self, packed, reason):
        with pytest.raises(RowDecodeError, match=re.escape(reason)):
            ColumnarBlock.from_rows(packed)

    @pytest.mark.parametrize("op, dst, size, srcs, reason", [
        (9, 1, 1, [], "bad op"),
        (255, NO_DST, 1, [], "bad op"),
        (MALLOC, 1, -3, [], "size must be >= 1"),
        (OP_CODES[Op.FREE], NO_DST, 1, [], "op requires a destination"),
        (OP_CODES[Op.WRITE], NO_DST, 1, [], "op requires a destination"),
        (OP_CODES[Op.TAINT], NO_DST, 1, [], "op requires a destination"),
        (OP_CODES[Op.UNTAINT], NO_DST, 1, [], "op requires a destination"),
        (OP_CODES[Op.ASSIGN], NO_DST, 1, [1], "op requires a destination"),
        (OP_CODES[Op.WRITE], 2**63 - 64, 66, [],
         "extent runs past 2**63-1"),
        (OP_CODES[Op.READ], NO_DST, 1, [1, 2],
         "op requires exactly one source"),
        (OP_CODES[Op.JUMP], NO_DST, 1, [], "op requires exactly one source"),
        (OP_CODES[Op.ASSIGN], 0, 1, [1, 2, 3],
         "assign takes at most two sources"),
    ], ids=[
        "op-9", "op-255", "negative-size", "free-no-dst", "write-no-dst",
        "taint-no-dst", "untaint-no-dst", "assign-no-dst", "write-extent",
        "read-2-sources", "jump-0-sources", "assign-3",
    ])
    def test_each_rule_names_its_event(self, op, dst, size, srcs, reason):
        """The offending event behind two good ones (a NOP and a READ),
        and a good one after it: the message names event 2."""
        block = pack(
            [OP_CODES[Op.NOP], OP_CODES[Op.READ], op, OP_CODES[Op.NOP]],
            [NO_DST, NO_DST, dst, NO_DST], [1, 1, size, 1],
            [0, 1, len(srcs), 0], [7] + srcs,
        )
        refused = re.escape(f"event 2: {reason}")
        with pytest.raises(RowDecodeError, match=refused):
            ColumnarBlock.from_rows(block)

    @pytest.mark.parametrize("record", [
        [], [["nop", None, [], 1]], None, 7, True, 1.5, {"op": 8}, b"00",
    ])
    def test_a_record_that_is_not_a_string_is_refused(self, record):
        """A packed block's columns are ints of fixed widths, so a field
        cannot hold a ``true``, a float or a string; what is not a string
        at all -- rows, a number, an object -- is refused whole."""
        with pytest.raises(RowDecodeError, match="not a hex string"):
            ColumnarBlock.from_rows(record)

    def test_a_wider_width_than_needed_still_decodes(self):
        """Narrowest is what the writer picks, not a rule of the form:
        the digest, not canonical widths, is what guards the header."""
        wide = pack([MALLOC], [8], [2], [0], [], codes=[3, 3, 3, 3])
        assert ColumnarBlock.from_rows(wide) == instrs_block(
            Instr.malloc(8, 2)
        )
