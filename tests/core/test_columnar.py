"""Tests for the columnar event-block representation
(``repro.core.columnar``)."""

import pickle
import random
import re

import numpy as np
import pytest

from repro.core.columnar import (
    NO_DST,
    OP_CODES,
    OPS_BY_CODE,
    ColumnarBlock,
    RowDecodeError,
)
from repro.core.epoch import Block
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs

from tests.core.test_from_rows_equivalence import pack


def _sample_instrs():
    return [
        Instr.malloc(0, size=4),
        Instr.write(1),
        Instr.read(2),
        Instr.assign(3, 1, 2),
        Instr.assign(3, 1),
        Instr.taint(1),
        Instr.untaint(1),
        Instr.jump(3),
        Instr.nop(),
        Instr.free(0, size=4),
    ]


class TestOpCodes:
    def test_table_is_dense_and_stable(self):
        # Codes are a permutation of 0..n-1 (pickled blocks bake them in).
        assert sorted(OP_CODES.values()) == list(range(len(OP_CODES)))
        assert set(OP_CODES) == set(Op)

    def test_ops_by_code_inverts_table(self):
        for op, code in OP_CODES.items():
            assert OPS_BY_CODE[code] is op


class TestRoundTrip:
    def test_from_instrs_to_instrs_identity(self):
        instrs = _sample_instrs()
        cols = ColumnarBlock.from_instrs(instrs)
        assert len(cols) == len(instrs)
        assert list(cols.to_instrs()) == instrs

    def test_adversarial_round_trip(self):
        rng = random.Random(11)
        ops = (Op.WRITE, Op.READ, Op.MALLOC, Op.FREE, Op.ASSIGN,
               Op.TAINT, Op.UNTAINT, Op.JUMP, Op.NOP)
        instrs = adversarial_instrs(
            rng, 500, num_locations=32, ops=ops,
            straddle_stride=8, max_extent=5,
        )
        cols = ColumnarBlock.from_instrs(instrs)
        assert list(cols.to_instrs()) == instrs

    def test_rows_round_trip(self):
        """``to_rows`` lists each event as ``[op, dst, srcs, size]``; the
        packed form, the one a file or wire carries, decodes back."""
        instrs = _sample_instrs()
        cols = ColumnarBlock.from_instrs(instrs)
        assert cols.to_rows() == [
            [i.op.value, i.dst, list(i.srcs), i.size] for i in instrs
        ]
        decoded = ColumnarBlock.from_rows(cols.to_packed())
        assert list(decoded.to_instrs()) == instrs

    def test_empty_block(self):
        cols = ColumnarBlock.from_instrs([])
        assert len(cols) == 0
        assert cols.to_instrs() == ()
        assert cols.to_rows() == []


READ, WRITE = OP_CODES[Op.READ], OP_CODES[Op.WRITE]


class TestRowValidation:
    """Each event of a packed block (a row of its columns) is checked as
    ``Instr.__post_init__`` checks it; the blocks carry true digests."""

    @staticmethod
    def refused(reason, *columns):
        with pytest.raises(RowDecodeError, match=re.escape(reason)):
            ColumnarBlock.from_rows(pack(*columns))

    def test_bad_shape(self):
        with pytest.raises(RowDecodeError, match="header says"):
            ColumnarBlock.from_rows(pack([WRITE], [1], [1], [0], [])[:-2])

    def test_unknown_op(self):
        self.refused("event 0: bad op", [9], [1], [1], [0], [])

    def test_bad_size(self):
        self.refused("event 0: size must be >= 1",
                     [OP_CODES[Op.MALLOC]], [1], [0], [0], [])

    def test_missing_destination(self):
        self.refused("event 0: op requires a destination",
                     [WRITE], [NO_DST], [1], [0], [])

    def test_bad_sources(self):
        self.refused("bad source counts", [READ], [NO_DST], [1], [1], [])

    def test_read_needs_exactly_one_source(self):
        self.refused("event 0: op requires exactly one source",
                     [READ], [NO_DST], [1], [2], [1, 2])

    def test_assign_takes_at_most_two_sources(self):
        self.refused("event 0: assign takes at most two sources",
                     [OP_CODES[Op.ASSIGN]], [0], [1], [3], [1, 2, 3])

    def test_error_carries_row(self):
        self.refused("event 2: op requires exactly one source",
                     [READ, WRITE, READ], [NO_DST, 5, NO_DST], [1, 1, 1],
                     [1, 0, 0], [4])


class TestPickling:
    def test_round_trips_and_compares_equal(self):
        cols = ColumnarBlock.from_instrs(_sample_instrs())
        clone = pickle.loads(pickle.dumps(cols))
        assert clone == cols
        assert hash(clone) == hash(cols)
        assert list(clone.to_instrs()) == list(cols.to_instrs())

    def test_payload_contains_no_event_objects(self):
        payload = pickle.dumps(ColumnarBlock.from_instrs(_sample_instrs()))
        assert b"Instr" not in payload
        assert b"repro.trace.events" not in payload

    def test_wire_form_is_raw_column_bytes(self):
        """The payload holds each column's little-endian bytes, not
        numpy objects, and loads back as numpy arrays of the same
        dtypes."""
        cols = ColumnarBlock.from_instrs(_sample_instrs())
        payload = pickle.dumps(cols)
        assert b"numpy" not in payload
        assert cols.dst.tobytes() in payload
        clone = pickle.loads(payload)
        for name in ("op", "dst", "size", "src_off", "src_val"):
            column = getattr(clone, name)
            assert isinstance(column, np.ndarray)
            assert column.dtype == getattr(cols, name).dtype


class TestBlockIntegration:
    def test_block_requires_some_representation(self):
        with pytest.raises(TypeError):
            Block(0, 0, 0)

    def test_columnar_block_materializes_lazily(self):
        cols = ColumnarBlock.from_instrs(_sample_instrs())
        block = Block(0, 1, 0, columns=cols)
        assert block._instrs is None
        assert len(block) == len(cols)
        assert list(block.instrs) == _sample_instrs()

    def test_block_keeps_the_instrs_it_is_given(self):
        instrs = tuple(_sample_instrs())
        block = Block(0, 1, 0, ColumnarBlock.from_instrs(instrs), instrs)
        assert block.instrs is instrs
        assert block == Block(0, 1, 0, ColumnarBlock.from_instrs(instrs))

    def test_block_pickle_ships_columns_not_instrs(self):
        instrs = tuple(_sample_instrs())
        block = Block(2, 3, 20, ColumnarBlock.from_instrs(instrs), instrs)
        payload = pickle.dumps(block)
        assert b"Instr" not in payload
        assert b"repro.trace.events" not in payload
        clone = pickle.loads(payload)
        assert (clone.lid, clone.tid, clone.start) == (2, 3, 20)
        assert clone.block_id == (2, 3)
        # The pickled state is the four fields, whatever the slots hold.
        assert clone.__getstate__() == (2, 3, 20, block.columns)
        assert list(clone.instrs) == _sample_instrs()
        assert clone == block
