"""Tests for the columnar event-block representation
(``repro.core.columnar``)."""

import pickle
import random

import numpy as np
import pytest

from repro.core.columnar import (
    OP_CODES,
    OPS_BY_CODE,
    ColumnarBlock,
    RowDecodeError,
)
from repro.core.epoch import Block
from repro.trace.events import Instr, Op
from repro.trace.generator import adversarial_instrs


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
        instrs = _sample_instrs()
        cols = ColumnarBlock.from_rows(ColumnarBlock.from_instrs(instrs).to_rows())
        assert list(cols.to_instrs()) == instrs

    def test_empty_block(self):
        cols = ColumnarBlock.from_instrs([])
        assert len(cols) == 0
        assert cols.to_instrs() == ()
        assert cols.to_rows() == []


class TestRowValidation:
    def test_bad_shape(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([["write", 1]])

    def test_unknown_op(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([["teleport", 1, [], 1]])

    def test_bad_size(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([[Op.MALLOC.value, 1, [], 0]])

    def test_missing_destination(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([[Op.WRITE.value, None, [], 1]])

    def test_bad_sources(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([[Op.READ.value, None, ["x"], 1]])

    def test_read_needs_exactly_one_source(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([[Op.READ.value, None, [1, 2], 1]])

    def test_assign_takes_at_most_two_sources(self):
        with pytest.raises(RowDecodeError):
            ColumnarBlock.from_rows([[Op.ASSIGN.value, 0, [1, 2, 3], 1]])

    def test_error_carries_row(self):
        row = [Op.READ.value, None, [], 1]
        with pytest.raises(RowDecodeError) as exc:
            ColumnarBlock.from_rows([row])
        assert exc.value.row == row


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
