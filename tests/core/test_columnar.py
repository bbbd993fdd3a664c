"""Tests for the columnar event-block representation
(``repro.core.columnar``)."""

import os
import pickle
import random
import subprocess
import sys

import pytest

from repro.core.columnar import (
    HAVE_NUMPY,
    NO_DST,
    OP_CODES,
    OPS_BY_CODE,
    ColumnarBlock,
    ColumnBuilder,
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
        for i in (0, len(instrs) // 2, len(instrs) - 1):
            assert cols.instr(i) == instrs[i]

    def test_rows_round_trip(self):
        instrs = _sample_instrs()
        cols = ColumnarBlock.from_rows(ColumnarBlock.from_instrs(instrs).to_rows())
        assert list(cols.to_instrs()) == instrs

    def test_empty_block(self):
        cols = ColumnarBlock.from_instrs([])
        assert len(cols) == 0
        assert cols.to_instrs() == ()
        assert cols.to_rows() == []

    def test_builder_matches_from_instrs(self):
        instrs = _sample_instrs()
        b = ColumnBuilder()
        for ins in instrs:
            b.emit(
                OP_CODES[ins.op],
                dst=NO_DST if ins.dst is None else ins.dst,
                srcs=ins.srcs,
                size=ins.size,
            )
        assert len(b) == len(instrs)
        assert b.freeze() == ColumnarBlock.from_instrs(instrs)


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

    def test_wire_form_readable_without_numpy(self):
        """A block pickled with the current backend must load under
        ``REPRO_NO_NUMPY=1`` (and vice versa): the wire form is raw
        little-endian bytes, not backend objects."""
        payload = pickle.dumps(ColumnarBlock.from_instrs(_sample_instrs()))
        code = (
            "import pickle, sys\n"
            "from repro.core.columnar import HAVE_NUMPY\n"
            "assert not HAVE_NUMPY\n"
            "cols = pickle.loads(sys.stdin.buffer.read())\n"
            "rows = cols.to_rows()\n"
            "assert len(rows) == cols.length\n"
            "print(len(rows))\n"
        )
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=payload, capture_output=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.strip() == b"10"


class TestBlockIntegration:
    def test_block_requires_some_representation(self):
        with pytest.raises(TypeError):
            Block(0, 0, 0)

    def test_columnar_block_materializes_lazily(self):
        cols = ColumnarBlock.from_instrs(_sample_instrs())
        block = Block(0, 1, 0, columns=cols)
        assert block.has_columns
        assert len(block) == len(cols)
        assert list(block.instrs) == _sample_instrs()

    def test_object_block_columnarizes_lazily(self):
        block = Block(0, 1, 0, _sample_instrs())
        assert not block.has_columns
        assert block.columns == ColumnarBlock.from_instrs(_sample_instrs())

    def test_block_pickle_ships_columns_not_instrs(self):
        block = Block(2, 3, 20, _sample_instrs())
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

    def test_backend_flag_matches_environment(self):
        # In-process sanity: the flag reflects REPRO_NO_NUMPY.
        if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
            assert not HAVE_NUMPY
