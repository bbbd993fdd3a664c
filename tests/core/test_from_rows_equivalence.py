"""``ColumnarBlock.from_rows``: the bulk pass against the per-row walk.

A well-formed block is validated by its distinct row signatures in a
few C-level passes (``_bulk_columns``); the per-row loop
(``_walk_columns``) is kept as the path that names a malformed row.  The
two must be one decoder: the same accept/reject decision, the same five
columns and dtypes, the same ``RowDecodeError.row`` and message -- under
numpy and under ``REPRO_NO_NUMPY=1`` (the last test re-runs this file
with the other backend).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.columnar import (
    HAVE_NUMPY,
    NO_DST,
    ColumnarBlock,
    RowDecodeError,
)
from repro.trace.events import Op

COLUMNS = ("op", "dst", "size", "src_off", "src_val")
NEEDS_DST = {"malloc", "free", "write", "taint", "untaint", "assign"}

locations = st.integers(min_value=0, max_value=2**40)


@st.composite
def good_rows(draw):
    op = draw(st.sampled_from([op.value for op in Op]))
    dst = draw(locations | st.just(NO_DST))
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
]


def dtype_of(column):
    return column.dtype.str if HAVE_NUMPY else column.typecode


def outcome(decode, rows):
    """``("ok", columns, dtypes)`` or ``("error", row, message)``."""
    try:
        block = decode(rows)
    except RowDecodeError as exc:
        return "error", exc.row, str(exc)
    assert block.length == len(rows)
    return (
        "ok",
        [getattr(block, name).tolist() for name in COLUMNS],
        [dtype_of(getattr(block, name)) for name in COLUMNS],
    )


def walk(rows):
    """The per-row reference: the walk alone, frozen the same way."""
    return ColumnarBlock._frozen(*columnar._walk_columns(rows))


def assert_one_decoder(rows, well_formed):
    """``from_rows`` and the walk agree on ``rows`` -- and the bulk pass
    really took the well-formed block rather than deferring to the walk
    (which would make the comparison vacuous)."""
    bulk = columnar._bulk_columns(rows)
    if well_formed and rows:
        assert bulk is not None, "bulk pass refused a well-formed block"
    if not well_formed:
        assert bulk is None, "bulk pass accepted a malformed block"
    expected = outcome(walk, rows)
    assert expected[0] == ("ok" if well_formed else "error")
    assert outcome(ColumnarBlock.from_rows, rows) == expected


class TestWellFormed:
    @settings(max_examples=200, deadline=None)
    @given(good_blocks)
    def test_bulk_accept_equals_walk_accept(self, rows):
        assert_one_decoder(rows, well_formed=True)

    def test_empty_block(self):
        assert_one_decoder([], well_formed=True)
        assert ColumnarBlock.from_rows([]) == ColumnarBlock.from_instrs([])

    @pytest.mark.parametrize("op", [op.value for op in Op])
    def test_one_row_block_of_every_op(self, op):
        assert_one_decoder([[op, 9, [4], 1]], well_formed=True)

    def test_none_and_literal_no_dst_destinations_share_a_code(self):
        rows = [["nop", None, [], 1], ["nop", NO_DST, [], 1]]
        assert_one_decoder(rows, well_formed=True)
        assert ColumnarBlock.from_rows(rows).dst.tolist() == [NO_DST, NO_DST]


class TestMalformed:
    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_alone(self, bad):
        assert_one_decoder([bad], well_formed=False)

    @settings(max_examples=200, deadline=None)
    @given(good_blocks, st.sampled_from(BAD_ROWS), st.sampled_from(BAD_ROWS),
           st.data())
    def test_the_first_offending_row_is_named(self, rows, bad, later, data):
        at = data.draw(st.integers(0, len(rows)))
        rows = rows[:at] + [bad] + rows[at:] + [later]
        assert_one_decoder(rows, well_formed=False)
        with pytest.raises(RowDecodeError) as exc:
            ColumnarBlock.from_rows(rows)
        assert exc.value.row is rows[at]


class TestTeeth:
    def test_a_bulk_pass_without_the_arity_rule_is_caught(self, monkeypatch):
        """The ``lossy-decode`` idea, for this suite: skip one signature
        rule and the equivalence check must fail."""
        signature_ok = columnar._signature_ok

        def no_arity_rule(signature):
            code, dst_type, _nsrc, size_type, srcs_type = signature
            return signature_ok((code, dst_type, 1, size_type, srcs_type))

        monkeypatch.setattr(columnar, "_signature_ok", no_arity_rule)
        assert_one_decoder([["write", 1, [2], 1]], well_formed=True)
        for bad in (["read", None, [1, 2], 1], ["assign", 0, [1, 2, 3], 1]):
            with pytest.raises(AssertionError, match="accepted a malformed"):
                assert_one_decoder([bad], well_formed=False)


def test_the_same_under_the_other_backend():
    """Re-run this file (but not this test) with numpy gated the other
    way."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    if HAVE_NUMPY:
        env["REPRO_NO_NUMPY"] = "1"
    else:
        env.pop("REPRO_NO_NUMPY")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    check = (
        "import sys; from repro.core.columnar import HAVE_NUMPY; "
        f"sys.exit(HAVE_NUMPY == {HAVE_NUMPY})"
    )
    if subprocess.run([sys.executable, "-c", check], env=env).returncode:
        pytest.skip("numpy is not installed: there is no other backend")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "not test_the_same_under_the_other_backend", __file__],
        env=env, cwd=root, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
