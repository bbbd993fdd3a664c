"""Round-trip tests for trace persistence."""

import io
import json
import random

import pytest

from repro.core import columnar
from repro.core.epoch import partition_auto
from repro.errors import TraceError
from repro.trace.events import Instr
from repro.trace.generator import simulated_alloc_program
from repro.trace.program import TraceProgram
from repro.trace.serialize import (
    decode_epoch_row,
    dump,
    dump_stream,
    file_version,
    iter_load,
    load,
    load_file,
    save_file,
    save_stream_file,
)
from repro.workloads.registry import get_benchmark

from tests.trace.test_program import schedule_refs
from tests.trace.v2_stream import rows_record, save_v2_file, v2_text


#: Instruction records with a JSON boolean or float where an integer
#: belongs; ``1.0`` only ever got past the version 1 decoder.
NOT_INTEGERS = [
    '["write", true, [3], 1]',
    '["malloc", 5, [], true]',
    '["read", null, [false], 1]',
    '["write", 1.0, [3], 1]',
    '["malloc", 5, [], 1.0]',
]

#: Rows holding an integer an int64 column cannot: destination, source
#: (below the minimum) and size.
OUT_OF_INT64 = [
    f'["write", {2**63}, [3], 1]',
    f'["read", null, [{-(2**63) - 1}], 1]',
    f'["malloc", 5, [], {2**64}]',
]


def round_trip(program):
    buf = io.StringIO()
    dump(program, buf)
    buf.seek(0)
    return load(buf)


class TestRoundTrip:
    def test_simple_program(self):
        prog = TraceProgram.from_lists(
            [Instr.malloc(0, 4), Instr.write(1), Instr.free(0, 4)],
            [Instr.assign(2, 3, 4), Instr.jump(2)],
        )
        loaded = round_trip(prog)
        assert loaded.num_threads == 2
        for a, b in zip(prog.threads, loaded.threads):
            assert a.instrs == b.instrs

    def test_orders_and_preallocated_preserved(self):
        prog = simulated_alloc_program(
            random.Random(0), num_threads=2, total_events=20
        )
        loaded = round_trip(prog)
        assert loaded.true_order.tolist() == prog.true_order.tolist()
        assert loaded.preallocated == prog.preallocated

    def test_workload_round_trip(self):
        prog = get_benchmark("OCEAN").generate(2, 3000, seed=4)
        loaded = round_trip(prog)
        assert (
            loaded.timesliced_order.tolist()
            == prog.timesliced_order.tolist()
        )
        assert loaded.total_instructions == prog.total_instructions
        assert loaded.preallocated == prog.preallocated

    def test_the_file_keeps_thread_index_pairs(self):
        """In memory a schedule is thread ids; on disk it stays the
        ``[[thread, index], ...]`` record every earlier file holds."""
        prog = simulated_alloc_program(
            random.Random(2), num_threads=3, total_events=30
        )
        buf = io.StringIO()
        dump(prog, buf)
        record = json.loads(buf.getvalue().splitlines()[4])
        assert record == {
            "true_order": [
                list(ref) for ref in schedule_refs(prog.recorded_order())
            ]
        }

    def test_file_round_trip(self, tmp_path):
        prog = TraceProgram.from_lists([Instr.nop(), Instr.read(7)])
        path = tmp_path / "trace.jsonl"
        save_file(prog, path)
        loaded = load_file(path)
        assert loaded.threads[0].instrs == prog.threads[0].instrs


class TestValidation:
    def test_rejects_non_trace_file(self):
        buf = io.StringIO('{"format": "something-else"}\n')
        with pytest.raises(TraceError):
            load(buf)

    def test_rejects_future_version(self):
        buf = io.StringIO(
            '{"format": "repro-trace", "version": 99, "threads": 0}\n'
        )
        with pytest.raises(TraceError):
            load(buf)

    def test_rejects_malformed_instruction(self):
        buf = io.StringIO(
            '{"format": "repro-trace", "version": 1, "threads": 1}\n'
            '[["bogus-op"]]\n'
        )
        with pytest.raises(TraceError):
            load(buf)

    @pytest.mark.parametrize("record", NOT_INTEGERS + OUT_OF_INT64)
    def test_rejects_booleans_and_floats_for_integers(self, tmp_path, record):
        """``isinstance(True, int)``: a JSON ``true`` (or ``1.0``) used
        to load as location 1 / size 1, and a location outside int64
        died with an ``OverflowError`` traceback."""
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1, "threads": 1}\n'
            f'[["nop", null, [], 1], {record}]\n'
            '{"true_order": null}\n{"timesliced_order": null}\n'
            '{"preallocated": []}\n'
        )
        with pytest.raises(
            TraceError, match=r"t\.jsonl:2: malformed instruction record"
        ):
            load_file(path)

    @pytest.mark.parametrize("key", ["true_order", "timesliced_order"])
    @pytest.mark.parametrize("pairs", [
        [[0, 0], [True, 0]],
        [[0, 0], [1.0, 0]],
        [[0, 0], [1, False]],
        [[0, 0], [2, 0]],
        [[0, 0], [-1, 0]],
        [[0, 0], [1]],
        [[0, 0], 1],
        {"0": 0},
    ])
    def test_order_records_hold_exact_thread_index_pairs(
        self, tmp_path, key, pairs
    ):
        """``[true, 0]`` used to load as thread ``True`` and so be
        analysed as thread 1."""
        records = {"true_order": None, "timesliced_order": None}
        records[key] = pairs
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1, "threads": 2}\n'
            '[["nop", null, [], 1]]\n[["nop", null, [], 1]]\n'
            + json.dumps({"true_order": records["true_order"]}) + "\n"
            + json.dumps({"timesliced_order": records["timesliced_order"]})
            + '\n{"preallocated": []}\n'
        )
        line = 4 if key == "true_order" else 5
        with pytest.raises(TraceError, match=rf"t\.jsonl:{line}: .*{key}"):
            load_file(path)

    def test_order_record_must_respect_program_order(self, tmp_path):
        prog = TraceProgram.from_lists(
            [Instr.write(0), Instr.read(0)],
            [Instr.malloc(1), Instr.free(1)],
        )
        prog.true_order = [0, 1, 0, 1]
        buf = io.StringIO()
        dump(prog, buf)
        text = buf.getvalue().replace(
            "[[0, 0], [1, 0], [0, 1], [1, 1]]",
            "[[0, 1], [0, 0], [1, 0], [1, 1]]",
        )
        with pytest.raises(
            TraceError, match=r"t:4: bad true_order entry \[0, 1\]"
        ):
            load(io.StringIO(text), name="t")

    def test_truncated_final_record_has_file_line_context(self):
        prog = TraceProgram.from_lists([Instr.nop(), Instr.read(7)])
        buf = io.StringIO()
        dump(prog, buf)
        # Chop the file mid-way through its final JSON record.
        truncated = io.StringIO(buf.getvalue()[:-10])
        with pytest.raises(TraceError, match=r"mytrace:\d+"):
            load(truncated, name="mytrace")

    def test_trailing_garbage_rejected_with_context(self):
        prog = TraceProgram.from_lists([Instr.nop(), Instr.read(7)])
        buf = io.StringIO()
        dump(prog, buf)
        polluted = io.StringIO(buf.getvalue() + '{"oops": 1}\n')
        with pytest.raises(
            TraceError, match=r"mytrace:\d+: trailing garbage"
        ):
            load(polluted, name="mytrace")

    def test_trailing_blank_lines_tolerated(self):
        prog = TraceProgram.from_lists([Instr.nop()])
        buf = io.StringIO()
        dump(prog, buf)
        padded = io.StringIO(buf.getvalue() + "\n  \n")
        assert load(padded).num_threads == 1


def stream_partition(threads=2, events=200, h=8, seed=0):
    prog = simulated_alloc_program(
        random.Random(seed), num_threads=threads, total_events=events
    )
    return prog, partition_auto(prog, h)


def stream_text(partition):
    buf = io.StringIO()
    dump_stream(partition, buf)
    return buf.getvalue()


def read_stream(tmp_path, text):
    """Every epoch row of stream ``text``, read back as the file ``t``."""
    path = tmp_path / "t"
    path.write_text(text)
    return list(iter_load(path).epochs())


class TestStreamRoundTrip:
    def test_blocks_round_trip_exactly(self, tmp_path):
        _, partition = stream_partition()
        text = stream_text(partition)
        rows = read_stream(tmp_path, text)
        assert len(rows) == partition.num_epochs
        for lid, row in enumerate(rows):
            for tid, block in enumerate(row):
                original = partition.block(lid, tid)
                assert block.block_id == (lid, tid)
                assert block.start == original.start
                assert block.instrs == original.instrs

    def test_file_source_shape_and_preallocated(self, tmp_path):
        prog, partition = stream_partition()
        path = tmp_path / "trace.stream.jsonl"
        save_stream_file(partition, path)
        source = iter_load(path)
        assert source.num_threads == partition.num_threads
        assert source.num_epochs == partition.num_epochs
        assert source.preallocated == frozenset(prog.preallocated)
        # The source is re-iterable (fresh handle per epochs() call).
        assert len(list(source.epochs())) == partition.num_epochs
        assert len(list(source.epochs())) == partition.num_epochs

    def test_seek_skips_processed_epochs(self, tmp_path):
        _, partition = stream_partition(events=400)
        path = tmp_path / "trace.stream.jsonl"
        save_stream_file(partition, path)
        rows = list(iter_load(path).epochs(start=3))
        assert rows[0][0].lid == 3
        assert rows[0][0].instrs == partition.block(3, 0).instrs
        assert len(rows) == partition.num_epochs - 3

    def test_a_version_2_file_reads_the_same_blocks(self, tmp_path):
        """Nothing writes version 2 any more; its files still read, on
        the row decoder version 1 needs, to the same columns."""
        _, partition = stream_partition()
        packed = read_stream(tmp_path, stream_text(partition))
        rows = read_stream(tmp_path, v2_text(partition))
        assert [[b.columns for b in row] for row in rows] == [
            [b.columns for b in row] for row in packed
        ]

    def test_file_version_distinguishes_layouts(self, tmp_path):
        prog, partition = stream_partition()
        v1 = tmp_path / "v1.jsonl"
        v2 = tmp_path / "v2.jsonl"
        v3 = tmp_path / "v3.jsonl"
        save_file(prog, v1)
        save_v2_file(partition, v2)
        save_stream_file(partition, v3)
        assert file_version(v1) == 1
        assert file_version(v2) == 2
        assert file_version(v3) == 3
        with pytest.raises(TraceError):
            file_version(__file__)


class TestStreamValidation:
    def test_missing_footer_is_a_truncated_stream(self, tmp_path):
        _, partition = stream_partition()
        text = stream_text(partition)
        no_footer = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(TraceError, match=r"t:\d+.*footer"):
            read_stream(tmp_path, no_footer)

    @pytest.mark.parametrize("record", NOT_INTEGERS + OUT_OF_INT64)
    def test_rejects_booleans_and_floats_for_integers(self, tmp_path, record):
        """And integers the int64 columns cannot hold, which used to
        escape the column freeze as an ``OverflowError`` traceback."""
        _, partition = stream_partition(threads=2)
        lines = stream_text(partition).splitlines(keepends=True)
        # Rows are the only block form a bad row can be planted in.
        epoch = rows_record(json.loads(lines[2]))  # line 3: epoch 1
        epoch["blocks"][1].append(json.loads(record))
        lines[2] = json.dumps(epoch) + "\n"
        path = tmp_path / "t.stream.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(
            TraceError,
            match=r"t\.stream\.jsonl:3: malformed instruction record",
        ):
            list(iter_load(path).epochs())
        # The decoder the daemon's EPOCH frames share.
        with pytest.raises(
            TraceError, match=r"s1:9: malformed instruction record"
        ):
            decode_epoch_row(epoch, 1, 2, "s1", 9)

    def test_int64_extremes_still_decode(self):
        lo, hi = -(2**63), 2**63 - 1
        row = decode_epoch_row(
            {"epoch": 0, "starts": [0],
             "blocks": [[["write", hi, [lo, hi], 1],
                         ["malloc", 0, [], hi]]]},
            0, 1, "s1", 2,
        )
        assert [(i.dst, i.srcs, i.size) for i in row[0].instrs] == [
            (hi, (lo, hi), 1), (0, (), hi),
        ]

    @pytest.mark.parametrize("start", [True, -1])
    def test_block_starts_must_be_non_negative_integers(
        self, tmp_path, start
    ):
        """``isinstance(True, int)`` once more: a JSON ``true`` start
        (and a negative one) used to be analysed."""
        _, partition = stream_partition(threads=2)
        lines = stream_text(partition).splitlines(keepends=True)
        epoch = json.loads(lines[2])
        epoch["starts"][0] = start
        lines[2] = json.dumps(epoch) + "\n"
        path = tmp_path / "t.stream.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(
            TraceError,
            match=r"t\.stream\.jsonl:3: epoch 1 thread 0: malformed "
                  r"block record",
        ):
            list(iter_load(path).epochs())
        with pytest.raises(TraceError, match=r"s1:9: .*malformed block"):
            decode_epoch_row(epoch, 1, 2, "s1", 9)

    @pytest.mark.parametrize("layout", ["v1", "v2"])
    @pytest.mark.parametrize(
        "prealloc", [[[1]], ["x", True, 1.5, 7], [1.0], [True]]
    )
    def test_preallocated_locations_must_be_exactly_integers(
        self, tmp_path, prealloc, layout
    ):
        """Both layouts used to check the set for ``list`` only: ``[[1]]``
        died with ``TypeError: unhashable type`` building the frozenset
        and ``true`` or ``1.0`` was analysed as location 1."""
        prog, partition = stream_partition()
        path = tmp_path / "t.jsonl"
        if layout == "v2":
            lines = stream_text(partition).splitlines(keepends=True)
            header = json.loads(lines[0])
            header["preallocated"] = prealloc
            path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
            line, read = 1, iter_load
        else:
            buf = io.StringIO()
            dump(prog, buf)
            lines = buf.getvalue().splitlines(keepends=True)
            lines[-1] = json.dumps({"preallocated": prealloc}) + "\n"
            path.write_text("".join(lines))
            line, read = len(lines), load_file
        with pytest.raises(
            TraceError, match=rf"t\.jsonl:{line}: bad preallocated set"
        ):
            read(path)

    def test_truncated_epoch_record(self, tmp_path):
        _, partition = stream_partition()
        lines = stream_text(partition).splitlines(keepends=True)
        chopped = "".join(lines[:2]) + lines[2][:-20]
        with pytest.raises(TraceError, match=r"t:\d+: invalid JSON"):
            read_stream(tmp_path, chopped)

    def test_out_of_order_epoch_records(self, tmp_path):
        _, partition = stream_partition()
        lines = stream_text(partition).splitlines(keepends=True)
        swapped = lines[0] + lines[2] + lines[1] + "".join(lines[3:])
        with pytest.raises(TraceError, match="in order"):
            read_stream(tmp_path, swapped)

    def test_trailing_garbage_after_footer(self, tmp_path):
        _, partition = stream_partition()
        polluted = stream_text(partition) + '{"oops": 1}\n'
        with pytest.raises(TraceError, match="trailing garbage"):
            read_stream(tmp_path, polluted)

    def test_v1_reader_refuses_v2_and_vice_versa(self, tmp_path):
        prog, partition = stream_partition()
        # Not "unsupported": `check --trace` reads the file, so the
        # message says what it is and which command takes it.
        with pytest.raises(TraceError) as exc:
            load(io.StringIO(stream_text(partition)), name="t")
        message = str(exc.value)
        assert message.startswith("t:1: a version 3 file is an epoch-major")
        assert "no recorded order" in message
        assert "need a version 1 program file" in message
        assert "'repro check --trace' reads this one" in message
        assert "unsupported" not in message
        with pytest.raises(
            TraceError, match="t:1: a version 2 file is an epoch-major"
        ):
            load(io.StringIO(v2_text(partition)), name="t")
        v1 = io.StringIO()
        dump(prog, v1)
        with pytest.raises(TraceError, match="not a stream trace"):
            read_stream(tmp_path, v1.getvalue())

    def test_seek_past_the_end_rejected(self, tmp_path):
        _, partition = stream_partition()
        path = tmp_path / "trace.stream.jsonl"
        save_stream_file(partition, path)
        with pytest.raises(TraceError, match="cannot seek"):
            list(iter_load(path).epochs(start=partition.num_epochs + 1))

    def test_wrong_footer_count(self, tmp_path):
        _, partition = stream_partition()
        lines = stream_text(partition).splitlines(keepends=True)
        bad = "".join(lines[:-1]) + '{"epochs_written": 1}\n'
        with pytest.raises(TraceError, match="bad footer"):
            read_stream(tmp_path, bad)



#: A packed block's header: its fields, then their and the body's sha256.
PACKED_FIELDS = columnar._PACKED_HEAD.size
PACKED_HEAD = PACKED_FIELDS + columnar._DIGEST


class TestPackedCorruption:
    """Every flipped byte of a packed block is a :class:`TraceError` at
    its line: never another exception, never a block that decodes."""

    BODY_STRIDE = 211

    def test_every_flipped_byte_is_refused(self, tmp_path):
        program = get_benchmark("OCEAN").generate(2, 600, seed=5)
        partition = partition_auto(program, 1024)
        lines = stream_text(partition).splitlines(keepends=True)
        assert json.loads(lines[0])["version"] == 3
        path = tmp_path / "flip.jsonl"
        flips = 0
        for at in range(1, len(lines) - 1):
            record = json.loads(lines[at])
            for tid, packed in enumerate(record["blocks"]):
                raw = bytes.fromhex(packed)
                spots = [(i, 0xFF) for i in range(PACKED_HEAD)]
                spots += [(i, 0x01) for i in range(PACKED_FIELDS)]
                spots += [(i, 0xFF) for i in
                          range(PACKED_HEAD, len(raw), self.BODY_STRIDE)]
                for i, mask in spots:
                    flipped = bytearray(raw)
                    flipped[i] ^= mask
                    blocks = list(record["blocks"])
                    blocks[tid] = flipped.hex()
                    bad = list(lines)
                    bad[at] = json.dumps(dict(record, blocks=blocks)) + "\n"
                    path.write_text("".join(bad))
                    with pytest.raises(
                        TraceError,
                        match=rf"flip\.jsonl:{at + 1}: malformed packed block",
                    ):
                        list(iter_load(path).epochs())
                    flips += 1
        assert flips > 500

    def test_a_bad_hex_digit_is_refused(self, tmp_path):
        _, partition = stream_partition()
        lines = stream_text(partition).splitlines(keepends=True)
        record = json.loads(lines[1])
        record["blocks"][0] = "zz" + record["blocks"][0][2:]
        lines[1] = json.dumps(record) + "\n"
        with pytest.raises(
            TraceError, match=r"t:2: malformed packed block: not a hex"
        ):
            read_stream(tmp_path, "".join(lines))
