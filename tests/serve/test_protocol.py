"""Unit tests for the serve wire protocol (framing, HELLO, REPORT)."""

import pytest

from repro.core.epoch import partition_fixed
from repro.core.framework import ButterflyEngine
from repro.serve.protocol import (
    ERROR_CODES,
    FRAME_EPOCH,
    FRAME_HELLO,
    FRAME_NAMES,
    HEADER_SIZE,
    MAX_FRAME,
    ProtocolError,
    build_report,
    decode_header,
    decode_json_payload,
    encode_frame,
    encode_json_frame,
    error_payload,
    format_report,
    make_hello,
    resume_token,
    validate_hello,
)
from repro.serve.shards import make_guard
from repro.trace.events import Instr
from repro.trace.program import TraceProgram


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame(FRAME_EPOCH, b"payload")
        ftype, length = decode_header(frame[:HEADER_SIZE])
        assert ftype == FRAME_EPOCH
        assert length == 7
        assert frame[HEADER_SIZE:] == b"payload"

    def test_json_round_trip(self):
        frame = encode_json_frame(FRAME_HELLO, {"a": 1})
        ftype, length = decode_header(frame[:HEADER_SIZE])
        assert decode_json_payload(ftype, frame[HEADER_SIZE:]) == {"a": 1}

    def test_unknown_frame_type_rejected(self):
        header = encode_frame(FRAME_EPOCH, b"")[:HEADER_SIZE]
        bogus = bytes([0x7F]) + header[1:]
        with pytest.raises(ProtocolError, match="unknown frame type"):
            decode_header(bogus)

    def test_oversized_length_prefix_is_corruption(self):
        # A corrupt length prefix must be rejected before any buffering.
        bogus = bytes([FRAME_EPOCH]) + (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="treating as corruption"):
            decode_header(bogus)

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(FRAME_EPOCH, b"x" * (MAX_FRAME + 1))

    def test_non_json_payload_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_json_payload(FRAME_HELLO, b"{oops")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_json_payload(FRAME_HELLO, b"[1,2]")

    def test_every_frame_type_named(self):
        assert set(FRAME_NAMES.values()) == {
            "HELLO", "EPOCH", "END", "ACK", "REPORT", "ERROR"
        }


def wire(record):
    """``record`` as the daemon reads it: one JSON frame's payload."""
    frame = encode_json_frame(FRAME_HELLO, record)
    return decode_json_payload(FRAME_HELLO, frame[HEADER_SIZE:])


def hello(**overrides):
    """A ``HELLO`` as it reaches the daemon, with ``overrides`` set."""
    base = wire(make_hello("s1", 2, 5, [16, 32], "addrcheck"))
    base.update(overrides)
    return base


def token(**overrides):
    """The daemon's token for :func:`hello`."""
    return resume_token(validate_hello(hello(**overrides)))


class TestHello:
    def test_make_hello_validates(self):
        assert hello()["preallocated"] == [[16, 17], [32, 33]]
        record = validate_hello(hello())
        assert record["stream"] == "s1"
        assert record["preallocated"] == {16, 32}

    @pytest.mark.parametrize("overrides,match", [
        ({"format": "other"}, "greeting"),
        ({"version": 99}, "version"),
        ({"stream": ""}, "stream id"),
        ({"stream": 7}, "stream id"),
        ({"threads": 0}, "thread count"),
        ({"epochs": -1}, "epoch count"),
        ({"preallocated": "nope"}, "preallocated"),
        ({"preallocated": ["x"]}, "preallocated"),
        ({"lifeguard": "bouncer"}, "lifeguard"),
        ({"token": 5}, "token"),
        ({"preallocated": [[1]]}, "preallocated"),
        ({"preallocated": [7, True]}, "preallocated"),
        ({"preallocated": [1.5]}, "preallocated"),
        # Version 1 listed every preallocated location.
        ({"version": 1, "preallocated": [16, 32]},
         "unsupported protocol version 1"),
        # Version 2 carried each flag of a REPORT as a keyed object.
        ({"version": 2}, "unsupported protocol version 2"),
    ])
    def test_bad_hello_rejected(self, overrides, match):
        with pytest.raises(ProtocolError, match=match):
            validate_hello(hello(**overrides))


class TestResumeToken:
    def test_deterministic_and_filesystem_safe(self):
        a = token()
        b = token()
        assert a == b
        # The client derives it from its own HELLO, never sent.
        assert resume_token(make_hello("s1", 2, 5, [32, 16])) == a
        assert len(a) == 32
        int(a, 16)  # pure hex: safe as a checkpoint filename stem

    def test_identity_fields_change_the_token(self):
        base = token()
        assert token(stream="s2") != base
        assert token(threads=3) != base
        assert token(epochs=6) != base
        assert token(lifeguard="taintcheck") != base
        assert token(preallocated=[[16, 17]]) != base

    def test_token_field_itself_is_not_identity(self):
        # Reconnecting with the token present must re-derive the same
        # token -- otherwise no resume could ever match.
        assert token(token="ff" * 16) == token()


class TestReportFormatting:
    def test_error_report_block(self):
        report = {
            "lifeguard": "addrcheck",
            "threads": 2,
            "epochs": 5,
            "window_high_water": 4,
            "window_bound": 6,
            # A wire report: each row a JSON array.
            "errors": [["use-after-free", 255, [1, 2, 3], None, ""]] * 3,
        }
        lines = format_report(report, "demo.jsonl", limit=2)
        assert lines[0] == "trace: demo.jsonl, 2 threads, 5 epochs (streamed)"
        assert lines[1] == "flags: 3"
        assert len([l for l in lines if "use-after-free" in l]) == 2
        assert "loc=0xff at (1, 2, 3)" in lines[2]
        assert lines[-1] == "stream: peak resident summaries 4 (bound 6)"

    def test_race_report_block(self):
        report = {
            "lifeguard": "race",
            "threads": 2,
            "epochs": 3,
            "window_high_water": 2,
            "window_bound": 6,
            # An offline report: each row the log's tuple.
            "errors": [
                ("unsafe-isolation", 16, (0, 1), (0, 0),
                 "potential write-write conflict"),
            ],
        }
        lines = format_report(report, "demo", limit=10)
        assert lines[1] == "flags: 1"
        assert lines[2] == "  unsafe-isolation   loc=0x10 at (0, 1)"


def _finished_report(lifeguard):
    """A REPORT over a trace every lifeguard flags: unallocated
    accesses (AddrCheck), a write-write conflict on 5 (RaceCheck) and a
    tainted jump target (TaintCheck)."""
    program = TraceProgram.from_lists(
        [Instr.write(5), Instr.taint(6), Instr.jump(6)],
        [Instr.write(5), Instr.read(7)],
    )
    guard = make_guard(lifeguard, ())
    engine = ButterflyEngine(guard)
    engine.run(partition_fixed(program, 2))
    hello = make_hello("s", 2, 2, [], lifeguard=lifeguard)
    return build_report("s", hello, engine, guard)


class TestOneReportShape:
    @pytest.mark.parametrize("lifeguard", ["addrcheck", "race", "taintcheck"])
    def test_every_lifeguard_reports_flags_one_way(self, lifeguard):
        report = _finished_report(lifeguard)
        assert set(report) == set(_finished_report("addrcheck"))
        assert report["errors"], "the trace must flag for this to mean much"
        for err in report["errors"]:
            assert type(err) is tuple and len(err) == 5
        lines = format_report(report, "demo")
        assert lines[1] == f"flags: {len(report['errors'])}"
        if lifeguard == "race":
            assert {
                (kind, location, detail)
                for kind, location, _, _, detail in report["errors"]
            } == {("unsafe-isolation", 5, "potential write-write conflict")}


class TestErrorPayload:
    def test_payload_shape(self):
        payload = error_payload("shed", "overloaded", resume_epoch=4)
        assert payload == {
            "code": "shed", "error": "overloaded", "resume_epoch": 4
        }

    def test_all_ladder_codes_exist(self):
        for code in ("busy", "shed", "timeout", "drain"):
            assert code in ERROR_CODES
