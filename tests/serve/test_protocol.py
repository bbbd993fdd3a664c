"""Unit tests for the serve wire protocol (framing, HELLO, REPORT)."""

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    FRAME_EPOCH,
    FRAME_HELLO,
    FRAME_NAMES,
    HEADER_SIZE,
    MAX_FRAME,
    ProtocolError,
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


def hello(**overrides):
    base = make_hello("s1", 2, 5, [16, 32], "addrcheck")
    base.update(overrides)
    return base


class TestHello:
    def test_make_hello_validates(self):
        record = validate_hello(hello())
        assert record["stream"] == "s1"
        assert record["preallocated"] == [16, 32]

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
    ])
    def test_bad_hello_rejected(self, overrides, match):
        with pytest.raises(ProtocolError, match=match):
            validate_hello(hello(**overrides))


class TestResumeToken:
    def test_deterministic_and_filesystem_safe(self):
        a = resume_token(hello())
        b = resume_token(hello())
        assert a == b
        assert len(a) == 32
        int(a, 16)  # pure hex: safe as a checkpoint filename stem

    def test_identity_fields_change_the_token(self):
        base = resume_token(hello())
        assert resume_token(hello(stream="s2")) != base
        assert resume_token(hello(threads=3)) != base
        assert resume_token(hello(epochs=6)) != base
        assert resume_token(hello(lifeguard="taintcheck")) != base
        assert resume_token(hello(preallocated=[16])) != base

    def test_token_field_itself_is_not_identity(self):
        # Reconnecting with the token present must re-derive the same
        # token -- otherwise no resume could ever match.
        assert resume_token(hello(token="ff" * 16)) == resume_token(hello())


class TestReportFormatting:
    def test_error_report_block(self):
        report = {
            "lifeguard": "addrcheck",
            "threads": 2,
            "epochs": 5,
            "window_high_water": 4,
            "window_bound": 6,
            "errors": [
                {"kind": "use-after-free", "location": 255,
                 "ref": [1, 2, 3], "block": None, "detail": ""},
            ] * 3,
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
            "races": [
                {"kind": "write-write", "location": 16, "body_ref": [0, 1, 0]},
            ],
        }
        lines = format_report(report, "demo", limit=10)
        assert lines[1] == "potential conflicts: 1"
        assert "write-write" in lines[2]


class TestErrorPayload:
    def test_payload_shape(self):
        payload = error_payload("shed", "overloaded", resume_epoch=4)
        assert payload == {
            "code": "shed", "error": "overloaded", "resume_epoch": 4
        }

    def test_all_ladder_codes_exist(self):
        for code in ("busy", "shed", "timeout", "drain"):
            assert code in ERROR_CODES
