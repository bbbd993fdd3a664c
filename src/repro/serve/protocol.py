"""The serve wire protocol: length-prefixed frames over a byte stream.

``repro serve`` accepts many concurrent stream traces over TCP or Unix
sockets.  Each connection carries one stream session:

1. client sends ``HELLO`` (stream identity + shape, the preallocated
   set as location runs ``[[lo, hi], ...]`` like a version 4 stream
   header's, + optional resume token);
2. server answers ``ACK`` (the epoch to start/resume from, plus the
   stream's deterministic resume token);
3. client sends one ``EPOCH`` frame per epoch, in order, starting at
   the acknowledged epoch -- each payload is exactly one stream epoch
   record (the same JSON line ``dump_stream`` writes: packed,
   sha256-checked hex blocks), so file, wire and a process shard's
   pipe carry one record form;
4. client closes with ``END`` (the stream footer);
5. server answers ``REPORT`` (the stream's error report as one
   ``[kind, location, ref, block, detail]`` array per flag, work
   counters, and window peak -- bit-identical to what offline ``repro
   check`` computes over the same trace) or ``ERROR``.

Framing is deliberately dumb: a 1-byte frame type, a 4-byte big-endian
payload length, then the payload (UTF-8 JSON).  Dumb framing is what
makes the transport an explicit *error source*: a frame whose length
prefix promises bytes that never arrive is a truncation, a payload
that fails JSON/shape validation is corruption, and both must be
contained to the one stream that sent them (see
``docs/serving.md``).  Payloads above :data:`MAX_FRAME` are rejected
before buffering, so a corrupt length prefix cannot balloon daemon
memory.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.state import LocationRuns
from repro.errors import ReproError

# -- frame types ------------------------------------------------------------

FRAME_HELLO = 0x01
FRAME_EPOCH = 0x02
FRAME_END = 0x03
FRAME_ACK = 0x81
FRAME_REPORT = 0x82
FRAME_ERROR = 0x83

FRAME_NAMES = {
    FRAME_HELLO: "HELLO",
    FRAME_EPOCH: "EPOCH",
    FRAME_END: "END",
    FRAME_ACK: "ACK",
    FRAME_REPORT: "REPORT",
    FRAME_ERROR: "ERROR",
}

#: Hard per-frame payload cap: one epoch record for every thread.  A
#: length prefix above this is treated as corruption, not a request to
#: allocate.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">BI")

PROTOCOL_FORMAT = "repro-serve"
PROTOCOL_VERSION = 3

#: Machine-readable ``ERROR`` frame codes (``docs/serving.md``).
ERROR_CODES = (
    "busy",       # refuse-connects rung of the overload ladder
    "shed",       # shed-newest rung: reconnect later and resume
    "timeout",    # producer stalled past the idle timeout
    "protocol",   # malformed frame, bad epoch record, bad footer
    "token",      # resume token does not match the stream identity
    "drain",      # daemon is draining; reconnect to a new instance
    "internal",   # analysis failure; the stream cannot continue
)


class ProtocolError(ReproError):
    """A violation of the framing or session contract."""


def encode_frame(ftype: int, payload: bytes) -> bytes:
    """One frame as bytes (header + payload)."""
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte cap"
        )
    return _HEADER.pack(ftype, len(payload)) + payload


def _runs_json(value: LocationRuns) -> List[List[int]]:
    return value.runs  # json's ``default``: a HELLO's set is the one


def encode_json_frame(ftype: int, record: Dict[str, Any]) -> bytes:
    blob = json.dumps(record, separators=(",", ":"), default=_runs_json)
    return encode_frame(ftype, blob.encode("utf-8"))


def encode_report_frame(
    report: Dict[str, Any], rows: Optional[bytes] = None
) -> bytes:
    """The ``REPORT`` frame of ``report``.  ``rows``, when given, is its
    ``errors`` already encoded as the body of a JSON array (a
    checkpoint's flag segment holds them so): spliced in rather than
    encoded again, the frame is byte-identical."""
    if rows is None or next(reversed(report)) != "errors":
        return encode_json_frame(FRAME_REPORT, report)
    head = dict(report)
    del head["errors"]
    blob = json.dumps(head, separators=(",", ":"), default=_runs_json)
    return encode_frame(
        FRAME_REPORT,
        blob[:-1].encode("utf-8") + b',"errors":[' + rows + b"]}",
    )


def decode_header(header: bytes) -> Tuple[int, int]:
    """``(frame type, payload length)`` from the 5 header bytes."""
    ftype, length = _HEADER.unpack(header)
    if ftype not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
    if length > MAX_FRAME:
        raise ProtocolError(
            f"{FRAME_NAMES[ftype]} frame claims {length} bytes "
            f"(cap {MAX_FRAME}); treating as corruption"
        )
    return ftype, length


HEADER_SIZE = _HEADER.size


def decode_json_payload(ftype: int, payload: bytes) -> Dict[str, Any]:
    """Parse a frame payload as a JSON object, or raise ProtocolError."""
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(
            f"{FRAME_NAMES.get(ftype, hex(ftype))} frame payload is not "
            f"valid JSON: {exc}"
        ) from None
    if not isinstance(record, dict):
        raise ProtocolError(
            f"{FRAME_NAMES.get(ftype, hex(ftype))} frame payload must be "
            f"a JSON object, got {type(record).__name__}"
        )
    return record


# -- HELLO ------------------------------------------------------------------

LIFEGUARD_CHOICES = ("addrcheck", "race", "taintcheck")


def make_hello(
    stream_id: str,
    threads: int,
    epochs: int,
    preallocated,
    lifeguard: str = "addrcheck",
) -> Dict[str, Any]:
    """A fresh stream's ``HELLO``; a reconnect sets ``token`` on it."""
    return {
        "format": PROTOCOL_FORMAT,
        "version": PROTOCOL_VERSION,
        "stream": stream_id,
        "threads": threads,
        "epochs": epochs,
        "preallocated": LocationRuns.of(preallocated),
        "lifeguard": lifeguard,
        "token": None,
    }


def validate_hello(record: Dict[str, Any]) -> Dict[str, Any]:
    """Structural validation of a ``HELLO`` payload (server side)."""
    if record.get("format") != PROTOCOL_FORMAT:
        raise ProtocolError(
            f"HELLO is not a {PROTOCOL_FORMAT} greeting: "
            f"{record.get('format')!r}"
        )
    if record.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {record.get('version')!r} "
            f"(this daemon speaks {PROTOCOL_VERSION})"
        )
    stream = record.get("stream")
    if not isinstance(stream, str) or not stream or len(stream) > 256:
        raise ProtocolError(f"bad stream id {stream!r}")
    threads = record.get("threads")
    if not isinstance(threads, int) or threads < 1:
        raise ProtocolError(f"bad thread count {threads!r}")
    epochs = record.get("epochs")
    if not isinstance(epochs, int) or epochs < 0:
        raise ProtocolError(f"bad epoch count {epochs!r}")
    prealloc = record.get("preallocated")
    try:
        record["preallocated"] = LocationRuns.parse(prealloc)
    except ValueError:
        raise ProtocolError(f"bad preallocated set {prealloc!r}") from None
    lifeguard = record.get("lifeguard")
    if lifeguard not in LIFEGUARD_CHOICES:
        raise ProtocolError(
            f"unknown lifeguard {lifeguard!r} (choose from "
            f"{', '.join(LIFEGUARD_CHOICES)})"
        )
    token = record.get("token")
    if token is not None and not isinstance(token, str):
        raise ProtocolError(f"bad resume token {token!r}")
    return record


def resume_token(hello: Dict[str, Any]) -> str:
    """The stream's deterministic resume token.

    A pure function of the stream's *identity* (id, shape, lifeguard,
    preallocated set), so the client and the server -- and a client
    reconnecting to a restarted daemon -- all derive the same token
    independently.  Doubles as the checkpoint's filename stem: hex, so
    it is filesystem-safe regardless of what the stream id contains.
    """
    identity = {
        "stream": hello["stream"],
        "threads": hello["threads"],
        "epochs": hello["epochs"],
        "lifeguard": hello["lifeguard"],
        "preallocated": hello["preallocated"].runs,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def checkpoint_meta(hello: Dict[str, Any], token: str) -> Dict[str, Any]:
    """The per-stream checkpoint fingerprint (``Checkpoint.verify``)."""
    return {
        "serve_stream": hello["stream"],
        "threads": hello["threads"],
        "epochs": hello["epochs"],
        "lifeguard": hello["lifeguard"],
        "token": token,
    }


# -- REPORT -----------------------------------------------------------------


def build_report(stream_id: str, hello: Dict[str, Any], engine, guard,
                 boundaries: Optional[List[List[int]]] = None
                 ) -> Dict[str, Any]:
    """The end-of-stream report: everything ``repro check`` would print.

    Built from a finished engine/guard pair -- by the daemon after the
    last epoch folds, and by offline runs (``repro check`` prints
    every finished run through this same function), so the
    serve-vs-offline differential mode and the CI smoke job compare
    like with like.

    ``boundaries`` is the per-thread heartbeat cut stream the run
    *actually* analyzed with.  An engine that coalesced rows under a
    controller recorded it (``engine.recorded_boundaries``) and it
    enters the report so an offline re-check can replay the identical
    partition (``partition_from_boundaries``) and must reproduce this
    report bit for bit; a fixed engine recorded nothing, so its report
    has no such key unless the caller passes the cuts explicitly.

    ``errors`` is ``guard.errors.rows`` as recorded, one ``(kind, location,
    ref, block, detail)`` tuple per flag; the wire carries JSON arrays, so
    compare an offline report with a wire one in their JSON form.
    """
    if boundaries is None:
        boundaries = engine.recorded_boundaries
    report: Dict[str, Any] = {
        "stream": stream_id,
        "lifeguard": hello["lifeguard"],
        "threads": hello["threads"],
        "epochs": hello["epochs"],
        "stats": asdict(engine.stats),
        "window_high_water": engine.window_high_water,
        "window_bound": 3 * hello["threads"],
    }
    if boundaries is not None:
        report["boundaries"] = [list(cuts) for cuts in boundaries]
    report["errors"] = list(guard.errors.rows)
    return report


def format_report(
    report: Dict[str, Any], label: str, limit: int = 10
) -> List[str]:
    """Render a report as the ``repro check`` streamed-result block.

    ``repro check`` (resumed or not) and ``repro push`` both print
    through here, so the commands' outputs over the same trace can be
    diffed byte for byte -- the serve-smoke job's acceptance check.
    """
    threads = report["threads"]
    epochs = "?" if report["epochs"] is None else report["epochs"]
    lines = [f"trace: {label}, {threads} threads, {epochs} epochs (streamed)"]
    errors = report["errors"]
    lines.append(f"flags: {len(errors)}")
    for kind, location, ref, _, _ in errors[:limit]:
        ref = tuple(ref) if ref is not None else None
        lines.append(f"  {kind:18s} loc=0x{location:x} at {ref}")
    lines.append(
        f"stream: peak resident summaries {report['window_high_water']} "
        f"(bound {report['window_bound']})"
    )
    return lines


def error_payload(code: str, message: str, **fields: Any) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    payload = {"code": code, "error": message}
    payload.update(fields)
    return payload
