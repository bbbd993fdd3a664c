"""The producer side of the serve protocol: ``repro push``.

A deliberately small, *synchronous* client: it reads a stream trace
file (version 4: packed blocks) and ships its
epoch records to a running ``repro serve`` daemon as ``EPOCH`` frames
-- the payload is the file's own JSON line, so pushing never re-encodes
the trace, and the daemon checks a packed block's lengths and sha256
as the file reader does.  Blocking sockets are the point: when the
daemon stops reading (a stream's bounded queue filled), the producer's
``send`` blocks on the kernel's TCP window -- backpressure reaches the
producer with no protocol machinery at all.

The client is also the project's transport fault *injector*.  Given a
:class:`~repro.resilience.faults.FaultPlan` with transport rates, each
epoch frame rolls the plan's deterministic dice
(:meth:`~repro.resilience.faults.FaultPlan.decide_transport`, keyed by
``(crc32(stream id), epoch)`` and the reconnect attempt) and delivers
the chosen failure: a clean disconnect between frames, a truncated
frame, corrupted payload bytes, or a producer stall.  Because the dice
are keyed by attempt, a resumed delivery re-rolls -- injection
exercises the recovery path instead of dooming one epoch forever.

Recovery is resume, not replay: on any retryable failure the client
backs off deterministically
(:meth:`~repro.resilience.supervisor.RetryPolicy.delay_for`),
reconnects with the stream's resume token, and the daemon's ``ACK``
says which epoch to continue from -- everything before it survived in
the daemon's checkpoint, and completed epochs are never re-sent.
"""

from __future__ import annotations

import json
import socket
import time
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError, ResilienceError, TraceError
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import RetryPolicy
from repro.serve.protocol import (
    FRAME_ACK,
    FRAME_END,
    FRAME_EPOCH,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_REPORT,
    HEADER_SIZE,
    ProtocolError,
    decode_header,
    decode_json_payload,
    encode_frame,
    encode_json_frame,
    make_hello,
    resume_token,
)
from repro.trace.serialize import stream_header

#: ``ERROR`` codes worth a reconnect: transient overload and transport
#: damage.  ``token`` and ``internal`` are permanent for this stream.
RETRYABLE_CODES = frozenset(
    {"busy", "shed", "timeout", "protocol", "drain"}
)

Address = Tuple[str, Any]  # ("tcp", (host, port)) | ("unix", path)


class ServeErrorFrame(ReproError):
    """The daemon refused or aborted the stream with an ``ERROR`` frame."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        super().__init__(
            f"serve error [{payload.get('code')}]: {payload.get('error')}"
        )
        self.code = payload.get("code")
        self.payload = payload


class _Retryable(Exception):
    """Internal marker: this delivery failed but a reconnect may finish
    the stream (wraps the causal exception for the final report)."""


def parse_address(spec: str) -> Address:
    """``HOST:PORT`` -> a tcp address (the CLI's ``--connect`` form)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ReproError(f"bad address {spec!r}: expected HOST:PORT")
    if not port.isdecimal() or int(port) > 65535:
        raise ReproError(f"bad port in address {spec!r}")
    return ("tcp", (host, int(port)))


def _connect(address: Address, timeout: float) -> socket.socket:
    kind, where = address
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(where)
    return sock


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> Tuple[int, bytes]:
    ftype, length = decode_header(_recv_exactly(sock, HEADER_SIZE))
    return ftype, _recv_exactly(sock, length)


class StreamClient:
    """One stream's delivery loop: connect, resume, inject, retry."""

    def __init__(
        self,
        address: Address,
        trace_path: str,
        stream_id: str,
        lifeguard: str = "addrcheck",
        plan: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
        timeout: float = 30.0,
    ) -> None:
        if not timeout > 0:
            raise ResilienceError(
                f"timeout must be > 0 seconds, got {timeout}"
            )
        self.address = address
        self.trace_path = trace_path
        self.stream_id = stream_id
        self.lifeguard = lifeguard
        self.plan = plan
        #: Reconnects after the first attempt are ``policy.max_retries``.
        self.policy = policy or RetryPolicy()
        self.timeout = timeout
        with open(trace_path) as fp:
            self.header = stream_header(fp, trace_path)
        self.hello = make_hello(
            stream_id,
            self.header["threads"],
            self.header["epochs"],
            self.header["preallocated"],
            lifeguard,
        )
        self.token = resume_token(self.hello)
        self._digest = zlib.crc32(stream_id.encode("utf-8"))
        #: The last ``ACK`` received, for callers that care where the
        #: daemon resumed this stream from.
        self.last_ack: Optional[Dict[str, Any]] = None

    # -- fault injection --------------------------------------------------

    def _deliver_epoch(
        self, sock: socket.socket, lid: int, line: str, attempt: int
    ) -> None:
        """Send one epoch frame, injecting this delivery's planned
        transport fault (if any)."""
        payload = line.encode("utf-8")
        fault = (
            self.plan.decide_transport((self._digest, lid), attempt)
            if self.plan is not None and self.plan.total_transport_rate > 0
            else None
        )
        if fault == "disconnect":
            sock.close()
            raise _Retryable(f"injected disconnect before epoch {lid}")
        if fault == "trunc_frame":
            frame = encode_frame(FRAME_EPOCH, payload)
            sock.sendall(frame[: max(1, len(frame) // 2)])
            sock.close()
            raise _Retryable(f"injected truncated frame at epoch {lid}")
        if fault == "corrupt_bytes":
            damaged = bytearray(payload)
            damaged[len(damaged) // 2] ^= 0x5A
            sock.sendall(encode_frame(FRAME_EPOCH, bytes(damaged)))
            # The daemon answers ERROR protocol; surface it as this
            # frame's failure so the retry path re-rolls the dice.
            ftype, answer = read_frame_sync(sock)
            sock.close()
            if ftype == FRAME_ERROR:
                raise _Retryable(
                    ServeErrorFrame(decode_json_payload(ftype, answer))
                )
            raise _Retryable(f"injected corrupt frame at epoch {lid}")
        if fault == "stall":
            time.sleep(self.plan.stall_s)
        sock.sendall(encode_frame(FRAME_EPOCH, payload))

    # -- one delivery attempt ---------------------------------------------

    def _attempt(self, attempt: int) -> Dict[str, Any]:
        try:
            sock = _connect(self.address, self.timeout)
        except OSError as exc:
            raise _Retryable(f"connect failed: {exc}") from exc
        try:
            return self._run_stream(sock, attempt)
        except (socket.timeout, ConnectionError, BrokenPipeError) as exc:
            raise _Retryable(f"transport failed: {exc}") from exc
        except ProtocolError as exc:
            raise _Retryable(f"bad frame from daemon: {exc}") from exc
        except ServeErrorFrame as exc:
            if exc.code in RETRYABLE_CODES:
                raise _Retryable(exc) from exc
            raise
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _run_stream(
        self, sock: socket.socket, attempt: int
    ) -> Dict[str, Any]:
        hello = dict(self.hello)
        hello["token"] = self.token if attempt else None
        sock.sendall(encode_json_frame(FRAME_HELLO, hello))
        ftype, payload = read_frame_sync(sock)
        if ftype == FRAME_ERROR:
            raise ServeErrorFrame(decode_json_payload(ftype, payload))
        if ftype != FRAME_ACK:
            raise ProtocolError(f"expected ACK, got frame 0x{ftype:02x}")
        ack = decode_json_payload(ftype, payload)
        self.last_ack = ack
        start = ack.get("resume_epoch", 0)
        num_epochs = self.header["epochs"]
        with open(self.trace_path) as fp:
            fp.readline()  # header, validated at construction
            for _ in range(start):  # epochs the daemon already holds
                fp.readline()
            for lid in range(start, num_epochs):
                line = fp.readline()
                if not line.strip():
                    raise TraceError(
                        f"{self.trace_path}: truncated at epoch {lid}"
                    )
                self._deliver_epoch(sock, lid, line.strip(), attempt)
            footer = fp.readline().strip()
        sock.sendall(
            encode_frame(FRAME_END, footer.encode("utf-8"))
            if footer
            else encode_json_frame(
                FRAME_END, {"epochs_written": num_epochs}
            )
        )
        ftype, payload = read_frame_sync(sock)
        record = decode_json_payload(ftype, payload)
        if ftype == FRAME_ERROR:
            raise ServeErrorFrame(record)
        if ftype != FRAME_REPORT:
            raise ProtocolError(f"expected REPORT, got frame 0x{ftype:02x}")
        return record

    # -- the delivery loop ------------------------------------------------

    def push(self) -> Dict[str, Any]:
        """Deliver the stream, resuming across failures; the REPORT."""
        last: Optional[Exception] = None
        attempts = self.policy.max_retries + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(
                    self.policy.delay_for(self._digest, 0, attempt)
                )
            try:
                return self._attempt(attempt)
            except _Retryable as exc:
                cause = exc.args[0]
                last = cause if isinstance(cause, Exception) else exc
        message = (
            f"stream {self.stream_id!r} failed after "
            f"{attempts} attempts: {last}"
        )
        if isinstance(last, ServeErrorFrame):
            raise ServeErrorFrame(last.payload) from last
        raise ReproError(message) from last


def push_trace(
    address: Address,
    trace_path: str,
    stream_id: str,
    lifeguard: str = "addrcheck",
    plan: Optional[FaultPlan] = None,
    retries: int = 3,
    timeout: float = 30.0,
) -> Dict[str, Any]:
    """Push one stream trace file; return the daemon's REPORT.
    ``retries`` reconnects follow a failed attempt, backed off by the
    default :class:`RetryPolicy`."""
    return StreamClient(
        address,
        trace_path,
        stream_id,
        lifeguard=lifeguard,
        plan=plan,
        policy=RetryPolicy(max_retries=retries),
        timeout=timeout,
    ).push()
