"""The butterfly-as-a-service daemon: ``repro serve``.

A long-running asyncio process that accepts many concurrent stream
traces (version 4) over TCP or Unix sockets (the framed protocol in
:mod:`repro.serve.protocol`) and folds each one through its own
:class:`~repro.core.framework.ButterflyEngine`, holding only the
three-epoch butterfly window per stream.

Architecture
------------

One event loop owns all sockets, the accept path, framing, byte
counting, every per-stream queue, and the daemon's
:class:`~repro.obs.recorder.Recorder` (which is not thread-safe --
``serve.*`` counters are only ever touched from the loop thread).  It
parses ``HELLO`` and ``END`` itself and queues each ``EPOCH`` payload
as received, numbered in arrival order.  Decode and analysis never run
on the loop: each stream is routed by a stable hash of its id to one of
``workers`` *shards* -- single-thread executors by default, long-lived
worker *processes* with ``shard_backend="process"``
(:mod:`repro.serve.shards`) -- and every ``feed`` (decode + fold),
``finish`` and checkpoint call runs there.  Streams on the same shard
serialize; streams on different shards fold epochs genuinely in
parallel (across real cores under process shards).  A malformed record
or a lifeguard crash surfaces as a failed call on the one session that
caused it -- ``ERROR protocol`` or ``ERROR internal``, sent at once,
with whatever was queued behind it discarded -- never as a dead daemon
or a wedged session.

Backpressure is the queue, not a protocol message: each session's epoch
queue is bounded at ``queue_depth``, the socket reader ``await``\\ s the
put, and a full queue therefore stops the read loop -- the kernel's TCP
window fills and the producer's sends block.  End to end, a producer
can run at most ``queue_depth + 1`` epochs ahead of the lifeguard, and
the per-stream window invariant (at most 3 epochs x threads resident
summaries) holds no matter how fast producers push.

When backpressure is not enough the daemon degrades in documented
rungs (``docs/serving.md``): per-stream queues fill first; if the
daemon-wide queued-epoch total exceeds ``max_pending_epochs`` the
*newest* accepted stream is shed (final checkpoint, ``ERROR shed``,
resumable by token); at ``max_streams`` active sessions new connects
are refused outright (``ERROR busy``).  Oldest streams -- closest to
completing, with the most sunk work -- are never the victims.

Every stream checkpoints at epoch boundaries
(:class:`~repro.resilience.checkpoint.Checkpointer` under
``checkpoint_dir``, filename = resume token).  A checkpoint is a
durability *point*: the shard's writer commits snapshots off the fold
path, so a SIGKILLed daemon restarted on the same directory resumes
every in-flight stream from its last *durable* epoch -- possibly one
behind the last folded one -- and the ``ACK`` tells the reconnecting
producer which epoch to resend from; the resumed report is
bit-identical to an uninterrupted run's.  Every forced save (failure,
shed, drain, disconnect, timeout) is a flush, so the ``resume_epoch``
an ``ERROR`` frame names is on disk.  SIGTERM/SIGINT triggers the
graceful variant: stop accepting, stop reading, fold what is queued,
checkpoint, notify producers with ``ERROR drain``, flush the event
sink, exit 0.
"""

from __future__ import annotations

import asyncio
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.epoch import SloConfig
from repro.errors import CheckpointError, ReproError, TraceError
from repro.obs.metrics import CONTENT_TYPE, render_metrics
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.serve.protocol import (
    FRAME_ACK,
    FRAME_END,
    FRAME_EPOCH,
    FRAME_ERROR,
    FRAME_HELLO,
    HEADER_SIZE,
    ProtocolError,
    decode_header,
    decode_json_payload,
    encode_json_frame,
    error_payload,
    resume_token,
    validate_hello,
)
from repro.serve.shards import (
    SHARD_BACKEND_CHOICES,
    SHARD_BACKENDS,
    StreamHandle,
    make_guard,
)

__all__ = [
    "ReproServer",
    "ServeConfig",
    "ServerThread",
    "StreamSession",
    "make_guard",
    "read_frame",
]


@dataclass
class ServeConfig:
    """Daemon knobs (CLI flags map onto these one to one, except that
    ``--adaptive-epoch`` and the ``--slo-*`` flags build ``slo``, whose
    controller takes its queue watermarks from ``queue_depth``)."""

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: Optional[str] = None
    #: Engine shards.  Streams hash onto shards, so concurrency scales
    #: with workers while any one stream's epochs stay strictly ordered.
    workers: int = 2
    #: Where a shard's engines live: ``"thread"`` (single-thread
    #: executors in the daemon process) or ``"process"`` (one long-lived
    #: worker process per shard; see :mod:`repro.serve.shards`).
    shard_backend: str = "thread"
    #: Per-stream bounded epoch queue -- the backpressure depth.
    queue_depth: int = 4
    #: Active-session cap: the refuse-connects rung.
    max_streams: int = 64
    #: Daemon-wide queued-epoch cap: the shed-newest rung.  ``0`` sheds
    #: a stream at its first queued epoch -- the rung's drill setting.
    max_pending_epochs: int = 256
    #: Seconds of producer silence before a session is timed out.
    idle_timeout: float = 30.0
    #: Directory for per-stream checkpoints (None disables resume).
    checkpoint_dir: Optional[str] = None
    #: Checkpoint every N committed epochs.
    checkpoint_every: int = 1
    #: TCP port for the ``/metrics``-style text snapshot listener
    #: (``None`` disables it; ``0`` binds an ephemeral port).
    metrics_port: Optional[int] = None
    #: Adaptive epoch sizing: with an SLO, every stream's engine
    #: coalesces producer epochs into larger analysis epochs under an
    #: :class:`~repro.core.epoch.EpochController` holding it; ``None``
    #: (the default) analyzes every producer cut as its own epoch.
    #: Resume coordinates stay in producer rows, and the boundaries
    #: actually analyzed ride the REPORT for offline replay.
    slo: Optional[SloConfig] = None


class _SessionError(Exception):
    """Terminate a session with a protocol ``ERROR`` frame."""

    def __init__(self, code: str, message: str, **fields: Any) -> None:
        super().__init__(message)
        self.code = code
        self.fields = fields


async def _cancel(task: "asyncio.Task[Any]") -> None:
    """Cancel ``task`` (a no-op once it is done) and let it unwind,
    swallowing whatever it ends with."""
    task.cancel()
    try:
        await task
    except (asyncio.CancelledError, Exception):
        pass


async def read_frame(
    reader: asyncio.StreamReader, timeout: Optional[float] = None
) -> Optional[Tuple[int, bytes]]:
    """One frame, or ``None`` on clean EOF at a frame boundary.

    A connection that dies *inside* a frame (header or payload cut
    short) raises :class:`ProtocolError` -- that is the truncated-frame
    transport fault, distinct from a clean disconnect.  ``timeout`` is
    an *idle* deadline, applied per read: every chunk of progress
    resets it, so a live producer trickling a large frame slower than
    the deadline is never killed mid-frame, while a stalled one times
    out after ``timeout`` seconds without a single byte.
    """

    async def _read_exactly(
        count: int, where: str, total: int, clean_eof: bool
    ) -> Optional[bytes]:
        chunks: List[bytes] = []
        got = 0
        while got < count:
            read = reader.read(count - got)
            chunk = (
                await read if timeout is None
                else await asyncio.wait_for(read, timeout)
            )
            if not chunk:  # EOF
                if clean_eof and got == 0:
                    return None
                raise ProtocolError(
                    f"connection closed inside a frame {where} "
                    f"({got}/{total} bytes)"
                ) from None
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    header = await _read_exactly(
        HEADER_SIZE, "header", HEADER_SIZE, clean_eof=True
    )
    if header is None:
        return None  # clean EOF between frames
    ftype, length = decode_header(header)
    payload = await _read_exactly(length, "payload", length, clean_eof=False)
    return ftype, payload or b""


class StreamSession:
    """One connected trace stream: reader, bounded queue, shard feed."""

    def __init__(
        self,
        server: "ReproServer",
        hello: Dict[str, Any],
        token: str,
        writer: asyncio.StreamWriter,
        seq: int,
    ) -> None:
        self.server = server
        self.hello = hello
        self.stream_id: str = hello["stream"]
        self.token = token
        self.writer = writer
        #: Accept order -- the shed rung evicts the largest.
        self.seq = seq
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue(
            maxsize=server.config.queue_depth
        )
        self.engine: Optional[StreamHandle] = None
        self.shard_index = server.shard_index_for(self.stream_id)
        self.resume_epoch = 0
        self.next_epoch = 0
        self.ended = False
        #: The REPORT was sent: closing the engine deletes the checkpoint.
        self.completed = False
        #: Set by the shed rung / drain / a failed consumer to stop the
        #: read loop at the next frame boundary.
        self.stopped: Optional[str] = None
        #: Wakes the read loop immediately when ``stopped`` is set, so
        #: a drain never waits out the idle timeout on a quiet stream.
        self.stop_event = asyncio.Event()
        self.consumer: Optional["asyncio.Task[None]"] = None

    def request_stop(self, reason: str) -> None:
        if self.stopped is None:
            self.stopped = reason
            self.stop_event.set()

    def start_consumer(self) -> None:
        def stop_if_failed(_task: "asyncio.Task[None]") -> None:
            # A dead consumer takes nothing off the queue again: stop
            # the read loop at once, wherever it waits, rather than let
            # it block on a full queue forever.
            if self.consumer_failed():
                self.request_stop("failed")

        self.consumer = asyncio.get_running_loop().create_task(
            self.consume()
        )
        self.consumer.add_done_callback(stop_if_failed)

    def consumer_failed(self) -> bool:
        consumer = self.consumer
        return (
            consumer is not None and consumer.done()
            and not consumer.cancelled() and consumer.exception() is not None
        )

    def consumer_error(self) -> _SessionError:
        """The ``ERROR`` a failed consumer ends the session with."""
        exc = self.consumer.exception()
        if isinstance(exc, _SessionError):
            return exc
        return _SessionError("internal", f"analysis failed: {exc}")

    def stop_error(self) -> _SessionError:
        """The ``ERROR`` a stopped session ends with."""
        if self.stopped == "failed":
            return self.consumer_error()
        return _SessionError(
            self.stopped,
            "stream shed under overload; reconnect to resume"
            if self.stopped == "shed"
            else "daemon is draining; reconnect to resume",
        )

    # -- engine setup ---------------------------------------------------

    async def open_engine(self) -> None:
        """Fresh engine, or one restored from this stream's checkpoint,
        living wherever this stream's shard keeps its engines."""
        shard = self.server.shard_for(self.stream_id)
        self.engine = await shard.open_stream(
            self.hello, self.token, self.server.config
        )
        self.resume_epoch = self.engine.resume_epoch
        self.next_epoch = self.resume_epoch

    # -- frame handling (loop thread) -----------------------------------

    async def send(self, ftype: int, record: Dict[str, Any]) -> None:
        await self.send_frame(encode_json_frame(ftype, record))

    async def send_frame(self, frame: bytes) -> None:
        self.writer.write(frame)
        await self.writer.drain()

    def handle_end(self, payload: bytes) -> None:
        footer = decode_json_payload(FRAME_END, payload)
        if footer.get("epochs_written") != self.hello["epochs"]:
            raise _SessionError(
                "protocol",
                f"bad footer {footer!r} (expected epochs_written="
                f"{self.hello['epochs']})",
            )
        if self.next_epoch != self.hello["epochs"]:
            raise _SessionError(
                "protocol",
                f"stream ended at epoch {self.next_epoch} of "
                f"{self.hello['epochs']}",
            )
        self.ended = True

    # -- the shard-side consumer ----------------------------------------

    async def consume(self) -> None:
        """Decode and fold queued epochs on this stream's shard, in
        order.  A malformed payload ends the stream as ``ERROR
        protocol`` naming its epoch, with the decoder's message."""
        server = self.server
        while True:
            item = await self.queue.get()
            if item is None:  # end-of-stream sentinel
                await self.engine.finish()
                return
            lid, payload = item
            ok = False
            try:
                # The queue depth behind this payload is the adaptive
                # controller's backpressure signal (ignored by fixed
                # engines).
                await self.engine.feed(lid, payload, self.queue.qsize())
                ok = True
            except TraceError as exc:
                raise _SessionError("protocol", str(exc), epoch=lid) from None
            finally:
                # Balance the pending-epoch gauge even when the feed
                # (or a cancellation) failed -- a leak here would
                # ratchet the shed rung's trigger over daemon lifetime.
                server.note_folded(self, ok)

    async def drain_queue(self) -> None:
        """Empty the queue: fold what is queued (shed/drain/timeout
        paths) up to the first failed feed -- the consumer's own failure
        included -- and discard the rest.

        Every item is counted out of the daemon's pending gauge whether
        or not it was folded; resume covers whatever was not.
        """
        fold = not self.consumer_failed()
        while not self.queue.empty():
            item = self.queue.get_nowait()
            if item is None:
                continue
            lid, payload = item
            ok = False
            try:
                if fold:
                    await self.engine.feed(lid, payload)
                    ok = True
            except Exception:
                fold = False  # later epochs would not be in order
            finally:
                self.server.note_folded(self, ok)

    async def save_checkpoint_now(self) -> None:
        """Force a durable snapshot regardless of ``checkpoint_every``
        (a flush of the shard's writer for this stream)."""
        if self.engine is None:
            return
        await self.engine.save_checkpoint()


class ReproServer:
    """The daemon: accept loop, sessions, shards, overload ladder."""

    def __init__(
        self, config: ServeConfig, recorder: Recorder = NULL_RECORDER
    ) -> None:
        # Refused here, once: each of these otherwise starts a daemon
        # that fails every stream with an ERROR frame of its own.
        for name in ("workers", "queue_depth", "max_streams",
                     "checkpoint_every"):
            if getattr(config, name) < 1:
                raise ReproError(
                    f"{name.replace('_', ' ')} must be >= 1: "
                    f"{getattr(config, name)}"
                )
        if config.slo is not None and config.queue_depth < 2:
            # The fold sees at most queue_depth - 1 rows waiting, and the
            # controller reads that many as a full queue: a depth of 1
            # would read every fold as a burst.
            raise ReproError(
                "adaptive epochs need queue depth >= 2: "
                f"{config.queue_depth}"
            )
        if config.max_pending_epochs < 0:
            raise ReproError(
                "max pending epochs must be >= 0: "
                f"{config.max_pending_epochs}"
            )
        if config.idle_timeout <= 0:
            raise ReproError(
                f"idle timeout must be > 0: {config.idle_timeout}"
            )
        for name in ("port", "metrics_port"):
            port = getattr(config, name)
            if port is not None and not 0 <= port <= 65535:
                raise ReproError(
                    f"{name.replace('_', ' ')} must be in 0..65535: {port}"
                )
        if config.shard_backend not in SHARD_BACKEND_CHOICES:
            raise ReproError(
                f"unknown shard backend {config.shard_backend!r} (choose "
                f"from {', '.join(SHARD_BACKEND_CHOICES)})"
            )
        self.config = config
        self.recorder = recorder
        self.sessions: Dict[str, StreamSession] = {}
        self.address: Optional[Tuple[str, Any]] = None
        self.metrics_address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._shards: List[Any] = []
        self._shard_depth = [0] * config.workers
        self._pending_epochs = 0
        self._accept_seq = 0
        self._draining = False
        self._done = asyncio.Event()
        self._conn_tasks: "set[asyncio.Task[None]]" = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        config = self.config
        if config.checkpoint_dir is not None:
            try:
                os.makedirs(config.checkpoint_dir, exist_ok=True)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot use checkpoint directory "
                    f"{config.checkpoint_dir}: {exc.strerror}"
                ) from exc
        shard = SHARD_BACKENDS[config.shard_backend]
        self._shards = [shard(i) for i in range(config.workers)]
        if self.recorder.enabled:
            self.recorder.gauge("serve.workers", config.workers)
            for i in range(config.workers):
                self.recorder.gauge(f"serve.shard_depth.{i}", 0)
        if config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=config.unix_path
            )
            self.address = ("unix", config.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._on_connect, host=config.host, port=config.port
            )
            sock = self._server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.address = ("tcp", (host, port))
        if config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_connect,
                host=config.host,
                port=config.metrics_port,
            )
            sock = self._metrics_server.sockets[0]
            host, port = sock.getsockname()[:2]
            self.metrics_address = (host, port)

    async def wait_done(self) -> None:
        """Block until a drain completes."""
        await self._done.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish queued epochs,
        checkpoint every in-flight stream, notify producers, stop."""
        if self._draining:
            await self._done.wait()
            return
        self._draining = True
        self.emit("drain", inflight=len(self.sessions))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for session in list(self.sessions.values()):
            session.request_stop("drain")
        # Stopped sessions unwind through their connection tasks (drain
        # queued epochs -> final checkpoint -> ERROR drain frame).
        while self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks))
        for shard in self._shards:
            shard.shutdown(wait=True)
        if (
            self.config.unix_path is not None
            and os.path.exists(self.config.unix_path)
        ):
            os.unlink(self.config.unix_path)
        self._done.set()

    # -- shards ---------------------------------------------------------

    def shard_index_for(self, stream_id: str) -> int:
        return zlib.crc32(stream_id.encode("utf-8")) % self.config.workers

    def shard_for(self, stream_id: str):
        return self._shards[self.shard_index_for(stream_id)]

    # -- counters (loop thread only; the recorder is not thread-safe) ---

    def count(self, name: str, delta: int = 1) -> None:
        if self.recorder.enabled:
            self.recorder.count(f"serve.{name}", delta)

    def emit(self, name: str, **fields: Any) -> None:
        """A stream lifecycle event, for the JSONL sink / audit trail."""
        if self.recorder.enabled:
            self.recorder.event(f"serve.{name}", **fields)

    def _gauge_active(self) -> None:
        if self.recorder.enabled:
            self.recorder.gauge("serve.streams_active", len(self.sessions))

    def note_queued(self, session: StreamSession) -> None:
        self._pending_epochs += 1
        self._shard_depth[session.shard_index] += 1
        self.count("epochs_received")
        if self.recorder.enabled:
            self.recorder.gauge("serve.pending_epochs", self._pending_epochs)
            self.recorder.gauge(
                f"serve.shard_depth.{session.shard_index}",
                self._shard_depth[session.shard_index],
            )
        if self._pending_epochs > self.config.max_pending_epochs:
            self._shed_newest()

    def note_folded(self, session: StreamSession, ok: bool = True) -> None:
        self._pending_epochs -= 1
        self._shard_depth[session.shard_index] -= 1
        if ok:
            self.count("epochs_folded")
        if self.recorder.enabled:
            self.recorder.gauge("serve.pending_epochs", self._pending_epochs)
            self.recorder.gauge(
                f"serve.shard_depth.{session.shard_index}",
                self._shard_depth[session.shard_index],
            )

    # -- overload ladder -------------------------------------------------

    def _shed_newest(self) -> None:
        """Second rung: evict the newest accepted stream (most progress
        still ahead of it, least sunk work).  It keeps its checkpoint
        and resume token, so shedding costs a reconnect, not the run."""
        victims = [
            s for s in self.sessions.values() if s.stopped is None
        ]
        if not victims:
            return
        victim = max(victims, key=lambda s: s.seq)
        victim.request_stop("shed")
        self.count("streams_shed")
        self.emit("shed", stream=victim.stream_id)

    # -- the metrics listener --------------------------------------------

    async def _on_metrics_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer any request with the current metrics snapshot.

        Deliberately not a web server: the request head is read (and
        discarded) only so well-behaved HTTP clients see a response to
        *their* bytes, then one snapshot is rendered -- on the loop
        thread, so the recorder needs no lock -- and the connection
        closes.  ``curl`` and Prometheus both cope.
        """
        try:
            try:
                await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=1.0
                )
            except Exception:
                pass  # a bare `nc` probe gets the snapshot too
            body = render_metrics(self.recorder).encode("utf-8")
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                + f"Content-Type: {CONTENT_TYPE}\r\n".encode("ascii")
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    # -- connections -----------------------------------------------------

    def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection end to end.  Every failure mode lands here and
        is contained here: the daemon survives anything a single
        connection does."""
        session: Optional[StreamSession] = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            await self._pump(session, reader)
            await self._complete(session)
        except _SessionError as exc:
            await self._fail_session(
                session, writer, exc.code, str(exc), **exc.fields
            )
        except (ProtocolError, asyncio.TimeoutError) as exc:
            code = (
                "timeout" if isinstance(exc, asyncio.TimeoutError)
                else "protocol"
            )
            message = (
                f"no frame within {self.config.idle_timeout}s"
                if isinstance(exc, asyncio.TimeoutError) else str(exc)
            )
            await self._fail_session(session, writer, code, message)
        except (ConnectionError, BrokenPipeError):
            # Clean-ish transport death (disconnect fault): checkpoint
            # what we have; the producer will be back with the token.
            await self._fail_session(session, writer, None, "disconnect")
        except Exception as exc:  # fault isolation: never unwind the loop
            await self._fail_session(
                session, writer, "internal",
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            if session is not None:
                self.sessions.pop(session.stream_id, None)
                self._gauge_active()
                if session.engine is not None:
                    await session.engine.close(session.completed)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[StreamSession]:
        frame = await read_frame(reader, self.config.idle_timeout)
        if frame is None:
            return None
        ftype, payload = frame
        if ftype != FRAME_HELLO:
            raise _SessionError(
                "protocol", "expected a HELLO frame first"
            )
        hello = validate_hello(decode_json_payload(ftype, payload))
        stream_id = hello["stream"]
        if self._draining:
            raise _SessionError(
                "drain", "daemon is draining; try another instance"
            )
        if len(self.sessions) >= self.config.max_streams:
            # Top rung: refuse outright, before any state is built.
            self.count("connects_refused")
            writer.write(encode_json_frame(FRAME_ERROR, error_payload(
                "busy",
                f"at the {self.config.max_streams}-stream cap; retry later",
            )))
            await writer.drain()
            return None
        if stream_id in self.sessions:
            raise _SessionError(
                "busy", f"stream {stream_id!r} is already connected"
            )
        token = resume_token(hello)
        if hello["token"] is not None and hello["token"] != token:
            raise _SessionError(
                "token",
                f"resume token {hello['token']!r} does not match this "
                f"stream's identity",
            )
        self._accept_seq += 1
        session = StreamSession(
            self, hello, token, writer, self._accept_seq
        )
        try:
            await session.open_engine()
        except CheckpointError as exc:
            raise _SessionError("token", str(exc)) from None
        self.sessions[stream_id] = session
        self.count("streams_accepted")
        self.emit(
            "accepted",
            stream=stream_id,
            resume_epoch=session.resume_epoch,
            epochs=hello["epochs"],
            lifeguard=hello["lifeguard"],
        )
        self._gauge_active()
        session.start_consumer()
        await session.send(FRAME_ACK, {
            "stream": stream_id,
            "resume_epoch": session.resume_epoch,
            "token": token,
        })
        return session

    async def _pump(
        self, session: StreamSession, reader: asyncio.StreamReader
    ) -> None:
        """The read loop: frames in, bounded queue out -- each ``EPOCH``
        payload queued as received, ``END`` as the sentinel."""
        config = self.config
        loop = asyncio.get_running_loop()
        stop = loop.create_task(session.stop_event.wait())
        try:
            while not session.ended:
                if session.stopped is None:
                    read = loop.create_task(
                        read_frame(reader, config.idle_timeout)
                    )
                    await asyncio.wait(
                        {read, stop}, return_when=asyncio.FIRST_COMPLETED
                    )
                    if not read.done():
                        await _cancel(read)
                        frame = None
                    else:
                        frame = read.result()  # re-raises read errors
                if session.stopped is not None:
                    raise session.stop_error()
                if frame is None:
                    raise ConnectionResetError("producer disconnected")
                ftype, payload = frame
                self.count("bytes_ingested", HEADER_SIZE + len(payload))
                if ftype == FRAME_EPOCH:
                    item: Optional[Tuple[int, bytes]] = (
                        session.next_epoch, payload
                    )
                elif ftype == FRAME_END:
                    session.handle_end(payload)
                    item = None
                else:
                    raise _SessionError(
                        "protocol",
                        f"unexpected frame type 0x{ftype:02x} mid-stream",
                    )
                if not await self._enqueue(session, item, stop):
                    raise session.stop_error()
                if item is not None:
                    session.next_epoch += 1
                    self.note_queued(session)
        finally:
            stop.cancel()

    async def _enqueue(
        self, session: StreamSession, item: Any, stop: "asyncio.Task[Any]"
    ) -> bool:
        """Queue ``item``; ``False`` if the session stopped first.

        A full queue blocks the read loop -- that *is* the backpressure;
        the stall is counted -- until the consumer takes an item or the
        session stops (a dead consumer never takes one again).
        """
        if not session.queue.full():
            session.queue.put_nowait(item)
            return True
        self.count("backpressure_stalls")
        put = asyncio.get_running_loop().create_task(session.queue.put(item))
        await asyncio.wait({put, stop}, return_when=asyncio.FIRST_COMPLETED)
        if put.done():
            return True
        await _cancel(put)
        return False

    async def _complete(self, session: StreamSession) -> None:
        """END queued: wait for the fold to finish, send the REPORT."""
        await asyncio.wait({session.consumer})
        if session.consumer_failed():
            raise session.consumer_error()
        report, flags = await session.engine.report(
            session.stream_id, session.hello
        )
        await session.send_frame(report)
        # The run is complete: closing the engine deletes its checkpoint
        # on the shard, off this loop.
        session.completed = True
        self.count("streams_completed")
        self.emit(
            "completed",
            stream=session.stream_id,
            epochs=session.next_epoch,
            flags=flags,
        )

    async def _fail_session(
        self,
        session: Optional[StreamSession],
        writer: asyncio.StreamWriter,
        code: Optional[str],
        message: str,
        **fields: Any,
    ) -> None:
        """Contain one session's failure: stop its consumer, fold what
        is queued (discard it when the fold itself failed), flush a
        checkpoint at the epoch boundary, tell the producer (when the
        socket still works), and count it."""
        if session is not None:
            self.count("streams_failed")
            self.emit(
                "failed",
                stream=session.stream_id,
                code=code or "disconnect",
                epoch=session.next_epoch,
            )
            if session.consumer is not None:
                await _cancel(session.consumer)
            try:
                await session.drain_queue()
                await session.save_checkpoint_now()
            except Exception:
                # A failed final checkpoint degrades resume to the last
                # periodic snapshot; it must not mask the error path.
                pass
        if code is not None:
            payload = error_payload(code, message, **fields)
            if session is not None:
                payload.setdefault("token", session.token)
                payload.setdefault(
                    "resume_epoch",
                    session.engine.next_to_receive
                    if session.engine is not None else 0,
                )
            try:
                writer.write(encode_json_frame(FRAME_ERROR, payload))
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass


class ServerThread:
    """A daemon on a background thread, for tests and in-process use.

    The event loop (sockets, sessions, recorder) runs entirely on the
    background thread; :meth:`stop` requests a drain from the caller's
    thread and joins.  Context-manager form guarantees the join.
    """

    def __init__(
        self, config: ServeConfig, recorder: Recorder = NULL_RECORDER
    ) -> None:
        self.server = ReproServer(config, recorder)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def address(self) -> Tuple[str, Any]:
        return self.server.address

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_done()

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(), self._loop
        )
        future.result(timeout=60)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
