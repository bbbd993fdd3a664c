"""Shard backends for the serve daemon: thread shards and process shards.

A *shard* is the unit of analysis concurrency in ``repro serve``:
streams hash onto shards, every ``feed``/``finish``/checkpoint call for
a stream runs on its shard, and streams on different shards make
progress independently.  A shard is a table of engines plus one
checkpoint writer (:class:`_ShardTable`), driven by one command
dispatcher (open, feed, finish, report, checkpoint, close) on the
shard's single dispatch thread.

``feed`` takes an ``EPOCH`` payload as it came off the wire: the shard
decodes it (:func:`~repro.trace.serialize.decode_epoch_text`, the file
reader's function) and folds the row, so decode runs beside the fold
and a malformed record fails as that feed.  Each per-epoch checkpoint
is pickled on the fold, at the epoch boundary, into a temp file; the
shard's :class:`~repro.resilience.checkpoint.CheckpointWriter` thread
does the ``fsync`` and rename off the fold path, latest-wins per
stream.  A forced save (``checkpoint``) is a flush and ``report``
discards the stream's uncommitted snapshot, so neither an ``ERROR``
frame's resume epoch nor a finished stream's deleted checkpoint can be
overtaken by a late commit.

The two shard kinds differ only in where the table lives:

``thread`` (the default)
    The table lives in the daemon process and the dispatch thread runs
    the commands itself -- a process shard without the pipe.
    Concurrency is bounded by the GIL, which is fine when streams are
    I/O-bound or few.

``process``
    One long-lived worker *process* per shard, owning its streams'
    :class:`~repro.core.framework.ButterflyEngine` objects and its
    checkpoint writer.  The event loop ships each ``EPOCH`` payload over
    a ``multiprocessing`` pipe in the bytes it arrived in -- wire and
    pipe carry one message shape -- and gets back folded-epoch acks,
    end-of-stream reports, and checkpoint confirmations.  Decode and
    analysis then run on real cores while the loop process keeps owning
    sockets, framing, queues, backpressure, and the recorder.

The event loop drives either kind through one per-stream
:class:`StreamHandle`, so semantics cannot differ: engines are built
(or restored from the same on-disk checkpoints) by
:func:`build_stream_engine` on the shard, never on the loop; feeds are
atomic at epoch boundaries; and the end-of-stream report is produced by
the same :func:`~repro.serve.protocol.build_report` either way -- which
is what lets the serve fuzz mode and the SIGKILL-resume drills assert
bit-identical reports across shard backends.

Worker lifetime is tied to the pipe: a worker blocks in ``recv`` and
exits on ``EOFError``, so a SIGKILLed daemon leaves no orphaned
analysis processes -- the dying parent's pipe end closes and every
worker unwinds.  A worker that dies on its own (or is killed) is
respawned on the next call; engines it held are rebuilt from their
checkpoints when the producers reconnect with their resume tokens.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.core.epoch import EpochController, SloConfig
from repro.core.framework import ButterflyEngine
from repro.core.stream import EpochSource
from repro.errors import (
    AnalysisError,
    CheckpointError,
    ReproError,
    TraceError,
)
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.racecheck import ButterflyRaceCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.resilience.checkpoint import (
    Checkpointer,
    CheckpointWriter,
    discard_temps,
    load_checkpoint,
)
from repro.serve.protocol import build_report, checkpoint_meta
from repro.trace.serialize import decode_epoch_text


def make_guard(lifeguard: str, preallocated, **ablation: Any) -> Any:
    """Lifeguard factory shared by the daemon, workers, offline CLI and
    the differential harness (the only caller passing ``ablation``:
    constructor arguments such as a forced kernel or a precision knob)."""
    if lifeguard == "addrcheck":
        return ButterflyAddrCheck(initially_allocated=preallocated, **ablation)
    if lifeguard == "taintcheck":
        return ButterflyTaintCheck(**ablation)
    if lifeguard == "race":
        return ButterflyRaceCheck(**ablation)
    raise ReproError(f"unknown lifeguard {lifeguard!r}")


def stream_checkpoint_path(
    checkpoint_dir: Optional[str], token: str
) -> Optional[str]:
    """Where a stream's checkpoint lives (``None`` disables resume)."""
    if checkpoint_dir is None:
        return None
    return os.path.join(checkpoint_dir, f"{token}.ckpt")


class _ShardStream:
    """A shard's record of one stream: its engine, what decoding its
    ``EPOCH`` payloads needs, and its checkpoint path."""

    __slots__ = ("engine", "stream_id", "threads", "path")

    def __init__(self, engine: ButterflyEngine, hello: Dict[str, Any],
                 path: Optional[str]) -> None:
        self.engine = engine
        self.stream_id: str = hello["stream"]
        self.threads: int = hello["threads"]
        self.path = path


def _feed_row(stream: _ShardStream, lid: int, payload: bytes,
              queue_depth: int) -> int:
    """One feed on the shard side: decode epoch ``lid``'s ``EPOCH``
    payload and fold it.  Returns the post-feed resume position (the
    loop-side mirror tracks rollbacks exactly)."""
    row = decode_epoch_text(
        payload, lid, stream.threads, stream.stream_id, lid + 2
    )
    engine = stream.engine
    engine.note_queue_depth(queue_depth)
    engine.feed_blocks(lid, row)
    return engine.resume_position


def build_stream_engine(
    hello: Dict[str, Any],
    token: str,
    checkpoint_dir: Optional[str],
    checkpoint_every: int,
    backend: str,
    slo: Optional[SloConfig] = None,
    writer: Optional[CheckpointWriter] = None,
) -> Tuple[ButterflyEngine, int]:
    """``(engine, resume_epoch)``: fresh, or restored from checkpoint.

    The one engine-construction path for both shard backends -- the
    ``open`` command runs it wherever the shard keeps its engines -- so
    resume semantics (fingerprint verification, window restore,
    event-log numbering) cannot drift between them.  Opening a stream
    first settles ``writer``'s commits for it and removes the temp files
    of saves that never committed, so no stale snapshot outlives it.
    With a ``writer`` the per-epoch saves commit on it; without one
    they commit inline.

    ``slo`` (``ServeConfig.slo``; the frozen dataclass crosses a
    process shard's pipe as it is) gives the engine an
    :class:`~repro.core.epoch.EpochController` holding it, so it
    coalesces producer rows into larger analysis epochs; ``None`` means
    fixed producer-sized epochs.  Either way the caller
    feeds -- and the returned resume epoch counts -- producer rows.  A
    checkpoint written by the other mode is refused: the two runs do
    not share analysis-epoch coordinates.
    """
    path = stream_checkpoint_path(checkpoint_dir, token)
    meta = checkpoint_meta(hello, token)
    checkpoint = None
    if path is not None:
        if writer is not None:
            writer.settle(path)
        discard_temps(path)
    if path is not None and os.path.exists(path):
        checkpoint = load_checkpoint(path)
        checkpoint.verify(meta)
        if checkpoint.adaptive != (slo is not None):
            raise CheckpointError(
                f"checkpoint for stream {hello['stream']!r} was written "
                f"by an {'adaptive' if checkpoint.adaptive else 'fixed'}"
                f"-epoch daemon but this one is "
                f"{'adaptive' if slo is not None else 'fixed'}; "
                f"restart the daemon in the matching mode or delete the "
                f"checkpoint"
            )
    if checkpoint is not None:
        guard = checkpoint.analysis
    else:
        guard = make_guard(hello["lifeguard"], hello["preallocated"])
    controller = EpochController(slo) if slo is not None else None
    engine = ButterflyEngine(guard, backend=backend, controller=controller)
    engine.attach_source(
        EpochSource(hello["threads"], hello["epochs"], hello["preallocated"]),
        checkpoint,
    )
    if path is not None:
        engine.enable_checkpoints(
            Checkpointer(path, meta, every=checkpoint_every, writer=writer)
        )
    return engine, engine.resume_position


# -- the shard surface ------------------------------------------------------


class _ShardTable:
    """One shard's streams and checkpoint writer, and the command
    dispatcher over them.  Only the shard's dispatch thread calls
    :meth:`dispatch`."""

    def __init__(self, index: int) -> None:
        self.streams: Dict[str, _ShardStream] = {}
        self.writer = CheckpointWriter(f"repro-checkpoint-writer-{index}")

    def dispatch(self, command: str, *args: Any) -> Any:
        """Execute one command against the table."""
        if command == "open":
            token, hello, checkpoint_dir, checkpoint_every, backend, slo = args
            stale = self.streams.pop(token, None)
            if stale is not None:
                stale.engine.close()
            engine, resume_epoch = build_stream_engine(
                hello, token, checkpoint_dir, checkpoint_every, backend, slo,
                writer=self.writer,
            )
            self.streams[token] = _ShardStream(
                engine, hello, stream_checkpoint_path(checkpoint_dir, token)
            )
            return resume_epoch
        token = args[0]
        stream = self.streams.get(token)
        if stream is None:
            # A process shard's worker was respawned after a crash and
            # lost this engine; the session fails (resumably -- the
            # checkpoint is on disk).
            raise AnalysisError(
                f"shard worker holds no engine for token {token!r} "
                f"(worker restarted?); reconnect to resume"
            )
        engine, path = stream.engine, stream.path
        if command == "checkpoint":
            # A flush: what is on disk afterwards is what the ERROR names.
            return engine.checkpoint_now()
        if command == "close":
            engine.close()
            del self.streams[token]
            if path is not None:
                self.writer.failure(path)  # nobody is left to tell
            return None
        if path is not None:
            # report waits for the stream's last commit, so a late
            # rename cannot resurrect the checkpoint of a finished run.
            failure = (
                self.writer.settle(path) if command == "report"
                else self.writer.failure(path)
            )
            if failure is not None:
                raise failure
        if command == "feed":
            _token, lid, payload, queue_depth = args
            return _feed_row(stream, lid, payload, queue_depth)
        if command == "finish":
            engine.finish()
            return None
        if command == "report":
            _token, stream_id, hello = args
            return build_report(stream_id, hello, engine, engine.analysis)
        raise ReproError(f"unknown shard command {command!r}")

    def close(self) -> None:
        """Close every engine, then commit what is pending and stop the
        writer."""
        for stream in self.streams.values():
            stream.engine.close()
        self.streams.clear()
        self.writer.close()


class StreamHandle:
    """One stream's engine as seen from the event loop.

    The server never touches a :class:`ButterflyEngine` directly; it
    drives this handle, which names the engine by its token in its
    shard's table.  Every coroutine is one shard command, run off the
    loop on the shard's single dispatch thread, so per-stream epoch
    order and per-shard serialization hold identically across backends.
    """

    def __init__(self, shard: "_Shard", token: str, resume_epoch: int) -> None:
        self._shard = shard
        self._token = token
        #: The epoch the engine resumed from (0 for a fresh run).
        self.resume_epoch = resume_epoch
        #: Mirror of the engine's ``resume_position`` (producer rows) --
        #: the coordinate ``ACK``/``ERROR`` frames advertise.
        self.next_to_receive = resume_epoch
        self._closed = False

    async def feed(self, lid: int, payload: bytes,
                   queue_depth: int = 0) -> None:
        """Decode and fold epoch ``lid``'s ``EPOCH`` payload (a
        malformed one raises :class:`~repro.errors.TraceError`).
        ``queue_depth`` is the number of payloads still queued behind
        this one -- the adaptive controller's backpressure signal; fixed
        engines ignore it."""
        # The reply carries the engine's post-feed progress, so the
        # loop-side mirror tracks rollbacks exactly: a failed feed
        # raises and leaves next_to_receive at the epoch boundary.
        self.next_to_receive = await self._shard.call(
            "feed", self._token, lid, payload, queue_depth
        )

    async def finish(self) -> None:
        await self._shard.call("finish", self._token)

    async def report(self, stream_id: str, hello: Dict[str, Any]) -> Dict:
        return await self._shard.call(
            "report", self._token, stream_id, hello
        )

    async def save_checkpoint(self) -> None:
        """Force a durable snapshot now (no-op when checkpointing is
        off); the mirror then names exactly the epoch it holds."""
        self.next_to_receive = await self._shard.call(
            "checkpoint", self._token
        )

    async def close(self) -> None:
        """Release the engine's resources (never raises)."""
        if self._closed:
            return
        self._closed = True
        try:
            await self._shard.call("close", self._token)
        except Exception:
            # A dead worker (or a shard already shut down) has nothing
            # to close; resume covers it.
            pass


class _Shard:
    """What the two shard kinds share: one dispatch thread, on which
    :meth:`_call` runs each command to completion before the next."""

    backend = "abstract"

    def __init__(self, index: int) -> None:
        self.index = index
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )

    def _call(self, command: str, *args: Any) -> Any:
        """Run one :meth:`_ShardTable.dispatch` command (dispatch
        thread)."""
        raise NotImplementedError

    async def call(self, command: str, *args: Any) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._call, command, *args
        )

    async def open_stream(
        self, hello: Dict[str, Any], token: str, config
    ) -> StreamHandle:
        """Build (or restore) the stream's engine on the shard; it must
        finish before the ACK names the resume epoch."""
        resume_epoch = await self.call(
            "open",
            token,
            hello,
            config.checkpoint_dir,
            config.checkpoint_every,
            # Serial per stream: cross-stream parallelism comes from
            # the shards.
            "serial",
            config.slo,
        )
        return StreamHandle(self, token, resume_epoch)


class ThreadShard(_Shard):
    """A shard whose engine table lives in the daemon process: the
    dispatch thread runs the commands itself."""

    backend = "thread"

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self._table = _ShardTable(index)

    def _call(self, command: str, *args: Any) -> Any:
        return self._table.dispatch(command, *args)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
        self._table.close()


# -- process shards ----------------------------------------------------------

#: The exception types a worker reply may name, most specific first: a
#: worker replies with the first kind its exception is an instance of
#: ("other" for none), and the dispatch thread raises that type again --
#: the types the server's session error paths dispatch on.
_ERROR_KINDS = (
    ("checkpoint", CheckpointError),
    ("trace", TraceError),
    ("analysis", AnalysisError),
    ("repro", ReproError),
)


def _shard_worker_main(conn, index: int) -> None:
    """The worker process: serve pipe commands until EOF or ``stop``.

    EOF is the parent-death signal: when the daemon dies -- SIGKILL
    included -- its pipe end closes and the blocking ``recv`` raises
    ``EOFError``, so workers can never outlive the daemon.
    """
    table = _ShardTable(index)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            command = message[0]
            if command == "stop":
                break
            try:
                result = table.dispatch(*message)
            except BaseException as exc:  # contained: reply, keep serving
                kind = next((name for name, error in _ERROR_KINDS
                             if isinstance(exc, error)), "other")
                reply = ("err", kind, f"{exc}")
            else:
                reply = ("ok", None, result)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        table.close()
        try:
            conn.close()
        except OSError:
            pass


class ProcessShard(_Shard):
    """A shard whose engines live in a long-lived worker process.

    The dispatch thread serializes pipe access (send a command, block
    for the reply), preserving exactly the ordering the thread shard's
    in-process dispatch gives.  The worker is spawned lazily on first
    use -- a daemon with many shards but few streams pays only for the
    workers it routes to -- and respawned if found dead, with lost
    engines rebuilt from checkpoints on reconnect.
    """

    backend = "process"

    #: Seconds to wait for a worker to exit on shutdown before
    #: escalating to terminate().
    JOIN_TIMEOUT = 10.0

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self._ctx = multiprocessing.get_context("spawn")
        self._proc = None
        self._conn = None

    def _ensure_worker(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self._discard_worker()
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self.index),
            name=f"repro-shard-worker-{self.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker owns its end now
        self._proc, self._conn = proc, parent_conn

    def _discard_worker(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(self.JOIN_TIMEOUT)
        self._proc = None
        self._conn = None

    def _call(self, command: str, *args: Any) -> Any:
        self._ensure_worker()
        try:
            self._conn.send((command, *args))
            status, kind, value = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            # The worker died mid-call.  Drop it so the next call gets
            # a fresh one; this stream's session fails resumably.
            self._discard_worker()
            raise ReproError(
                f"shard {self.index} worker died during {command!r}: "
                f"{type(exc).__name__}"
            ) from None
        if status == "ok":
            return value
        raise dict(_ERROR_KINDS).get(kind, ReproError)(value)

    def _stop_worker(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        if self._proc is not None:
            self._proc.join(self.JOIN_TIMEOUT)
            if self._proc.is_alive():  # pragma: no cover - stuck worker
                self._proc.terminate()
                self._proc.join(self.JOIN_TIMEOUT)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._proc = None
        self._conn = None

    def shutdown(self, wait: bool = True) -> None:
        if wait:
            self._executor.submit(self._stop_worker).result()
            self._executor.shutdown(wait=True)
        else:  # pragma: no cover - only the wait path is exercised
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._discard_worker()


#: Shard kinds by ``ServeConfig.shard_backend`` (and CLI) name;
#: ``ReproServer`` refuses any other name.
SHARD_BACKENDS = {"thread": ThreadShard, "process": ProcessShard}
SHARD_BACKEND_CHOICES = tuple(SHARD_BACKENDS)
