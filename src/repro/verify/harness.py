"""The differential harness: every execution mode must agree.

Ten mode pairs (:data:`MODE_NAMES`), each an independent equivalence
the paper (or this codebase's own contracts) promises:

``orderings``
    Butterfly lifeguard vs. the sequential lifeguard over *every*
    enumerated valid ordering -- the zero-false-negative invariant
    (Theorems 6.1/6.2).  Exponential, so it only runs on cases whose
    instruction count fits ``oracle_budget``.
``optref``
    Optimized (scanner/bitset) AddrCheck vs. the per-instruction
    reference implementation: bit-identical error reports.  TaintCheck
    pairs the precise configurations against their conservative
    ablations (sc vs. relaxed, two-phase vs. whole-window): the precise
    side must never flag something the conservative side misses.
``backends``
    Serial vs. threads execution: identical errors, stats, and
    normalized event logs (the ordered-commit determinism contract).
``faults``
    Supervised execution under deterministic crash/corrupt injection
    vs. a fault-free serial run: identical errors and stats (the
    resilience layer's exactly-once contract).
``resume``
    Checkpoint at an epoch boundary, abandon, resume -- vs. an
    uninterrupted run: identical errors, stats, and the truncated
    interrupted log + resumed log must equal the uninterrupted log
    after normalization.
``stream``
    The bounded-memory streaming pipeline vs. the materialized run:
    the case is round-tripped through an epoch-major (version 2)
    stream file and fed to the engine one epoch at a time; errors,
    stats, and normalized event logs must be bit-identical, and the
    engine's resident window must respect the three-epoch bound.
``columnar``
    Columnar-backed blocks -- and the vectorized scan kernels both
    AddrCheck and TaintCheck select on them -- vs. object-backed
    blocks with the per-``Instr`` kernel forced, on serial and
    concurrent backends: errors, stats and normalized event logs must
    be bit-identical.  This doubles as a losslessness proof of the
    columnar round trip, since the object side materializes
    ``block.instrs`` from the columns.
``serve``
    The ``repro serve`` daemon vs. the offline streaming pipeline: the
    case is written as a version 2 stream file, pushed over a Unix
    socket to a shared in-process daemon, and the daemon's end-of-
    stream report (errors, work counters, window peak) must be
    bit-identical to what ``run_source`` computes over the same file.
``serve_process``
    The same proof against a daemon running process shards
    (``shard_backend="process"``): the engine lives in a worker
    process and every epoch crosses a pipe as raw column bytes, and
    the report must still match the offline pipeline bit for bit.
    The transport, framing, queueing, and shard hand-off must be
    invisible in every output.
``adaptive``
    An adaptive-epoch daemon (fold factor pinned at 3) vs. an offline
    replay of the boundary stream its REPORT recorded: the engine's
    online coalescing is only trustworthy if re-cutting the same trace
    at the recorded boundaries (``ExplicitHeartbeat``) reproduces the
    report bit for bit.

Each check returns ``None`` on agreement (or when inapplicable) and a
human-readable diagnosis string on disagreement; the diagnosis string
doubles as the shrinker's predicate signal.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarBlock
from repro.core.epoch import Block, EpochPartition, partition_from_boundaries
from repro.core.framework import ButterflyEngine
from repro.core.ordering import all_valid_orderings
from repro.core.stream import EpochSource
from repro.errors import ReproError, ResilienceError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.sequential import true_errors_under_any_ordering
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.obs.recorder import NULL_RECORDER, Recorder, normalize_events
from repro.resilience.checkpoint import Checkpointer, load_checkpoint
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import RetryPolicy, SupervisedBackend
from repro.serve import (
    ServeConfig,
    ServerThread,
    build_report,
    make_guard,
    make_hello,
    push_trace,
)
from repro.trace.serialize import iter_load, save_stream_file, stream_header
from repro.verify.generator import TraceCase

#: The full mode-pair matrix, in the order ``repro fuzz`` reports it.
MODE_NAMES = (
    "orderings",
    "optref",
    "backends",
    "faults",
    "resume",
    "stream",
    "columnar",
    "serve",
    "serve_process",
    "adaptive",
)


class _ColumnarCaseSource(EpochSource):
    """A case's partition re-backed by columnar blocks, as a source."""

    def __init__(self, partition: EpochPartition) -> None:
        self._partition = partition

    @property
    def num_threads(self) -> int:
        return self._partition.num_threads

    @property
    def num_epochs(self) -> int:
        return self._partition.num_epochs

    @property
    def preallocated(self) -> frozenset:
        return frozenset(self._partition.program.preallocated)

    def epochs(self, start: int = 0):
        for lid in range(start, self._partition.num_epochs):
            yield [
                Block(
                    b.lid, b.tid, b.start,
                    columns=ColumnarBlock.from_instrs(b.instrs),
                )
                for b in self._partition.epoch_blocks(lid)
            ]


class Disagreement:
    """One surviving difference between two modes on one case."""

    def __init__(self, mode: str, case: TraceCase, detail: str) -> None:
        self.mode = mode
        self.case = case
        self.detail = detail

    def __repr__(self) -> str:
        return f"Disagreement(mode={self.mode!r}, detail={self.detail!r})"


def _guards_for(case: TraceCase, **kwargs):
    if case.lifeguard == "addrcheck":
        return ButterflyAddrCheck(
            initially_allocated=case.preallocated, **kwargs
        )
    return ButterflyTaintCheck(**kwargs)


def _run(
    case: TraceCase,
    guard,
    backend="serial",
    recorder: Recorder = NULL_RECORDER,
):
    partition = case.partition()
    engine = ButterflyEngine(guard, backend=backend, recorder=recorder)
    try:
        engine.run(partition)
    finally:
        engine.close()
    return engine, partition


def _identities(guard) -> List[Tuple]:
    return [r.identity() for r in guard.errors]


def _flag_sets(partition, guard):
    """(ref, loc) flags plus block-granularity flagged locations."""
    flags = set()
    block_locs = set()
    for r in guard.errors:
        if r.ref is not None:
            flags.add((r.ref, r.location))
        if r.block is not None:
            block_locs.add(r.location)
    return flags, block_locs


class DifferentialHarness:
    """Runs a :class:`TraceCase` through the mode-pair matrix."""

    def __init__(
        self,
        modes: Sequence[str] = MODE_NAMES,
        oracle_budget: int = 9,
        backend: str = "threads",
    ) -> None:
        unknown = [m for m in modes if m not in MODE_NAMES]
        if unknown:
            raise ValueError(
                f"unknown mode(s) {unknown}; choose from {MODE_NAMES}"
            )
        self.modes = tuple(modes)
        self.oracle_budget = oracle_budget
        self.backend = backend
        #: mode -> number of cases actually checked.
        self.checks_run: Dict[str, int] = {m: 0 for m in MODE_NAMES}
        #: mode -> number of cases skipped as inapplicable.
        self.skipped: Dict[str, int] = {m: 0 for m in MODE_NAMES}
        # The serve pairs' shared in-process daemons (one per shard
        # backend), created lazily on first use, torn down by close().
        self._serve_daemons: Dict[str, Any] = {}
        self._serve_dir: Optional[tempfile.TemporaryDirectory] = None
        self._serve_seq = 0

    def close(self) -> None:
        """Tear down the shared serve daemons (idempotent)."""
        for daemon in self._serve_daemons.values():
            daemon.stop()
        self._serve_daemons.clear()
        if self._serve_dir is not None:
            self._serve_dir.cleanup()
            self._serve_dir = None

    def __enter__(self) -> "DifferentialHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- driving --------------------------------------------------------

    def run_case(self, case: TraceCase) -> List[Disagreement]:
        out = []
        for mode in self.modes:
            detail = self.check(case, mode)
            if detail is not None:
                out.append(Disagreement(mode, case, detail))
        return out

    def check(self, case: TraceCase, mode: str) -> Optional[str]:
        """Run one mode pair; ``None`` means agreement or inapplicable."""
        checker = getattr(self, f"check_{mode}")
        detail = checker(case)
        if detail is _SKIPPED:
            self.skipped[mode] += 1
            return None
        self.checks_run[mode] += 1
        return detail

    # -- mode pairs -----------------------------------------------------

    def check_orderings(self, case: TraceCase) -> Optional[str]:
        """Zero false negatives over every enumerated valid ordering.

        The oracle side runs through the prefix-memoized enumerator
        (consecutive orderings replay only their divergent suffix), so
        the exponential sweep stays off the fuzz campaign's critical
        path.
        """
        if case.total_instructions > self.oracle_budget:
            return _SKIPPED
        partition = case.partition()
        truth = true_errors_under_any_ordering(
            None,
            all_valid_orderings(partition),
            lifeguard=case.lifeguard,
            preallocated=case.preallocated,
            instr_of=partition.instr,
        )
        oracle = {
            (partition.global_ref_of(r.ref), r.location)
            for r in truth.values()
        }
        # Exact per-event coverage needs the idempotent filter off; the
        # filtered variant still must cover every erroneous location.
        precise = (
            {"use_idempotent_filter": False}
            if case.lifeguard == "addrcheck"
            else {}
        )
        guard = _guards_for(case, **precise)
        _run(case, guard)
        flags, block_locs = _flag_sets(partition, guard)
        for ref, loc in sorted(oracle):
            if (ref, loc) not in flags and loc not in block_locs:
                return (
                    f"butterfly missed an error the sequential lifeguard "
                    f"reports under some valid ordering: ref={ref} loc={loc}"
                )
        if case.lifeguard == "addrcheck":
            filtered = _guards_for(case)
            _run(case, filtered)
            f_flags, f_blocks = _flag_sets(partition, filtered)
            flagged_locs = {loc for _, loc in f_flags} | f_blocks
            for ref, loc in sorted(oracle):
                if loc not in flagged_locs:
                    return (
                        f"idempotent-filtered butterfly missed every flag "
                        f"for erroneous location {loc} (oracle ref {ref})"
                    )
        return None

    def check_optref(self, case: TraceCase) -> Optional[str]:
        """Optimized vs. reference / precise vs. conservative ablation."""
        if case.lifeguard == "addrcheck":
            opt = _guards_for(case, optimized=True)
            ref = _guards_for(case, optimized=False)
            _run(case, opt)
            _run(case, ref)
            a, b = _identities(opt), _identities(ref)
            if a != b:
                return (
                    f"optimized AddrCheck reported {len(a)} error(s), "
                    f"reference reported {len(b)}; first diff: "
                    f"{_first_diff(a, b)}"
                )
            return None
        # TaintCheck: the precise configuration must never flag an event
        # its conservative ablation misses (precision only ever removes
        # false positives, never adds flags).
        partition = case.partition()
        for precise_kw, loose_kw, name in (
            ({"mode": "sc"}, {"mode": "relaxed"}, "sc vs relaxed"),
            ({"two_phase": True}, {"two_phase": False},
             "two-phase vs whole-window"),
        ):
            precise = _guards_for(case, **precise_kw)
            loose = _guards_for(case, **loose_kw)
            _run(case, precise)
            _run(case, loose)
            p_flags, p_blocks = _flag_sets(partition, precise)
            l_flags, l_blocks = _flag_sets(partition, loose)
            extra = {
                (ref, loc)
                for ref, loc in p_flags
                if (ref, loc) not in l_flags and loc not in l_blocks
            }
            if extra:
                return (
                    f"TaintCheck precision inversion ({name}): precise "
                    f"config flagged {sorted(extra)} which the "
                    f"conservative config missed"
                )
        return None

    def check_backends(self, case: TraceCase) -> Optional[str]:
        """Serial vs. concurrent backend: bit-identical results."""
        runs = {}
        for backend in ("serial", self.backend):
            guard = _guards_for(case)
            rec = Recorder()
            engine, _ = _run(case, guard, backend=backend, recorder=rec)
            runs[backend] = (
                _identities(guard),
                engine.stats,
                normalize_events(rec.events),
            )
        serial, concurrent = runs["serial"], runs[self.backend]
        if serial[0] != concurrent[0]:
            return (
                f"backend divergence in errors: serial={len(serial[0])} "
                f"{self.backend}={len(concurrent[0])}; first diff: "
                f"{_first_diff(serial[0], concurrent[0])}"
            )
        if serial[1] != concurrent[1]:
            return (
                f"backend divergence in stats: serial={serial[1]} "
                f"{self.backend}={concurrent[1]}"
            )
        if serial[2] != concurrent[2]:
            return (
                "backend divergence in normalized event logs: "
                f"{_first_diff(serial[2], concurrent[2])}"
            )
        return None

    def check_faults(self, case: TraceCase) -> Optional[str]:
        """Fault-injected supervised run vs. fault-free serial run."""
        clean = _guards_for(case)
        clean_engine, _ = _run(case, clean)
        # Every case carries the same campaign seed, so seeding the
        # fault plan from it alone would roll identical fault dice for
        # every trial; digest the case content so each trial sees its
        # own crash/corrupt pattern (deterministically replayable).
        fault_seed = zlib.crc32(
            json.dumps(case.to_json(), sort_keys=True).encode()
        )
        plan = FaultPlan(crash=0.2, corrupt=0.2, seed=fault_seed)
        backend = SupervisedBackend(
            self.backend,
            # Zero backoff: retry delays protect production pools, but
            # here they only throttle the fuzz campaign's trial rate.
            policy=RetryPolicy(
                max_retries=4, task_timeout=10.0,
                backoff_base=0.0, backoff_max=0.0,
            ),
            plan=plan,
        )
        faulted = _guards_for(case)
        try:
            faulted_engine, _ = _run(case, faulted, backend=backend)
        except ResilienceError:
            # The injected faults exhausted the retry budget and the
            # supervisor gave up -- its documented contract, not a
            # divergence.  The pair is inapplicable for this case.
            return _SKIPPED
        finally:
            backend.close()
        if _identities(clean) != _identities(faulted):
            return (
                "fault-injected run diverged in errors: "
                f"{_first_diff(_identities(clean), _identities(faulted))}"
            )
        if clean_engine.stats != faulted_engine.stats:
            return (
                f"fault-injected run diverged in stats: "
                f"clean={clean_engine.stats} faulted={faulted_engine.stats}"
            )
        return None

    def check_resume(self, case: TraceCase) -> Optional[str]:
        """Checkpoint/abandon/resume vs. uninterrupted, including logs."""
        partition = case.partition()
        num_epochs = partition.num_epochs
        if num_epochs < 2:
            return _SKIPPED
        stop_after = max(1, num_epochs // 2)
        every = 2 if num_epochs >= 4 else 1

        # Uninterrupted reference run.
        full_guard = _guards_for(case)
        full_rec = Recorder()
        full_engine, _ = _run(case, full_guard, recorder=full_rec)

        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            path = os.path.join(tmp, "run.ckpt")
            # Interrupted run: feed through epoch ``stop_after``, then
            # abandon (the CLI's --stop-after-epoch drill, in-process).
            stopped_guard = _guards_for(case)
            stopped_rec = Recorder()
            engine = ButterflyEngine(stopped_guard, recorder=stopped_rec)
            engine.enable_checkpoints(Checkpointer(path, every=every))
            try:
                engine.attach(partition)
                for lid in range(stop_after + 1):
                    engine.feed_epoch(lid)
            finally:
                engine.close()
            if not os.path.exists(path):
                return _SKIPPED  # no epoch committed before the stop
            checkpoint = load_checkpoint(path)
            boundary = checkpoint.events_emitted
            prefix = [
                e for e in stopped_rec.events if e["seq"] <= boundary
            ]

            # Resumed run around the checkpointed analysis.
            resumed_guard = checkpoint.analysis
            resumed_rec = Recorder()
            engine = ButterflyEngine(resumed_guard, recorder=resumed_rec)
            try:
                engine.attach(partition, resumed=True)
                checkpoint.restore_into(engine)
                for lid in range(checkpoint.next_epoch, num_epochs):
                    engine.feed_epoch(lid)
                engine.finish()
                resumed_stats = engine.stats
            finally:
                engine.close()

        if _identities(full_guard) != _identities(resumed_guard):
            return (
                "resumed run diverged in errors: "
                f"{_first_diff(_identities(full_guard), _identities(resumed_guard))}"
            )
        if full_engine.stats != resumed_stats:
            return (
                f"resumed run diverged in stats: full={full_engine.stats} "
                f"resumed={resumed_stats}"
            )
        stitched = normalize_events(prefix + resumed_rec.events)
        reference = normalize_events(full_rec.events)
        if stitched != reference:
            return (
                "resumed event log is not the suffix of the uninterrupted "
                f"log: stitched has {len(stitched)} events, uninterrupted "
                f"has {len(reference)}; first diff: "
                f"{_first_diff(stitched, reference)}"
            )
        return None

    def check_stream(self, case: TraceCase) -> Optional[str]:
        """Stream-vs-materialized: the bounded-memory pipeline must be
        invisible in every output."""
        mat_guard = _guards_for(case)
        mat_rec = Recorder()
        mat_engine, _ = _run(case, mat_guard, recorder=mat_rec)

        stream_guard = _guards_for(case)
        stream_rec = Recorder()
        engine = ButterflyEngine(stream_guard, recorder=stream_rec)
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            path = os.path.join(tmp, "case.stream.jsonl")
            save_stream_file(case.partition(), path)
            try:
                engine.run_source(iter_load(path))
            finally:
                engine.close()

        if _identities(mat_guard) != _identities(stream_guard):
            return (
                "streamed run diverged in errors: "
                f"{_first_diff(_identities(mat_guard), _identities(stream_guard))}"
            )
        if mat_engine.stats != engine.stats:
            return (
                f"streamed run diverged in stats: "
                f"materialized={mat_engine.stats} streamed={engine.stats}"
            )
        mat_events = normalize_events(mat_rec.events)
        stream_events = normalize_events(stream_rec.events)
        if mat_events != stream_events:
            return (
                "streamed run diverged in normalized event logs: "
                f"{_first_diff(mat_events, stream_events)}"
            )
        bound = 3 * case.num_threads
        if engine.window_high_water > bound:
            return (
                f"streamed run violated the window bound: peak "
                f"{engine.window_high_water} resident summaries > {bound}"
            )
        return None

    def check_columnar(self, case: TraceCase) -> Optional[str]:
        """Columnar-backed blocks (vector kernel) vs. object-backed
        blocks (per-``Instr`` kernel), serial and concurrent."""
        obj_guard = _guards_for(case, use_columnar_kernel=False)
        obj_rec = Recorder()
        obj_engine, _ = _run(case, obj_guard, recorder=obj_rec)
        ref_ids = _identities(obj_guard)
        ref_events = normalize_events(obj_rec.events)

        for backend in ("serial", self.backend):
            col_guard = _guards_for(case)
            col_rec = Recorder()
            engine = ButterflyEngine(
                col_guard, backend=backend, recorder=col_rec
            )
            try:
                engine.run_source(_ColumnarCaseSource(case.partition()))
            finally:
                engine.close()
            if _identities(col_guard) != ref_ids:
                return (
                    f"columnar run ({backend}) diverged in errors: "
                    f"{_first_diff(ref_ids, _identities(col_guard))}"
                )
            if engine.stats != obj_engine.stats:
                return (
                    f"columnar run ({backend}) diverged in stats: "
                    f"object={obj_engine.stats} columnar={engine.stats}"
                )
            col_events = normalize_events(col_rec.events)
            if col_events != ref_events:
                return (
                    f"columnar run ({backend}) diverged in normalized "
                    f"event logs: {_first_diff(ref_events, col_events)}"
                )
        return None

    def _serve_address(
        self, shard_backend: str = "thread", adaptive: bool = False
    ):
        """The shared in-process daemon's address, starting it lazily.

        One daemon per shard backend (plus one adaptive-epoch daemon)
        serves the whole campaign (the cost of a thread, an event
        loop, and a shard pool per case would dominate the fuzz rate);
        every case pushes under a fresh stream id, so sessions never
        collide.  Checkpointing stays off -- each push is a complete
        one-shot delivery and the resume pair has its own dedicated
        tests.  The adaptive daemon pins the controller's fold factor
        at 3 (min == max) so the recorded cut stream is a
        deterministic function of the case -- shrinking a disagreement
        must replay it exactly.
        """
        key = "adaptive" if adaptive else shard_backend
        daemon = self._serve_daemons.get(key)
        if daemon is None:
            if self._serve_dir is None:
                self._serve_dir = tempfile.TemporaryDirectory(
                    prefix="repro-verify-serve-"
                )
            daemon = ServerThread(
                ServeConfig(
                    unix_path=os.path.join(
                        self._serve_dir.name, f"serve-{key}.sock"
                    ),
                    queue_depth=2,
                    shard_backend=shard_backend,
                    adaptive_epoch=adaptive,
                    slo_min_fold=3 if adaptive else 1,
                    slo_max_fold=3 if adaptive else 64,
                )
            )
            daemon.start()
            self._serve_daemons[key] = daemon
        return daemon.address

    def check_serve(self, case: TraceCase) -> Optional[str]:
        """Daemon-ingested stream vs. the offline streaming pipeline:
        the wire must be invisible in the end-of-stream report."""
        return self._check_serve(case, "thread")

    def check_serve_process(self, case: TraceCase) -> Optional[str]:
        """The same wire-invisibility proof under process shards: the
        engine lives in a worker process, epochs cross a pipe as raw
        column bytes, and the report must *still* be bit-identical to
        the offline pipeline's."""
        return self._check_serve(case, "process")

    def _check_serve(
        self, case: TraceCase, shard_backend: str
    ) -> Optional[str]:
        self._serve_seq += 1
        stream_id = f"case-{shard_backend}-{self._serve_seq}"
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            path = os.path.join(tmp, "case.stream.jsonl")
            save_stream_file(case.partition(), path)
            with open(path) as fp:
                header = stream_header(fp, path)

            # Offline side: the exact pipeline `repro check --trace`
            # runs, built from the file's own header so both sides see
            # byte-identical inputs.
            guard = make_guard(case.lifeguard, header["preallocated"])
            engine = ButterflyEngine(guard)
            try:
                engine.run_source(iter_load(path))
            finally:
                engine.close()
            hello = make_hello(
                stream_id,
                header["threads"],
                header["epochs"],
                header["preallocated"],
                case.lifeguard,
            )
            offline = json.loads(
                json.dumps(build_report(stream_id, hello, engine, guard))
            )

            try:
                served = push_trace(
                    self._serve_address(shard_backend),
                    path,
                    stream_id,
                    lifeguard=case.lifeguard,
                )
            except ReproError as exc:
                return f"serve push failed ({shard_backend} shards): {exc}"

        if served != offline:
            for key in sorted(set(served) | set(offline)):
                if served.get(key) != offline.get(key):
                    return (
                        f"serve daemon diverged from offline run in "
                        f"{key!r}: offline={offline.get(key)!r} "
                        f"served={served.get(key)!r}"
                    )
        if served["window_high_water"] > served["window_bound"]:
            return (
                f"served stream violated the window bound: peak "
                f"{served['window_high_water']} resident summaries > "
                f"{served['window_bound']}"
            )
        return None

    def check_adaptive(self, case: TraceCase) -> Optional[str]:
        """Adaptive-epoch serve vs. an offline replay of its recorded
        cuts.

        The adaptive daemon coalesces producer epochs online and its
        REPORT carries the per-thread boundary stream it *actually*
        analyzed.  An offline engine run over exactly those cuts
        (``partition_from_boundaries``) must reproduce the report bit
        for bit -- the adaptive run is only trustworthy if it is a
        deterministic re-partitioning, not a different analysis.
        """
        self._serve_seq += 1
        stream_id = f"case-adaptive-{self._serve_seq}"
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            path = os.path.join(tmp, "case.stream.jsonl")
            save_stream_file(case.partition(), path)
            with open(path) as fp:
                header = stream_header(fp, path)
            try:
                served = push_trace(
                    self._serve_address("thread", adaptive=True),
                    path,
                    stream_id,
                    lifeguard=case.lifeguard,
                )
            except ReproError as exc:
                return f"adaptive serve push failed: {exc}"
        boundaries = served.get("boundaries")
        if boundaries is None:
            return "adaptive REPORT carried no recorded boundaries"
        try:
            replay = partition_from_boundaries(
                case.program(), [list(cuts) for cuts in boundaries]
            )
        except ReproError as exc:
            return (
                f"recorded boundaries do not partition the trace: {exc}"
            )
        guard = make_guard(case.lifeguard, header["preallocated"])
        engine = ButterflyEngine(guard)
        try:
            engine.run(replay)
        finally:
            engine.close()
        hello = make_hello(
            stream_id,
            header["threads"],
            header["epochs"],
            header["preallocated"],
            case.lifeguard,
        )
        offline = json.loads(json.dumps(build_report(
            stream_id, hello, engine, guard,
            boundaries=replay.boundaries,
        )))
        if served != offline:
            for key in sorted(set(served) | set(offline)):
                if served.get(key) != offline.get(key):
                    return (
                        f"adaptive serve diverged from the boundary "
                        f"replay in {key!r}: "
                        f"replay={offline.get(key)!r} "
                        f"served={served.get(key)!r}"
                    )
        return None


#: Sentinel a mode check returns when the case doesn't apply to it.
_SKIPPED = "__skipped__"


def _first_diff(a: List, b: List) -> str:
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else "<missing>"
        y = b[i] if i < len(b) else "<missing>"
        if x != y:
            return f"at index {i}: {x!r} != {y!r}"
    return "<equal>"
