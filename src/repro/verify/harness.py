"""The differential harness: every way of running a case must agree.

A run is a :class:`Point` -- one value on each of the four :data:`AXES`
(representation x delivery x executor x cut) -- executed by the one
:meth:`DifferentialHarness.run` and recorded as one :class:`Outcome`.
A fuzz mode is a pair of points plus the outcome fields :func:`diff`
compares: a row of :data:`PRESETS`, which is also where each mode is
described -- so a new file format, executor or transport is an axis
value and a table row, not a method.  The fault-free serial
:data:`BASELINE` is run once per case and shared by every row that
names it.  Two modes are subset relations, not equalities, and stay
hand-written: ``orderings`` (zero false negatives against every valid
ordering) and the TaintCheck half of ``optref`` (precision only ever
removes flags).
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.epoch import SloConfig
from repro.core.framework import ButterflyEngine, EngineStats
from repro.core.ordering import all_valid_orderings
from repro.core.parallel import ExecutionBackend, get_backend
from repro.errors import CheckpointError, ReproError, ResilienceError
from repro.lifeguards.sequential import true_errors_under_any_ordering
from repro.obs.recorder import Recorder, normalize_events
from repro.resilience.checkpoint import Checkpointer, load_checkpoint
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import RetryPolicy
from repro.serve import (
    ServeConfig,
    ServerThread,
    build_report,
    make_guard,
    make_hello,
    push_trace,
)
from repro.trace.serialize import iter_load, save_stream_file
from repro.verify.generator import TraceCase
from repro.verify.reference import ReferenceAddrCheck

#: The axes of a run and the values :meth:`DifferentialHarness.run` accepts.
AXES = {
    # The per-Instr reference scan kernels (``use_columnar_kernel=False``)
    # | the production columnar kernels.
    "representation": ("objects", "columns"),
    # The in-memory partition | a round trip through a version 4 stream
    # file | that file pushed to a shared ``repro serve`` daemon with
    # thread shards, process shards, or adaptive folding (factor 3).
    "delivery": (
        "partition", "stream-file",
        "serve-thread", "serve-process", "serve-adaptive",
    ),
    # pool: the harness's pooled backend (threads by default), alone or
    # with deterministic crash/corrupt injection for it to recover from.
    "executor": ("serial", "pool", "pool+faults"),
    # Checkpoint, abandon mid-run, resume from the checkpoint file.
    "cut": ("none", "kill-and-resume"),
}


class Point(NamedTuple):
    """One way of running a case: a value per axis of :data:`AXES`."""

    representation: str = "objects"
    delivery: str = "partition"
    executor: str = "serial"
    cut: str = "none"

    def __str__(self) -> str:
        return "×".join(self)


#: The fault-free serial run over the in-memory partition.
BASELINE = Point()


class Preset(NamedTuple):
    """A fuzz mode: ``left`` must equal every point of ``rights`` on
    ``fields`` of their outcomes -- and every right side must keep its
    resident window within the three-epoch bound."""

    left: Point
    rights: Tuple[Point, ...]
    fields: Tuple[str, ...]
    reference: bool = False  # the right side runs the reference lifeguard
    #: The right side runs the case re-cut at the boundaries the left
    #: side's report recorded.
    recut: bool = False


_LOGGED = ("errors", "stats", "events")

#: The equivalence modes -- the one place each is described
#: (``docs/verification.md`` mirrors this table).
PRESETS: Dict[str, Preset] = {
    # The production AddrCheck (scan kernels, change-set isolation
    # check) vs. the per-instruction reference: bit-identical reports.
    # TaintCheck cases run the precision relation instead; RaceCheck skips.
    "optref": Preset(BASELINE, (BASELINE,), ("errors",), reference=True),
    # Serial vs. the concurrent backend: identical errors, stats and
    # normalized event logs (the ordered-commit determinism contract).
    "backends": Preset(BASELINE, (Point(executor="pool"),), _LOGGED),
    # The pool under deterministic crash/corrupt injection vs. the
    # fault-free run: identical errors and stats (exactly-once).
    # A run whose faults exhaust the retry budget is skipped.
    "faults": Preset(
        BASELINE, (Point(executor="pool+faults"),), ("errors", "stats")
    ),
    # Checkpoint at an epoch boundary, abandon, resume vs. uninterrupted:
    # identical errors and stats, and the interrupted log up to the
    # checkpoint + the resumed log is the uninterrupted log.  Skipped
    # below two epochs or when no epoch committed before the stop.
    "resume": Preset(BASELINE, (Point(cut="kill-and-resume"),), _LOGGED),
    # The bounded-memory streaming pipeline fed from a round-tripped
    # version 4 file vs. the materialized run.
    "stream": Preset(BASELINE, (Point("columns", "stream-file"),), _LOGGED),
    # The production columnar kernels vs. the per-Instr reference
    # kernels, serial and concurrent.
    "columnar": Preset(
        BASELINE, (Point("columns"), Point("columns", executor="pool")),
        _LOGGED,
    ),
    # The daemon's end-of-stream REPORT (errors, work counters, window
    # peak) vs. the report of the in-memory run: the file, the wire,
    # framing, queueing and the shard hand-off are all invisible.
    "serve": Preset(
        BASELINE, (Point("columns", "serve-thread"),), ("report",)
    ),
    # The same under process shards: the engine lives in a worker
    # process and every EPOCH payload crosses a pipe as received, to be
    # decoded and folded there.
    "serve_process": Preset(
        BASELINE, (Point("columns", "serve-process"),), ("report",)
    ),
    # An adaptive-epoch daemon vs. an offline run of the trace re-cut
    # at the boundaries its REPORT recorded: online coalescing must be a
    # deterministic re-partitioning, not a different analysis.
    "adaptive": Preset(
        Point("columns", "serve-adaptive"), (BASELINE,), ("report",),
        recut=True,
    ),
}

#: The full mode matrix, in the order ``repro fuzz`` reports it.
MODE_NAMES = ("orderings",) + tuple(PRESETS)


class Inapplicable(Exception):
    """The case cannot exercise the run or mode: a skip, no disagreement."""


@dataclass
class Outcome:
    """Everything one run produced that another run can be held to."""

    name: str  # str(point), plus a note when the reference lifeguard ran
    #: Error identities in report order, and the normalized event log:
    #: both ``None`` over a serve delivery (the wire carries the report).
    errors: Optional[List[Tuple]]
    stats: EngineStats
    events: Optional[List[Dict[str, Any]]]
    window_high_water: int
    report: Dict[str, Any]  # ``build_report``'s as JSON, minus its stream id


def _outcome(name: str, report: Dict[str, Any], errors=None, events=None):
    """An :class:`Outcome` around an end-of-stream ``report``, in its JSON
    form: an offline report's flags are tuples, a wire report's lists."""
    report = json.loads(json.dumps(report))
    del report["stream"]
    return Outcome(
        name, errors, EngineStats(**report["stats"]), events,
        report["window_high_water"], report,
    )


def diff(left: Outcome, right: Outcome, fields: Sequence[str]):
    """The first of ``fields`` on which two outcomes differ, as a
    diagnosis string -- ``None`` when they agree on all of them."""
    for field in fields:
        a, b = getattr(left, field), getattr(right, field)
        if a is None or b is None:
            raise ValueError(
                f"{field!r} is not recorded by {left.name} and {right.name}"
            )
        if a != b:
            return (
                f"{left.name} and {right.name} differ in {field}: "
                f"{_first_diff(a, b)}"
            )
    return None


class Disagreement(NamedTuple):
    """One surviving difference between two modes on one case."""

    mode: str
    case: TraceCase
    detail: str


def _flag_sets(errors: List[Tuple]):
    """(ref, loc) flags plus block-granularity flagged locations."""
    flags = {(ref, loc) for _, loc, ref, _ in errors if ref is not None}
    block_locs = {loc for _, loc, _, block in errors if block is not None}
    return flags, block_locs


class DifferentialHarness:
    """Runs a :class:`TraceCase` through the mode matrix."""

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
        # Outcomes of the case run_case() is on, shared by its modes.
        self._memo: Optional[Dict[Tuple, Outcome]] = None
        # One shared in-process daemon per serve delivery, and the
        # directory of their sockets and each run's stream file and
        # checkpoint: created lazily, torn down by close().
        self._serve_daemons: Dict[str, ServerThread] = {}
        self._scratch_dir: Optional[tempfile.TemporaryDirectory] = None
        self._serve_seq = 0

    def close(self) -> None:
        """Tear down the shared serve daemons (idempotent)."""
        for daemon in self._serve_daemons.values():
            daemon.stop()
        self._serve_daemons.clear()
        if self._scratch_dir is not None:
            self._scratch_dir.cleanup()
            self._scratch_dir = None

    def __enter__(self) -> "DifferentialHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_case(self, case: TraceCase) -> List[Disagreement]:
        self._memo = {}
        try:
            details = [(mode, self.check(case, mode)) for mode in self.modes]
        finally:
            self._memo = None
        return [Disagreement(m, case, d) for m, d in details if d is not None]

    def check(self, case: TraceCase, mode: str) -> Optional[str]:
        """Run one mode: ``None`` on agreement (or when inapplicable), a
        human-readable diagnosis on disagreement -- which doubles as the
        shrinker's predicate signal."""
        try:
            if case.lifeguard == "race" and mode in ("orderings", "optref"):
                raise Inapplicable("RaceCheck has no oracle or reference")
            if mode == "orderings":
                detail = self._check_orderings(case)
            elif mode == "optref" and case.lifeguard != "addrcheck":
                detail = self._check_taint_precision(case)
            else:
                detail = self._check_preset(case, PRESETS[mode])
        except Inapplicable:
            self.skipped[mode] += 1
            return None
        self.checks_run[mode] += 1
        return detail

    def _check_preset(self, case: TraceCase, preset: Preset) -> Optional[str]:
        try:
            left = self.run(case, preset.left)
            for point in preset.rights:
                if preset.recut:
                    right = self._replay_recorded_cuts(case, left, point)
                else:
                    right = self.run(case, point, reference=preset.reference)
                detail = diff(left, right, preset.fields)
                if detail is not None:
                    return detail
                if right.window_high_water > 3 * case.num_threads:
                    return (
                        f"{right.name} violated the 3-epoch window bound: "
                        f"peak {right.window_high_water} resident summaries"
                    )
        except ReproError as exc:
            # A daemon refusing a valid push, recorded cuts that do not
            # partition the trace, an engine invariant tripping.
            return f"run failed: {type(exc).__name__}: {exc}"
        return None

    def _replay_recorded_cuts(self, case, served: Outcome, point) -> Outcome:
        """``point`` over the case re-cut at the boundaries ``served``
        recorded, reported in the producer's terms (its row count)."""
        cuts = served.report.get("boundaries")
        if cuts is None:
            raise ReproError(f"{served.name} recorded no boundaries")
        recut = replace(case, boundaries=tuple(tuple(c) for c in cuts))
        replay = self.run(recut, point)
        report = dict(
            replay.report,
            epochs=case.num_epochs,
            boundaries=[list(c) for c in recut.partition().boundaries],
        )
        return replace(replay, report=report)

    def run(
        self, case: TraceCase, point: Point = BASELINE,
        reference: bool = False, **ablation: Any,
    ) -> Outcome:
        """Run ``case`` at ``point`` and record what came out.

        ``reference`` swaps in the paper-faithful reference lifeguard;
        ``ablation`` goes to the lifeguard's constructor.  Raises
        :class:`Inapplicable` when the case cannot exercise the point,
        ``ValueError`` for a point no code path realizes."""
        if any(v not in AXES[axis] for axis, v in zip(Point._fields, point)):
            raise ValueError(f"{point} is off the axes; choose from {AXES}")
        key = (case, point, reference, tuple(sorted(ablation.items())))
        memo = self._memo
        if memo is not None and key in memo:
            return memo[key]
        if point.delivery.startswith("serve-"):
            if (point, reference, ablation) != (
                Point("columns", point.delivery), False, {}
            ):
                raise ValueError(
                    f"{point}: a serve delivery runs the daemon's own "
                    f"lifeguard (columns, kernels on auto), serially, uncut"
                )
            self._serve_seq += 1
            report = push_trace(
                self._serve_address(point.delivery), self._stream_file(case),
                f"case-{self._serve_seq}", lifeguard=case.lifeguard,
            )
            outcome = _outcome(str(point), report)
        else:
            outcome = self._run_local(case, point, reference, ablation)
        if memo is not None:
            memo[key] = outcome
        return outcome

    def _scratch(self, name: str) -> str:
        if self._scratch_dir is None:
            self._scratch_dir = tempfile.TemporaryDirectory(
                prefix="repro-verify-"
            )
        return os.path.join(self._scratch_dir.name, name)

    def _stream_file(self, case: TraceCase) -> str:
        path = self._scratch("case.stream.jsonl")
        save_stream_file(case.partition(), path)
        return path

    def _backend(self, case: TraceCase, executor: str) -> ExecutionBackend:
        if executor != "pool+faults":
            return get_backend(
                "serial" if executor == "serial" else self.backend
            )
        # Every case carries the same campaign seed, so seeding the
        # fault plan from it alone would roll identical fault dice for
        # every trial; digest the case content so each trial sees its
        # own crash/corrupt pattern (deterministically replayable).
        seed = zlib.crc32(json.dumps(case.to_json(), sort_keys=True).encode())
        return get_backend(
            self.backend,
            # Zero backoff: retry delays protect production pools, but
            # here they only throttle the fuzz campaign's trial rate.
            policy=RetryPolicy(
                max_retries=4, task_timeout=10.0,
                backoff_base=0.0, backoff_max=0.0,
            ),
            plan=FaultPlan(crash=0.2, corrupt=0.2, seed=seed),
        )

    def _run_local(
        self, case: TraceCase, point: Point, reference: bool, ablation
    ) -> Outcome:
        """An engine in this process, fed per the delivery, executor
        and cut axes."""
        partition = case.partition()
        num_epochs = partition.num_epochs
        if point.delivery == "stream-file":
            source = iter_load(self._stream_file(case))
        else:
            source = None  # the partition itself
        if point.representation == "objects":
            ablation = {"use_columnar_kernel": False, **ablation}
        if not reference:
            guard = make_guard(case.lifeguard, case.preallocated, **ablation)
        elif case.lifeguard == "addrcheck":
            guard = ReferenceAddrCheck(case.preallocated, **ablation)
        else:
            raise Inapplicable("only AddrCheck has a reference lifeguard")
        recorder = Recorder()
        backend = self._backend(case, point.executor)
        try:
            engine = ButterflyEngine(guard, backend, recorder)
            if point.cut == "none":
                _feed(engine, partition, source, range(num_epochs))
                events = recorder.events
            else:
                if num_epochs < 2:
                    raise Inapplicable("a single epoch has no cut point")
                path = self._scratch("run.ckpt")
                if os.path.exists(path):
                    os.remove(path)
                engine.enable_checkpoints(
                    Checkpointer(path, every=2 if num_epochs >= 4 else 1)
                )
                # Feed through epoch ``num_epochs // 2``, then abandon
                # (the CLI's --stop-after-epoch drill, in-process).
                stop = max(1, num_epochs // 2) + 1
                _feed(engine, partition, source, range(stop), finish=False)
                if not os.path.exists(path):
                    raise Inapplicable("no epoch committed before the stop")
                checkpoint = load_checkpoint(path)
                events = [
                    e for e in recorder.events
                    if e["seq"] <= checkpoint.events_emitted
                ]
                guard = checkpoint.analysis
                recorder = Recorder()
                engine = ButterflyEngine(guard, backend, recorder)
                _feed(
                    engine, partition, source,
                    range(checkpoint.next_epoch, num_epochs), checkpoint,
                )
                events += recorder.events
        except ResilienceError as exc:
            if (
                isinstance(exc, CheckpointError)
                or point.executor != "pool+faults"
            ):
                # A fault-free pool giving up is a finding, not a skip.
                raise
            # The injected faults exhausted the retry budget and the
            # pool gave up: its documented contract, no divergence.
            raise Inapplicable("faults exhausted the retries") from None
        finally:
            backend.close()
        hello = make_hello(
            "", case.num_threads, num_epochs, case.preallocated, case.lifeguard
        )
        return _outcome(
            f"{point} (reference lifeguard)" if reference else str(point),
            build_report("", hello, engine, guard),
            [r.identity() for r in guard.errors],
            normalize_events(events),
        )

    def _serve_address(self, delivery: str):
        """The shared in-process daemon's address, starting it lazily.

        One daemon per serve delivery serves the whole campaign (a
        thread, an event loop and a shard pool per case would dominate
        the fuzz rate); every push uses a fresh stream id.  Checkpoints
        stay off: each push is one complete delivery.  The adaptive
        daemon pins the fold factor (min == max) so the recorded cuts
        depend on the case alone -- a shrink must replay them exactly.
        """
        daemon = self._serve_daemons.get(delivery)
        if daemon is None:
            config = ServeConfig(
                unix_path=self._scratch(f"{delivery}.sock"),
                queue_depth=2,
                shard_backend=(
                    "process" if delivery == "serve-process" else "thread"
                ),
                slo=(
                    SloConfig(min_fold=3, max_fold=3)
                    if delivery == "serve-adaptive" else None
                ),
            )
            daemon = ServerThread(config)
            daemon.start()
            self._serve_daemons[delivery] = daemon
        return daemon.address

    def _check_orderings(self, case: TraceCase) -> Optional[str]:
        """Zero false negatives over every enumerated valid ordering
        (Theorems 6.1/6.2).  Exponential, so only cases within
        ``oracle_budget`` instructions run it; the oracle side uses the
        prefix-memoized enumerator (consecutive orderings replay only
        their divergent suffix)."""
        if case.total_instructions > self.oracle_budget:
            raise Inapplicable("case exceeds the oracle budget")
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
        filter_off = {"use_idempotent_filter": False}
        precise = filter_off if case.lifeguard == "addrcheck" else {}
        flags, block_locs = _flag_sets(self.run(case, **precise).errors)
        for ref, loc in sorted(oracle):
            if (ref, loc) not in flags and loc not in block_locs:
                return (
                    f"butterfly missed an error the sequential lifeguard "
                    f"reports under some valid ordering: ref={ref} loc={loc}"
                )
        if case.lifeguard == "addrcheck":
            f_flags, f_blocks = _flag_sets(self.run(case).errors)
            flagged_locs = {loc for _, loc in f_flags} | f_blocks
            for ref, loc in sorted(oracle):
                if loc not in flagged_locs:
                    return (
                        f"idempotent-filtered butterfly missed every flag "
                        f"for erroneous location {loc} (oracle ref {ref})"
                    )
        return None

    def _check_taint_precision(self, case: TraceCase) -> Optional[str]:
        """TaintCheck's half of ``optref``: a precise configuration must
        never flag an event its conservative ablation misses (precision
        only ever removes false positives, never adds flags)."""
        for precise_kw, loose_kw, name in (
            ({"mode": "sc"}, {"mode": "relaxed"}, "sc vs relaxed"),
            ({"two_phase": True}, {"two_phase": False},
             "two-phase vs whole-window"),
        ):
            p_flags, _ = _flag_sets(self.run(case, **precise_kw).errors)
            l_flags, l_blocks = _flag_sets(self.run(case, **loose_kw).errors)
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


def _feed(engine, partition, source, rows, checkpoint=None, finish=True):
    """Feed epochs ``rows`` of the partition -- read through ``source``
    unless it is ``None`` -- into a fresh engine attached with
    ``checkpoint`` (``None`` starts the run); ``finish=False`` abandons
    the run."""
    try:
        if source is None:
            engine.attach(partition, checkpoint)
            blocks = map(partition.epoch_blocks, rows)
        else:
            engine.attach_source(source, checkpoint)
            blocks = source.epochs(rows.start)
        for lid, row in zip(rows, blocks):
            engine.feed_blocks(lid, row)
        if finish:
            engine.finish()
    finally:
        engine.close()


def _first_diff(a: Any, b: Any) -> str:
    """Where two unequal values part ways: the first differing key of
    two dicts or index of two lists, recursively."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return f"{key!r}: {_first_diff(a.get(key), b.get(key))}"
    if isinstance(a, list) and isinstance(b, list):
        pairs = zip_longest(a, b, fillvalue="<missing>")
        for i, (x, y) in enumerate(pairs):
            if x != y:
                return (
                    f"{len(a)} vs {len(b)} entries; first diff at index "
                    f"{i}: {x!r} != {y!r}"
                )
    return f"{a!r} != {b!r}"
