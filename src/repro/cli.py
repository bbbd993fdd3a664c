"""Command-line interface: regenerate the paper's results from a shell.

Examples
--------
::

    python -m repro table1
    python -m repro figure11 --events 32768
    python -m repro figure12
    python -m repro figure13
    python -m repro check --benchmark OCEAN --threads 4 --epoch-size 512
    python -m repro check --benchmark OCEAN --emit-events events.jsonl
    python -m repro check --benchmark OCEAN --checkpoint run.ckpt
    python -m repro check --backend processes --inject-faults crash=0.05,seed=7
    python -m repro check --benchmark OCEAN --lifeguard taintcheck
    python -m repro generate --benchmark OCEAN --stream --output big.jsonl
    python -m repro check --trace big.jsonl        # v1 or v4 file
    python -m repro resume --checkpoint run.ckpt
    python -m repro sweep --benchmark OCEAN --threads 4
    python -m repro sweep --traces a.jsonl b.jsonl --quarantine bad/
    python -m repro sweep --benchmark HANDOFF --sizes 2 8 32 --output fit.json
    python -m repro stats --benchmark OCEAN --threads 4
    python -m repro fuzz --seed 4 --budget-seconds 60
    python -m repro fuzz --mutant narrow-window --trials 20
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import shutil
import signal
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.experiments import figure11, figure12, figure13, table1
from repro.bench.harness import (
    ExperimentConfig,
    ExperimentSuite,
    Oracle,
    fit_tradeoff,
    measure_epoch_size,
)
from repro.bench.reporting import render_table
from repro.core.epoch import (
    SloConfig,
    partition_auto,
    partition_from_boundaries,
)
from repro.core.framework import ButterflyEngine
from repro.core.parallel import (
    BACKEND_CHOICES,
    ExecutionBackend,
    get_backend,
)
from repro.core.stream import EpochSource, PartitionSource
from repro.errors import AnalysisError, ReproError, TraceError
from repro.obs import NULL_RECORDER, JsonlSink, Recorder
from repro.resilience import (
    Checkpointer,
    FaultPlan,
    RetryPolicy,
    load_checkpoint,
)
from repro.serve import (
    SHARD_BACKEND_CHOICES,
    ReproServer,
    ServeConfig,
    build_report,
    format_report,
    make_guard,
    make_hello,
    parse_address,
    push_trace,
)
from repro.serve.protocol import LIFEGUARD_CHOICES
from repro.sim.lba import LBASystem
from repro.trace.serialize import (
    STREAM_VERSION,
    file_version,
    iter_load,
    load_file,
    save_file,
    save_stream_file,
)
from repro.verify import DEFAULT_TRIALS, MODE_NAMES, MUTANTS, run_fuzz
from repro.workloads.registry import WORKLOADS, get_benchmark


def _fail(command: str, message: str) -> int:
    """One-line diagnostic on stderr, conventional exit status 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _open_recorder(args: argparse.Namespace) -> Recorder:
    """Resolve ``--emit-events`` into a recorder, failing fast.

    The shared :data:`NULL_RECORDER` when the flag is absent; an
    unwritable path raises, so a typo'd directory aborts before any
    analysis work runs.
    """
    path = getattr(args, "emit_events", None)
    if not path:
        return NULL_RECORDER
    try:
        return Recorder(sink=JsonlSink.open(path))
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc}") from exc


def _finish_events(recorder: Recorder, args: argparse.Namespace) -> None:
    """Close the event sink and confirm where the log went."""
    if getattr(args, "emit_events", None):
        recorder.close()
        print(
            f"wrote {len(recorder.events)} events to {args.emit_events}",
            file=sys.stderr,
        )


def _resolve_backend(args: argparse.Namespace) -> ExecutionBackend:
    """``--backend`` plus the resilience flags -> engine backend.

    Returns a constructed backend the caller must ``close()`` (the
    engine only owns backends it built from a name).  A malformed fault
    spec, or compute faults aimed at the serial backend (which has no
    fan-out to inject them into), raise :class:`ResilienceError`.
    """
    plan = FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    policy = RetryPolicy(
        max_retries=args.retries, task_timeout=args.task_timeout
    )
    return get_backend(args.backend, policy=policy, plan=plan)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


#: What :func:`_run_meta` records and ``repro resume`` reads back.
_RUN_META_KEYS = (
    "benchmark", "trace", "trace_sha256", "threads", "events", "seed",
    "epoch_size", "lifeguard", "boundaries",
)


def _run_meta(
    args: argparse.Namespace, source: EpochSource, trace_path: Optional[str]
) -> Dict[str, Any]:
    """The checkpoint's configuration fingerprint: everything needed to
    rebuild the identical trace and partition at resume time.

    When the source cuts an in-memory program, its explicit boundary
    stream is recorded too: resume replays those exact cuts
    (:func:`partition_from_boundaries`) instead of re-deriving them
    from ``epoch_size``, so variable-size partitions -- skewed,
    global-order -- resume on identical epoch geometry.  A stream
    file carries its own cuts and records none.
    """
    trace_abs = os.path.abspath(trace_path) if trace_path else None
    return {
        "benchmark": None if trace_abs else args.benchmark,
        "trace": trace_abs,
        "trace_sha256": _sha256(trace_abs) if trace_abs else None,
        "threads": source.num_threads,
        "events": None if trace_abs else args.events,
        "seed": None if trace_abs else args.seed,
        "epoch_size": args.epoch_size,
        "lifeguard": args.lifeguard,
        "boundaries": (
            [list(cuts) for cuts in source.partition.boundaries]
            if isinstance(source, PartitionSource) else None
        ),
    }


def _drive_engine(
    args: argparse.Namespace,
    engine: ButterflyEngine,
    source: EpochSource,
    checkpoint_path: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> bool:
    """Feed the remaining epochs; return True when the run finished.

    Pulls one epoch at a time from ``source`` -- the engine never holds
    more than the three-epoch window -- so every command's run is
    killed and resumed by the same loop.  An engine attached with a
    checkpoint starts at its :attr:`~ButterflyEngine.resume_position`,
    seeking the reader past epochs the checkpoint covers.

    ``--stop-after-epoch N`` exits cleanly right after receiving epoch
    ``N`` -- the kill/resume drill used by the resilience tests and the
    CI fault-injection job.
    """
    if checkpoint_path:
        engine.enable_checkpoints(
            Checkpointer(
                checkpoint_path,
                meta,
                every=getattr(args, "checkpoint_every", 1),
            )
        )
    stop_after = getattr(args, "stop_after_epoch", None)
    start = engine.resume_position
    rows = source.epochs(start)
    try:
        for lid, blocks in enumerate(rows, start=start):
            engine.feed_blocks(lid, blocks)
            if stop_after is not None and lid >= stop_after:
                message = f"stopped after receiving epoch {lid}"
                if checkpoint_path:
                    message += (
                        "; resume with: repro resume "
                        f"--checkpoint {checkpoint_path}"
                    )
                print(message, file=sys.stderr)
                return False
    finally:
        close = getattr(rows, "close", None)
        if close is not None:
            close()
    engine.finish()
    return True


def _print_report(
    label: str,
    meta: Dict[str, Any],
    limit: int,
    source: EpochSource,
    program,
    engine: ButterflyEngine,
    guard,
) -> None:
    """The result block of a finished run, whatever fed it.

    Rendered through the serve layer's report builder, so ``repro
    check`` over a generated workload, a version 1 file or a stream
    file, ``repro resume`` and ``repro push`` print the same block for
    the same trace -- the serve-smoke job diffs check against push byte
    for byte.  AddrCheck over an in-memory program with a recorded order
    adds its precision against the sequential oracle (Figure 13's
    quantity), which needs the whole trace: no streamed report has it.
    """
    hello = make_hello(
        label, meta["threads"], source.num_epochs, (), meta["lifeguard"]
    )
    report = build_report(label, hello, engine, guard)
    for line in format_report(report, label, limit):
        print(line)
    recorded = program is not None and program.true_order is not None
    if recorded and meta["lifeguard"] == "addrcheck":
        precision = Oracle(program).score(guard.errors)
        print(f"oracle (h={meta['epoch_size']} events): "
              f"true: {precision.true_positives}"
              f"  false positives: {precision.false_positives}"
              f"  false negatives: {precision.false_negatives}")
        print(f"false-positive rate: "
              f"{precision.false_positive_rate:.4%} of memory accesses")


def _suite(args: argparse.Namespace) -> ExperimentSuite:
    return ExperimentSuite(
        ExperimentConfig(
            events_per_thread=args.events,
            thread_counts=tuple(args.threads),
            seed=args.seed,
        )
    )


def _add_suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--events", type=int, default=32768,
        help="events per application thread (default: 32768)",
    )
    parser.add_argument(
        "--threads", type=int, nargs="+", default=[2, 4, 8],
        help="application thread counts (default: 2 4 8)",
    )
    parser.add_argument("--seed", type=int, default=1)


def cmd_table1(args: argparse.Namespace) -> int:
    print(table1().render())
    return 0


def cmd_figure11(args: argparse.Namespace) -> int:
    print(figure11(_suite(args)).render())
    return 0


def cmd_figure12(args: argparse.Namespace) -> int:
    print(figure12(_suite(args)).render())
    return 0


def cmd_figure13(args: argparse.Namespace) -> int:
    print(figure13(_suite(args)).render())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a workload trace and save it to disk.

    ``--stream`` writes the epoch-major version 4 layout instead: the
    epoch geometry (``--epoch-size``) is cut once at write time and
    baked into the file, and ``repro check`` later reads it back one
    epoch at a time without materializing the trace.
    """
    program = get_benchmark(args.benchmark).generate(
        args.threads, args.events, seed=args.seed
    )
    try:
        if args.stream:
            partition = partition_auto(program, args.epoch_size)
            save_stream_file(partition, args.output)
        else:
            save_file(program, args.output)
    except OSError as exc:
        return _fail("generate", f"cannot write {args.output}: {exc}")
    suffix = (
        f", {partition.num_epochs} epochs, streamed" if args.stream else ""
    )
    print(f"wrote {program.total_instructions} events "
          f"({program.num_threads} threads{suffix}) to {args.output}")
    return 0


def _open_source(
    trace_path: Optional[str],
    benchmark: str,
    threads: int,
    events: int,
    seed: int,
    cut,
) -> "tuple[EpochSource, Any]":
    """Trace path or benchmark parameters -> ``(source, program)``.

    A stream (epoch-major, version 4) file is read one epoch at a
    time and never materialized, so its ``program`` is ``None``; a
    version 1 file or a generated benchmark is a program in memory,
    which ``cut(program)`` partitions and a :class:`PartitionSource`
    hands the engine one epoch row at a time just the same.
    """
    if trace_path:
        try:
            if file_version(trace_path) == STREAM_VERSION:
                return iter_load(trace_path), None
            program = load_file(trace_path)
        except OSError as exc:
            raise ReproError(f"cannot read {trace_path}: {exc}") from exc
    else:
        program = get_benchmark(benchmark).generate(
            threads, events, seed=seed
        )
    return PartitionSource(cut(program)), program


def _run_and_report(
    args: argparse.Namespace,
    recorder: Recorder,
    guard: Any,
    source: EpochSource,
    program,
    meta: Dict[str, Any],
    label: str,
    checkpoint=None,
) -> int:
    """Drive one check/resume run and print its result block.

    With ``checkpoint`` the engine is attached with it and continues
    the checkpointed run: no second ``run.attach`` event, and the log
    numbering picks up at the checkpoint boundary, so the resumed event
    log is the exact suffix of the uninterrupted one, never a re-count
    of finished epochs.
    """
    if args.checkpoint:
        # Refused before any epoch is analysed, as --emit-events is: the
        # first save would otherwise fail after one.
        directory = os.path.dirname(os.path.abspath(args.checkpoint))
        if not os.path.isdir(directory):
            raise ReproError(
                f"cannot write {args.checkpoint}: no such directory "
                f"{directory}"
            )
    backend = _resolve_backend(args)
    engine = ButterflyEngine(guard, backend=backend, recorder=recorder)
    try:
        engine.attach_source(source, checkpoint)
        finished = _drive_engine(
            args, engine, source, args.checkpoint, meta
        )
    finally:
        engine.close()
        backend.close()
    if finished:
        _print_report(
            label, meta, args.limit, source, program, engine, guard
        )
    _finish_events(recorder, args)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run one lifeguard over a workload (generated or from a file).

    The engine pulls one epoch at a time whatever the input: a stream
    trace file is never materialized, and a generated workload or a
    version 1 file is in memory as a trace while the engine's resident
    state still obeys the three-epoch window, whose observed peak the
    report's last line prints.
    """
    recorder = _open_recorder(args)
    source, program = _open_source(
        args.trace, args.benchmark, args.threads, args.events, args.seed,
        lambda program: partition_auto(program, args.epoch_size),
    )
    return _run_and_report(
        args, recorder,
        make_guard(args.lifeguard, source.preallocated),
        source, program, _run_meta(args, source, args.trace),
        label=args.trace or args.benchmark,
    )


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue a checkpointed run killed at an epoch boundary.

    The checkpoint's configuration fingerprint rebuilds the identical
    trace and partition; the continued run's error log, stats, and
    output are bit-identical to an uninterrupted one.  The workload is
    whatever the checkpoint recorded -- there is nothing to pass but
    the checkpoint -- and a trace file that changed since is refused.
    """
    recorder = _open_recorder(args)
    checkpoint = load_checkpoint(args.checkpoint)
    meta = checkpoint.meta
    missing = [key for key in _RUN_META_KEYS if key not in meta]
    if missing:
        return _fail(
            "resume",
            f"{args.checkpoint} is not a repro check checkpoint (its "
            f"meta has no {', '.join(missing)}); a repro serve "
            "checkpoint resumes when its stream reconnects",
        )
    trace_path = meta["trace"]
    if trace_path and meta["trace_sha256"]:
        try:
            digest = _sha256(trace_path)
        except OSError as exc:
            return _fail("resume", f"cannot read {trace_path}: {exc}")
        if digest != meta["trace_sha256"]:
            return _fail(
                "resume",
                f"trace file {trace_path} changed since the "
                "checkpoint was taken (sha256 mismatch)",
            )
    # Replay the recorded cuts verbatim: the interrupted run's
    # partition may not be derivable from epoch_size (skewed or
    # otherwise variable cuts), and resuming on different geometry
    # would silently change the analysis.
    source, program = _open_source(
        trace_path, meta["benchmark"], meta["threads"], meta["events"],
        meta["seed"],
        lambda program: partition_from_boundaries(
            program, meta["boundaries"]
        ),
    )
    return _run_and_report(
        args, recorder, checkpoint.analysis, source, program, meta,
        label=trace_path or meta["benchmark"], checkpoint=checkpoint,
    )


def _quarantine_file(path: str, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    dest = os.path.join(directory, os.path.basename(path))
    shutil.move(path, dest)
    return dest


def _sweep_programs(args: argparse.Namespace) -> List[Tuple[str, Any]]:
    """The ``(label, program)`` pairs a sweep runs over."""
    if not args.traces:
        program = get_benchmark(args.benchmark).generate(
            args.threads, args.events, seed=args.seed
        )
        return [(args.benchmark, program)]
    programs = []
    for path in args.traces:
        try:
            programs.append((path, load_file(path)))
        except OSError as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        except TraceError as exc:
            if not args.quarantine:
                raise
            dest = _quarantine_file(path, args.quarantine)
            print(
                f"repro sweep: warning: quarantined unparseable "
                f"trace {path} -> {dest} ({exc})",
                file=sys.stderr,
            )
    if not programs:
        raise ReproError("no readable trace files remain")
    return programs


def cmd_sweep(args: argparse.Namespace) -> int:
    """Epoch-size sweep for one benchmark (the paper's tuning knob),
    or over saved trace files (``--traces``): at each size AddrCheck's
    simulated slowdown and false positives against the sequential
    oracle (deterministic) and the host's wall-clock cost per epoch,
    then the FP-rate / latency tradeoff fitted over the sizes.
    ``--benchmark HANDOFF`` is the workload whose FP rate genuinely
    grows with the epoch size; Table 1's six fit a nearly flat curve."""
    recorder = _open_recorder(args)
    backend = _resolve_backend(args)
    records = []
    try:
        for label, program in _sweep_programs(args):
            oracle = Oracle(program)
            baseline = LBASystem().unmonitored_sequential(program).cycles
            points = []
            for h in args.sizes:
                if recorder.enabled:
                    recorder.event("sweep.config", epoch_size=h)
                points.append(measure_epoch_size(
                    program, h, oracle, backend=backend, recorder=recorder,
                ))
            if args.traces:
                print(f"trace: {label}")
            print(render_table(
                ("epoch size", "epochs", "slowdown", "false pos", "FP rate",
                 "mean epoch ms", "max epoch ms", "events/s"),
                [
                    (
                        p.epoch_size,
                        p.epochs,
                        f"{p.butterfly.cycles / baseline:.2f}x",
                        p.precision.false_positives,
                        f"{p.fp_rate:.3%}",
                        f"{p.mean_epoch_ms:.3f}",
                        f"{p.max_epoch_ms:.3f}",
                        f"{p.events_per_s:,.0f}",
                    )
                    for p in points
                ],
            ))
            curve = fit_tradeoff(points)
            print(f"fit: fp_rate ~ {curve.fp_slope:+.4f} * log2(h) "
                  f"{curve.fp_intercept:+.4f}")
            print(f"fit: mean_epoch_ms ~ {curve.latency_slope:+.6f} * h "
                  f"{curve.latency_intercept:+.4f}")
            print("raw FP rate monotone nondecreasing: "
                  + ("yes" if curve.fp_monotone else "no"))
            record = {
                "workload": label,
                "threads": program.num_threads,
                "events_per_thread": None if args.traces else args.events,
                "seed": None if args.traces else args.seed,
                "lifeguard": "addrcheck",
            }
            record.update(curve.to_record())
            for p, row in zip(curve.points, record["points"]):
                row["slowdown"] = p.butterfly.cycles / baseline
            records.append(record)
    finally:
        backend.close()
    if args.output:
        # One JSON record per line, one line per swept program.
        try:
            with open(args.output, "w") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError as exc:
            return _fail("sweep", f"cannot write {args.output}: {exc}")
        print(f"wrote {args.output}", file=sys.stderr)
    _finish_events(recorder, args)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzz campaign: generate adversarial traces, demand
    agreement across every mode pair, shrink and archive any
    disagreement.  Exit 0 when every check agreed, 1 when findings were
    written to the failures directory, 2 on usage errors."""
    if args.budget_seconds is not None and args.budget_seconds <= 0:
        return _fail(
            "fuzz", f"--budget-seconds must be > 0, got {args.budget_seconds}"
        )
    if args.trials is not None and args.trials < 1:
        return _fail("fuzz", f"--trials must be >= 1, got {args.trials}")
    if args.oracle_budget < 0:
        return _fail(
            "fuzz", f"--oracle-budget must be >= 0, got {args.oracle_budget}"
        )
    recorder = _open_recorder(args)
    report = run_fuzz(
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        trials=args.trials,
        modes=tuple(args.modes),
        shrink=args.shrink,
        failures_dir=args.failures_dir,
        recorder=recorder,
        oracle_budget=args.oracle_budget,
        backend=args.backend,
        mutant=args.mutant,
    )
    mix = ", ".join(
        f"{k}={v}" for k, v in sorted(report.cases_by_label.items())
    )
    print(f"seed {report.seed}: {report.trials} trials "
          f"in {report.elapsed_s:.1f}s ({mix})")
    for mode in report.modes:
        print(f"  {mode:10s} checks={report.checks_run.get(mode, 0):<6d}"
              f"skipped={report.skipped.get(mode, 0)}")
    if report.ok:
        print("all mode pairs agreed")
        _finish_events(recorder, args)
        return 0
    print(f"{len(report.findings)} disagreement(s); "
          f"minimal repros in {args.failures_dir}/")
    for f in report.findings:
        print(f"  trial {f.trial} [{f.mode}] {f.label}: "
              f"{f.original_instructions} -> {f.shrunk_instructions} "
              f"instructions, {f.artifact}")
        print(f"    {f.detail}")
    _finish_events(recorder, args)
    return 1


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    # The --slo-* flags only mean something under --adaptive-epoch; a
    # fixed-epoch daemon (the default) has no SLO at all.
    slo = SloConfig(
        target_fold_ms=args.slo_target_ms,
        queue_high=args.slo_queue_high,
        queue_low=args.slo_queue_low,
        min_fold=args.slo_min_fold,
        max_fold=args.slo_max_fold,
    ) if args.adaptive_epoch else None
    return ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        workers=args.workers,
        shard_backend=args.shard_backend,
        queue_depth=args.queue_depth,
        max_streams=args.max_streams,
        max_pending_epochs=args.max_pending_epochs,
        idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        metrics_port=args.metrics,
        slo=slo,
    )


async def _serve_main(server: ReproServer) -> None:
    """Run the daemon until a drain completes.

    SIGTERM and SIGINT both trigger the graceful drain: stop accepting,
    fold queued epochs, checkpoint every in-flight stream, notify
    producers, flush, exit 0.
    """
    await server.start()
    loop = asyncio.get_running_loop()

    def _request_drain() -> None:
        loop.create_task(server.drain())

    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, _request_drain)
    # The banner is the readiness signal (supervisors and the smoke
    # harness wait for it), so it must come *after* the drain handlers
    # are in place -- a signal racing the startup would otherwise kill
    # the process ungracefully.
    kind, where = server.address
    if kind == "tcp":
        print(f"serving on {where[0]}:{where[1]}", flush=True)
    else:
        print(f"serving on unix {where}", flush=True)
    if server.metrics_address is not None:
        host, port = server.metrics_address
        print(f"metrics on {host}:{port}", flush=True)
    await server.wait_done()


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the trace-ingestion daemon (see docs/serving.md)."""
    recorder = _open_recorder(args)
    if (args.summary_json or args.metrics is not None) and not recorder.enabled:
        # The metrics listener serves the recorder's snapshot, so a
        # scrape-enabled daemon needs live counters even without a sink.
        recorder = Recorder()
    # The recorder lives on the event loop's thread -- which in the
    # foreground daemon is this one; counters are only touched there.
    server = ReproServer(_serve_config(args), recorder)
    try:
        asyncio.run(_serve_main(server))
    except OSError as exc:
        return _fail("serve", f"cannot listen: {exc}")
    snap = recorder.snapshot()
    served = {
        k: v for k, v in sorted(snap["counters"].items())
        if k.startswith("serve.")
    }
    summary = ", ".join(f"{k.split('.', 1)[1]}={v}" for k, v in served.items())
    print(f"drained: {summary}" if summary else "drained")
    if args.summary_json:
        try:
            recorder.dump_snapshot(args.summary_json)
        except OSError as exc:
            return _fail("serve", f"cannot write {args.summary_json}: {exc}")
        print(f"wrote metrics summary to {args.summary_json}")
    _finish_events(recorder, args)
    return 0


def cmd_push(args: argparse.Namespace) -> int:
    """Push a stream trace to a running daemon and print its report.

    The printed block is bit-identical to ``repro check --trace`` over
    the same file (both render through the same report builder), so the
    two commands' outputs diff clean -- the serve differential check.
    """
    if (args.connect is None) == (args.unix is None):
        return _fail("push", "exactly one of --connect or --unix is required")
    address = (
        ("unix", args.unix) if args.unix else parse_address(args.connect)
    )
    plan = FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    stream_id = args.stream_id or os.path.basename(args.trace)
    try:
        report = push_trace(
            address,
            args.trace,
            stream_id,
            lifeguard=args.lifeguard,
            plan=plan,
            retries=args.retries,
            timeout=args.timeout,
        )
    except OSError as exc:
        return _fail("push", f"cannot read {args.trace}: {exc}")
    for line in format_report(report, args.trace, args.limit):
        print(line)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run one instrumented workload and print the metrics summary."""
    recorder = _open_recorder(args)
    if not recorder.enabled:
        recorder = Recorder()  # stats is pointless without a live recorder
    backend = _resolve_backend(args)
    try:
        program = get_benchmark(args.benchmark).generate(
            args.threads, args.events, seed=args.seed
        )
        source = PartitionSource(partition_auto(program, args.epoch_size))
        with ButterflyEngine(
            make_guard(args.lifeguard, source.preallocated),
            backend=backend, recorder=recorder,
        ) as engine:
            engine.attach_source(source)
            _drive_engine(args, engine, source)
    finally:
        backend.close()

    snap = recorder.snapshot()
    print(f"benchmark: {args.benchmark}, {args.threads} threads, "
          f"h={args.epoch_size} events, backend={args.backend}, "
          f"lifeguard={args.lifeguard}")
    print(f"events recorded: {len(recorder.events)}")
    if snap["spans"]:
        print("\nspans (aggregated):")
        rows = [
            (name, str(s["count"]),
             f"{s['total_ns'] / 1e6:.2f}",
             f"{s['total_ns'] / s['count'] / 1e3:.1f}",
             f"{s['max_ns'] / 1e3:.1f}")
            for name, s in sorted(snap["spans"].items())
        ]
        print(render_table(
            ("span", "count", "total ms", "mean us", "max us"), rows
        ))
    if snap["counters"]:
        print("\ncounters:")
        for name, value in sorted(snap["counters"].items()):
            print(f"  {name} = {value}")
    if snap["gauges"]:
        print("\ngauges:")
        for name, value in sorted(snap["gauges"].items()):
            print(f"  {name} = {value}")
    if args.summary_json:
        try:
            recorder.dump_snapshot(args.summary_json)
        except OSError as exc:
            return _fail("stats", f"cannot write {args.summary_json}: {exc}")
        print(f"wrote metrics summary to {args.summary_json}", file=sys.stderr)
    _finish_events(recorder, args)
    return 0


def _add_lifeguard_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lifeguard", default="addrcheck", choices=LIFEGUARD_CHOICES
    )


def _add_limit_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--limit", type=int, default=10,
        help="max reports to print; 0 prints the count only (default: 10)",
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default="serial", choices=BACKEND_CHOICES,
        help="engine execution backend (results are identical; "
             "default: serial)",
    )


def _add_emit_events_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit-events", default=None, metavar="PATH",
        help="write the observability event log to PATH as JSON lines",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. "
             "'crash=0.05,hang=0.02,corrupt=0.05,seed=7' "
             "(needs --backend threads|processes; see "
             "docs/robustness.md)",
    )
    parser.add_argument(
        "--retries", type=int, default=3,
        help="max retries per pooled work unit; 0 fails fast "
             "(default: 3)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=30.0,
        help="seconds before a pooled work unit is declared hung "
             "(default: 30)",
    )


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="write a checkpoint every N committed epochs (default: 1)",
    )
    parser.add_argument(
        "--stop-after-epoch", type=int, default=None, metavar="N",
        help="exit cleanly after receiving epoch N (kill/resume drill; "
             "the last checkpoint then covers epoch N-1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Butterfly analysis (ASPLOS 2010) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1 parameters").set_defaults(
        func=cmd_table1
    )
    for name, func in (
        ("figure11", cmd_figure11),
        ("figure12", cmd_figure12),
        ("figure13", cmd_figure13),
    ):
        p = sub.add_parser(name, help=f"regenerate {name}")
        _add_suite_args(p)
        p.set_defaults(func=func)

    p = sub.add_parser("generate", help="generate and save a trace")
    p.add_argument("--benchmark", default="OCEAN", choices=sorted(WORKLOADS))
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--events", type=int, default=16384)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", required=True, help="output trace file")
    p.add_argument("--epoch-size", type=int, default=512,
                   help="epoch geometry baked into a --stream trace "
                        "(default: 512)")
    p.add_argument(
        "--stream", action="store_true",
        help="write the epoch-major (version 4) stream layout; 'repro "
             "check' reads it back one epoch at a time",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="run a lifeguard on a workload")
    p.add_argument("--trace", default=None,
                   help="trace file from 'generate' (overrides --benchmark)")
    p.add_argument("--benchmark", default="OCEAN", choices=sorted(WORKLOADS))
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--events", type=int, default=16384)
    p.add_argument("--epoch-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=1)
    _add_lifeguard_arg(p)
    _add_limit_arg(p)
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="snapshot run state to PATH after each committed "
                        "epoch (resume with 'repro resume')")
    _add_checkpoint_args(p)
    _add_backend_arg(p)
    _add_resilience_args(p)
    _add_emit_events_arg(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "resume",
        help="continue a checkpointed run killed at an epoch boundary",
    )
    p.add_argument("--checkpoint", required=True, metavar="PATH",
                   help="checkpoint file written by 'repro check'")
    _add_limit_arg(p)
    _add_checkpoint_args(p)
    _add_backend_arg(p)
    _add_resilience_args(p)
    _add_emit_events_arg(p)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "sweep",
        help="epoch-size sweep for one benchmark: AddrCheck's slowdown, "
             "false positives against the sequential oracle and wall-"
             "clock cost at each size, and the fitted FP-rate/latency "
             "tradeoff the adaptive-epoch controller navigates (see "
             "docs/tuning.md)",
    )
    p.add_argument("--benchmark", default="OCEAN", choices=sorted(WORKLOADS))
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--events", type=int, default=16384)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--sizes", type=int, nargs="+",
        default=[256, 512, 1024, 2048, 4096],
    )
    p.add_argument(
        "--traces", nargs="+", default=None, metavar="PATH",
        help="sweep saved trace files instead of generating a benchmark",
    )
    p.add_argument(
        "--quarantine", default=None, metavar="DIR",
        help="move unparseable --traces files into DIR and continue "
             "instead of aborting the sweep",
    )
    p.add_argument(
        "--output", default=None, metavar="PATH",
        help="write each swept program's points and fitted curve to PATH, "
             "one JSON record per line (the sweep CI job asserts the "
             "fitted FP slope is nonnegative)",
    )
    _add_backend_arg(p)
    _add_resilience_args(p)
    _add_emit_events_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzz campaign: adversarial traces must agree "
             "across every mode pair; disagreements are shrunk to "
             "minimal repros",
    )
    p.add_argument("--seed", type=int, default=1,
                   help="campaign seed; trial i is a pure function of "
                        "(seed, i), so a seed replays its campaign")
    p.add_argument("--budget-seconds", type=float, default=None,
                   metavar="S",
                   help="stop starting new trials after S seconds")
    p.add_argument("--trials", type=int, default=None, metavar="N",
                   help=f"run exactly N trials (default {DEFAULT_TRIALS} "
                        "when no --budget-seconds)")
    p.add_argument("--modes", nargs="+", default=list(MODE_NAMES),
                   choices=MODE_NAMES, metavar="MODE",
                   help="mode pairs to check (default: all of "
                        f"{', '.join(MODE_NAMES)})")
    p.add_argument("--no-shrink", dest="shrink", action="store_false",
                   help="archive disagreements without delta-debugging "
                        "them to minimal repros")
    p.add_argument("--failures-dir", default="repro-failures",
                   metavar="DIR",
                   help="where minimal repros land (default: "
                        "repro-failures)")
    p.add_argument("--oracle-budget", type=int, default=9, metavar="N",
                   help="max instructions for the all-orderings oracle; "
                        "bigger traces skip the orderings pair "
                        "(default: 9)")
    p.add_argument("--backend", default="threads", choices=BACKEND_CHOICES,
                   help="parallel backend the backends pair compares "
                        "against serial (default: threads)")
    p.add_argument("--mutant", default=None, choices=sorted(MUTANTS),
                   help="self-test: activate a deliberate bug; the "
                        "campaign is then expected to exit 1 with a "
                        "tiny repro")
    _add_emit_events_arg(p)
    p.set_defaults(func=cmd_fuzz, shrink=True)

    p = sub.add_parser(
        "serve",
        help="run the trace-ingestion daemon: many concurrent streams, "
             "backpressure, per-stream checkpoints, graceful drain "
             "(see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP listen address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 picks a free one and prints it "
                        "(default: 0)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="listen on a Unix socket instead of TCP")
    p.add_argument("--workers", type=int, default=2,
                   help="engine shards; streams hash onto shards and "
                        "fold in parallel (default: 2)")
    p.add_argument("--shard-backend", default="thread",
                   choices=SHARD_BACKEND_CHOICES,
                   help="where shard engines live: 'thread' executors "
                        "in the daemon, or one long-lived worker "
                        "'process' per shard for real-core analysis "
                        "parallelism (default: thread)")
    p.add_argument("--metrics", type=int, default=None, metavar="PORT",
                   help="serve a live text /metrics-style snapshot of "
                        "the serve.* counters and gauges on this TCP "
                        "port (0 picks a free one and prints it)")
    p.add_argument("--queue-depth", type=int, default=4,
                   help="per-stream bounded epoch queue; a full queue "
                        "pauses that stream's socket reads "
                        "(default: 4)")
    p.add_argument("--max-streams", type=int, default=64,
                   help="active-stream cap; beyond it connects are "
                        "refused with ERROR busy (default: 64)")
    p.add_argument("--max-pending-epochs", type=int, default=256,
                   help="daemon-wide queued-epoch cap; beyond it the "
                        "newest stream is shed (default: 256)")
    p.add_argument("--idle-timeout", type=float, default=30.0,
                   help="seconds of producer silence before a session "
                        "is checkpointed and timed out (default: 30)")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="per-stream epoch-boundary checkpoints under "
                        "DIR; a restarted daemon resumes every "
                        "in-flight stream from here")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="checkpoint every N committed epochs "
                        "(default: 1)")
    p.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="write the serve.* metrics snapshot to PATH on drain",
    )
    p.add_argument(
        "--adaptive-epoch", action="store_true",
        help="resize the heartbeat online: an SLO controller folds "
             "producer epochs into larger analysis epochs while the "
             "fold latency budget holds, and shrinks back under "
             "breach or new errors; the REPORT records the cut "
             "stream actually analyzed (see docs/tuning.md)",
    )
    p.add_argument("--slo-target-ms", type=float, default=50.0,
                   metavar="MS",
                   help="adaptive: per-fold latency budget; a breach "
                        "halves the fold factor (default: 50)")
    p.add_argument("--slo-queue-high", type=int, default=3, metavar="N",
                   help="adaptive: queue depth at or above which the "
                        "fold factor doubles (default: 3)")
    p.add_argument("--slo-queue-low", type=int, default=1, metavar="N",
                   help="adaptive: queue depth at or below which the "
                        "fold factor shrinks by one (default: 1)")
    p.add_argument("--slo-min-fold", type=int, default=1, metavar="N",
                   help="adaptive: fold-factor floor (default: 1)")
    p.add_argument("--slo-max-fold", type=int, default=64, metavar="N",
                   help="adaptive: fold-factor ceiling (default: 64)")
    _add_emit_events_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "push",
        help="send a stream trace file to a running serve daemon and "
             "print its report (identical to 'repro check --trace')",
    )
    p.add_argument("--trace", required=True,
                   help="stream trace file (version 4) to push")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="daemon TCP address")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="daemon Unix socket path")
    p.add_argument("--stream-id", default=None,
                   help="stream identity for resume (default: the "
                        "trace file's basename)")
    _add_lifeguard_arg(p)
    _add_limit_arg(p)
    p.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic transport faults, e.g. "
             "'disconnect=0.1,stall=0.05,stall_s=1.5,seed=11' "
             "(see docs/robustness.md)",
    )
    p.add_argument("--retries", type=int, default=3,
                   help="reconnect-and-resume attempts after transport "
                        "failures (default: 3)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="socket timeout in seconds (default: 30)")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser(
        "stats",
        help="run one instrumented workload and print metrics "
             "(spans, counters, gauges)",
    )
    p.add_argument("--benchmark", default="OCEAN", choices=sorted(WORKLOADS))
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--events", type=int, default=16384)
    p.add_argument("--epoch-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=1)
    _add_lifeguard_arg(p)
    p.add_argument(
        "--summary-json", default=None, metavar="PATH",
        help="also write the metrics snapshot to PATH (atomic rename)",
    )
    _add_backend_arg(p)
    _add_resilience_args(p)
    _add_emit_events_arg(p)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "limit", 0) < 0:
        # format_report slices errors[:limit]; a negative one would
        # silently drop reports under a header that counts them all.
        return _fail(args.command, f"--limit must be >= 0, got {args.limit}")
    stop_after = getattr(args, "stop_after_epoch", None)
    if stop_after is not None and stop_after < 0:
        return _fail(
            args.command, f"--stop-after-epoch must be >= 0, got {stop_after}"
        )
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head).
        return 0
    except AnalysisError:
        # The engine was driven wrongly: a bug here, not in the
        # invocation, so it keeps its traceback.
        raise
    except ReproError as exc:
        return _fail(args.command, str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
