"""Run one workload in this process and print its metrics.

The untraced run (``--trace 0``) reports the end-to-end metrics with no
wrapper in any call path.  The traced run (``--trace 1``) alternates
plain and wrapped sweeps, reports each layer's median seconds per
input, and then replays the decode (or the daemon's per-stream work)
piece by piece.  Both check every report they produce.

Every timed operation sits between two host-speed bursts and is
reported in reference-host seconds (see ``hostspeed.py``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from statistics import median
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.columnar import HAVE_NUMPY
from repro.core.epoch import partition_auto

import spec
from daemon import Daemon, Usage, peak_rss_mb, run_round
from hostspeed import burst, speed
from layers import (
    DECODE_ROW_TOTAL,
    ENCODE_REPORT,
    HOOKS,
    PLAIN,
    Trace,
    recorder_on_ratio,
    replay_daemon_stream,
    replay_decode,
)
from sweeps import (
    Inputs,
    Reference,
    check,
    cols_guard,
    make_inputs,
    make_reference,
    sweep,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

Outcome = Tuple[Dict[str, float], Dict[str, Any], "Tally"]


def quantile(samples: List[float], q: float) -> float:
    """The smallest sample with at least ``q`` of the samples at or
    below it (no interpolation: it is always a measured value)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spread(values: List[float]) -> float:
    """``(max - min) / median``: how far one run's samples lie apart."""
    mid = median(values) if values else 0.0
    return (max(values) - min(values)) / mid if mid else 0.0


def mid(values: List[float]) -> float:
    return median(values) if values else 0.0


class Tally:
    """Attempted and failed operations, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if why not in self.reasons:
                self.reasons.append(why)

    def fail_all(self, why: str) -> None:
        self.failed = self.attempted
        self.reasons.append(why)


def timed_setups(make: Callable[[], Any],
                 release: Callable[[Any], None] = lambda product: None
                 ) -> Tuple[Any, List[float]]:
    """Set up ``SETUP_REPEATS`` times, releasing each product before
    the next is made; the last one is kept.  Returns it and every
    set-up's reference-host seconds."""
    seconds, product = [], None
    before = burst()
    for _ in range(spec.SETUP_REPEATS):
        if product is not None:
            release(product)
            product = None  # one input resident at a time
        t0 = perf_counter()
        product = make()
        wall = perf_counter() - t0
        after = burst()
        seconds.append(wall * speed(before, after)[0])
        before = after
    return product, seconds


def replayed(replay: Callable[[Trace], Any], times: int = 3
             ) -> Tuple[Trace, Any]:
    """Run ``replay`` ``times`` times, each between two bursts: a trace
    holding every span's median reference-host seconds (one replay is
    at the mercy of a single garbage collection), the last replay's
    call counts, and what the last replay returned."""
    traces, result = [], None
    before = burst()
    for _ in range(times):
        tr = Trace()
        result = replay(tr)
        after = burst()
        tr.scale(speed(before, after)[0])
        before = after
        traces.append(tr)
    merged = Trace()
    merged.n = traces[-1].n
    for name in traces[-1].s:
        merged.s[name] = median(tr.s[name] for tr in traces)
    return merged, result


def _reference(inputs: Inputs, corrupt: bool) -> Reference:
    ref = make_reference(inputs)
    if corrupt:  # the self-test's injected fault: every check must trip
        ref.digest = "corrupted-on-purpose"
    return ref


def _stats(report: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """The engine's work counts as the report carries them: equal on
    every path that delivers the same trace."""
    if report is None:
        return {}
    stats = report["stats"]
    return {
        "epochs": stats["epochs_processed"],
        "meets": stats["meets"],
        "wing_summaries_combined": stats["wing_summaries_combined"],
        "window_high_water": report["window_high_water"],
        "errors": len(report.get("errors", ())),
    }


def reset_peak_rss() -> None:
    """Restart ``VmHWM`` from what is resident now, so the peak read
    after the sweeps is theirs and not the reference computation's."""
    try:
        with open("/proc/self/clear_refs", "w") as fp:
            fp.write("5")
    except OSError:
        pass  # not permitted here: the peak then covers the whole run


# -- in-process workloads -----------------------------------------------------


def _timed_sweep(inputs: Inputs, ref: Reference, tally: Tally,
                 epoch_s: List[float], tr: Any = PLAIN):
    """One checked sweep: ``(wall s, cpu s, report, fp_rate)``."""
    c0, t0 = process_time(), perf_counter()
    try:
        report, lines, guard = sweep(inputs, epoch_s, tr)
    except Exception as exc:  # a failed operation is a result, not a crash
        tally.add(False, f"{type(exc).__name__}: {exc}")
        return perf_counter() - t0, process_time() - c0, None, None
    wall, cpu = perf_counter() - t0, process_time() - c0
    ok, why, fp_rate = check(inputs, ref, report, lines, guard)
    tally.add(ok, why)
    return wall, cpu, report, fp_rate


def run_in_process(workload, params, seed, seconds, tmp, corrupt) -> Outcome:
    inputs, setups = timed_setups(
        lambda: make_inputs(workload.kind, params, seed, tmp)
    )
    ref = _reference(inputs, corrupt)
    tally = Tally()
    _timed_sweep(inputs, ref, Tally(), [])  # warm-up, discarded
    reset_peak_rss()
    walls, cpus, epoch_ms, factors = [], [], [], []
    report = fp_rate = None
    # Whole sweeps until the time is up, so a run's length is fixed in
    # time and survives a 10x speed-up unresized.  Sweep values are
    # medians over the sweeps, each scaled by the bursts on either
    # side; epoch samples are scaled the same way and pooled over the
    # window, so the 95th percentile has hundreds of samples beyond it.
    before = burst()
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        epoch_s: List[float] = []
        wall, cpu, report, fp_rate = _timed_sweep(inputs, ref, tally, epoch_s)
        after = burst()
        wall_f, cpu_f = speed(before, after)
        before = after
        factors.append(wall_f)
        walls.append(wall * wall_f)
        cpus.append(cpu * cpu_f)
        epoch_ms.extend(1e3 * wall_f * s for s in epoch_s)
    mev = inputs.events / 1e6
    metrics = {
        "events_per_s": inputs.events / median(walls),
        "cpu_s_per_mev": median(cpus) / mev,
        "epoch_ms_p50": mid(epoch_ms),
        "epoch_ms_p95": quantile(epoch_ms, 0.95),
        "peak_rss_mb": peak_rss_mb(os.getpid()),
        "setup_s": median(setups),
    }
    detail = {
        "events_per_input": inputs.events,
        "epochs_per_input": inputs.epochs,
        "inputs": len(walls),
        "epoch_samples": len(epoch_ms),
        "host_speed": median(factors),
        "spread": {
            "events_per_s": spread(walls), "cpu_s_per_mev": spread(cpus),
            "setup_s": spread(setups),
        },
        "samples": {"input_s": walls, "cpu_s": cpus, "setup_s": setups},
        "digest": ref.digest,
        "fp_rate": fp_rate,
        "stats": _stats(report),
    }
    return metrics, detail, tally


def trace_in_process(workload, params, seed, seconds, tmp, corrupt) -> Outcome:
    inputs = make_inputs(workload.kind, params, seed, tmp)
    ref = _reference(inputs, corrupt)
    tally = Tally()
    _timed_sweep(inputs, ref, Tally(), [])  # warm-up, discarded
    plain, traced, traces = [], [], []
    report = fp_rate = None
    # Plain and traced sweeps alternate so both see the same machine;
    # the replays below need the rest of the run's time.
    end = perf_counter() + 0.6 * seconds
    before = burst()
    while len(traces) < 2 or perf_counter() < end:
        wall = _timed_sweep(inputs, ref, tally, [])[0]
        between = burst()
        plain.append(wall * speed(before, between)[0])
        tr = Trace()
        wall, _cpu, report, fp_rate = _timed_sweep(inputs, ref, tally, [], tr)
        before = burst()
        factor = speed(between, before)[0]
        tr.scale(factor)
        traced.append(wall * factor)
        traces.append(tr)
    out = {m.name: 0.0 for m in spec.PER_LAYER}
    for name in out:
        if any(name in tr.s for tr in traces):
            out[name] = median(tr.s[name] for tr in traces)
    sweep_s = median(traced)
    out["bench.sweep_s"] = sweep_s
    out["bench.trace_overhead_ratio"] = sweep_s / median(plain)
    out["bench.untraced_share"] = median(
        1.0 - sum(tr.s[name] for name in spec.SWEEP_PARTS) / wall
        for tr, wall in zip(traces, traced)
    )
    layer = f"lifeguards.{inputs.lifeguard}"
    _fill_framework(out, layer, _stats(report),
                    traces[-1].n[f"{layer}.first_pass_s"])
    out["lifeguards.sequential.oracle_s"] = ref.oracle_s
    out["lifeguards.sequential.fp_rate"] = fp_rate or 0.0
    if inputs.kind == "file":
        replay, _ = replayed(lambda tr: replay_decode(inputs.path, tr))
        _fill_decode(out, replay)
        _fill_file(out, inputs)
    elif inputs.kind == "ocean":
        # What it costs to turn a fresh partition's Instr tuples into
        # columns, for whichever kernel asks for them.
        def to_columns(tr: Trace) -> None:
            fresh = partition_auto(inputs.program, inputs.epoch_size)
            for block in fresh.iter_blocks():
                tr.call("core.columnar.from_instrs_s", getattr,
                        block, "columns")

        replay, _ = replayed(to_columns)
        out["core.columnar.from_instrs_s"] = replay.s[
            "core.columnar.from_instrs_s"
        ]
    elif workload.name == "cols_addr_small_h":
        out["obs.recorder_on_ratio"] = recorder_on_ratio(
            inputs.source, inputs.rows, lambda: cols_guard(inputs)
        )
    detail = {"inputs": len(plain) + len(traced), "digest": ref.digest,
              "stats": _stats(report)}
    return out, detail, tally


def _fill_framework(out: Dict[str, float], layer: str,
                    stats: Dict[str, int], blocks: int) -> None:
    hooks = sum(out[f"{layer}.{hook}_s"] for hook in HOOKS)
    out["core.framework.self_s"] = (
        out["core.framework.feed_s"] + out["core.framework.finish_s"]
        - hooks - out["resilience.checkpoint.save_s"]
    )
    out["core.framework.blocks"] = blocks
    for name in ("epochs", "meets", "wing_summaries_combined",
                 "window_high_water"):
        out[f"core.framework.{name}"] = stats.get(name, 0)
    out[f"{layer}.errors"] = stats.get("errors", 0)
    if layer == "lifeguards.addrcheck":
        out[f"{layer}.first_pass_us_per_block"] = (
            1e6 * out[f"{layer}.first_pass_s"] / max(blocks, 1)
        )


def _fill_decode(out: Dict[str, float], replay: Trace) -> None:
    for name in ("trace.serialize.read_s", "trace.serialize.json_s",
                 "core.columnar.from_rows_s", "core.columnar.to_rows_s"):
        out[name] = replay.s[name]
    # from_rows is timed in a second call on the same rows, so on a
    # tiny input the difference can come out a hair below nothing.
    out["trace.serialize.decode_row_s"] = max(
        0.0, replay.s[DECODE_ROW_TOTAL] - replay.s["core.columnar.from_rows_s"]
    )


def _fill_file(out: Dict[str, float], inputs: Inputs) -> None:
    out["trace.serialize.save_s"] = inputs.save_s
    out["trace.serialize.bytes_per_event"] = (
        os.path.getsize(inputs.path) / inputs.events
    )


# -- serve workloads ----------------------------------------------------------


class Round:
    """One stream per producer, pushed together and all answered:
    the streams, the CPU the round cost ``(client, loop, workers)`` and
    the host-speed factors of the bursts around it."""

    def __init__(self, streams, cpu, factors) -> None:
        self.streams = streams
        self.cpu = cpu
        self.wall_f, self.cpu_f = factors
        self.ok = 0  # streams whose REPORT checked out


def _drive_daemon(workload, params, seed, seconds, tmp, corrupt):
    """Set up (write the file, start the daemon, wait for its banner),
    warm, push rounds for ``seconds``, account, stop."""

    def set_up():
        inputs = make_inputs(workload.kind, params, seed, tmp)
        return inputs, Daemon(SRC, tmp, params["shard_backend"],
                              params["workers"])

    def let_go(product) -> None:
        why = product[1].stop()
        if why:
            raise RuntimeError(why)

    (inputs, daemon), setups = timed_setups(set_up, let_go)
    tally = Tally()
    rounds: List[Round] = []
    try:
        ref = _reference(inputs, corrupt)
        # Warm-up: one stream per producer spawns the shard workers and
        # pays their first imports outside the timed window.
        run_round(daemon, inputs.path, f"warm{seed}", params["producers"])
        before = burst()
        usage = Usage(daemon)
        deadline = perf_counter() + seconds
        while not rounds or perf_counter() < deadline:
            streams = run_round(daemon, inputs.path,
                                f"run{seed}-{len(rounds)}",
                                params["producers"])
            client_cpu = process_time() - usage.client
            after = burst()
            # The daemon's CPU runs to the next round's start: what it
            # does after answering belongs to the stream it answered.
            later = Usage(daemon)
            cpu = (client_cpu, later.loop - usage.loop,
                   later.workers - usage.workers)
            rounds.append(Round(streams, cpu, speed(before, after)))
            before, usage = after, later
        rss = [peak_rss_mb(pid) for pid in daemon.tree()]
        scraped = daemon.scrape()
    finally:
        why = daemon.stop()
    report = None
    for one in rounds:
        for stream in one.streams:
            if stream.report is None:
                tally.add(False, stream.error)
                continue
            ok, why_not, _ = check(inputs, ref, stream.report)
            tally.add(ok, why_not)
            one.ok += ok
            report = stream.report
    if why:
        tally.fail_all(why)
    return {
        "inputs": inputs, "ref": ref, "setups": setups, "tally": tally,
        "rounds": rounds, "rss": rss, "scraped": scraped, "report": report,
    }


def run_serve(workload, params, seed, seconds, tmp, corrupt) -> Outcome:
    run = _drive_daemon(workload, params, seed, seconds, tmp, corrupt)
    inputs, rounds = run["inputs"], run["rounds"]
    # A round's rate is the sum of its concurrent streams' rates; both
    # it and the round's CPU per event are medians over the rounds.
    rates = [
        sum(inputs.events / (s.wall * one.wall_f)
            for s in one.streams if s.report is not None)
        for one in rounds
    ]
    cpus = [
        sum(one.cpu) * one.cpu_f / (one.ok * inputs.events / 1e6)
        for one in rounds if one.ok
    ]
    walls = [s.wall * one.wall_f for one in rounds for s in one.streams
             if s.report is not None] or [0.0]
    epoch_ms = [1e3 * wall / inputs.epochs for wall in walls]
    metrics = {
        "events_per_s": median(rates),
        "cpu_s_per_mev": mid(cpus),
        "epoch_ms_p50": median(epoch_ms),
        "epoch_ms_p95": quantile(epoch_ms, 0.95),
        "peak_rss_mb": sum(run["rss"]),
        "setup_s": median(run["setups"]),
    }
    detail = {
        "events_per_input": inputs.events,
        "epochs_per_input": inputs.epochs,
        "inputs": len(walls),
        "epoch_samples": len(walls),
        "host_speed": median(one.wall_f for one in rounds),
        "spread": {
            "events_per_s": spread(rates), "cpu_s_per_mev": spread(cpus),
            "epoch_ms_p50": spread(epoch_ms),
            "setup_s": spread(run["setups"]),
        },
        "samples": {"input_s": walls, "round_events_per_s": rates,
                    "round_cpu_s_per_mev": cpus, "setup_s": run["setups"]},
        "digest": run["ref"].digest,
        "stats": _stats(run["report"]),
    }
    return metrics, detail, run["tally"]


def trace_serve(workload, params, seed, seconds, tmp, corrupt) -> Outcome:
    run = _drive_daemon(workload, params, seed, 0.6 * seconds, tmp, corrupt)
    inputs, rounds = run["inputs"], run["rounds"]
    walls = [s.wall * one.wall_f for one in rounds for s in one.streams]
    client_cpu, loop_cpu, worker_cpu = (
        median(one.cpu[i] * one.cpu_f / len(one.streams) for one in rounds)
        for i in range(3)
    )
    scraped = run["scraped"]
    completed = scraped.get("repro_serve_streams_completed", 0.0)
    out = {m.name: 0.0 for m in spec.PER_LAYER}
    out.update({
        "serve.client.push_s": median(walls),
        "serve.client.client_cpu_s": client_cpu,
        "serve.server.loop_cpu_s": loop_cpu,
        "serve.server.rss_mb": run["rss"][0],
        "serve.server.streams_completed": completed,
        "serve.shards.worker_cpu_s": worker_cpu,
        "serve.shards.worker_rss_mb": sum(run["rss"][1:]),
        "bench.sweep_s": median(walls),
        "bench.trace_overhead_ratio": 1.0,  # the daemon runs unwrapped
    })
    for name in ("bytes_ingested", "backpressure_stalls", "epochs_folded"):
        out[f"serve.server.{name}"] = (
            scraped.get(f"repro_serve_{name}", 0.0) / max(completed, 1.0)
        )
    _fill_file(out, inputs)
    # The daemon's per-stream work again, serially, under the wrappers.
    replay, stream = replayed(lambda tr: replay_daemon_stream(
        inputs.path, os.path.join(tmp, "replay-checkpoints"),
        params["shard_backend"] == "process", tr,
    ))
    for name in out:
        if name in replay.s:
            out[name] = replay.s[name]
    _fill_decode(out, replay)
    _fill_framework(out, "lifeguards.addrcheck", _stats(run["report"]),
                    replay.n["lifeguards.addrcheck.first_pass_s"])
    saves = replay.n["resilience.checkpoint.save_s"]
    out["resilience.checkpoint.saves"] = saves
    out["resilience.checkpoint.bytes_per_save"] = (
        stream["checkpoint_bytes"] / max(saves, 1)
    )
    out["serve.protocol.report_bytes"] = stream["report_bytes"]
    out["core.columnar.pickle_bytes_per_event"] = (
        stream["pickled_bytes"] / inputs.events
    )
    daemon_side = sum(replay.s[name] for name in (
        "serve.protocol.decode_payload_s", DECODE_ROW_TOTAL,
        "core.columnar.pickle_roundtrip_s", "core.framework.feed_s",
        "core.framework.finish_s", "serve.protocol.build_report_s",
        ENCODE_REPORT,
    ))
    out["bench.untraced_share"] = 1.0 - daemon_side / (loop_cpu + worker_cpu)
    ok, why, _ = check(inputs, run["ref"], stream["report"])
    run["tally"].add(ok, f"replay: {why}")
    detail = {"inputs": len(walls), "digest": run["ref"].digest,
              "stats": _stats(run["report"])}
    return out, detail, run["tally"]


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, corrupt: bool) -> int:
    """Run one workload and print its metrics; the exit code.

    The last line printed is the driver's result object; the line
    before it (``detail ...``) carries what the suite needs besides:
    sample counts, spreads, the report digest, the engine's counts.
    """
    workload = spec.WORKLOADS_BY_NAME[name]
    params = dict(workload.params, **(workload.smoke if smoke else {}))
    runner = {
        (False, False): run_in_process, (False, True): trace_in_process,
        (True, False): run_serve, (True, True): trace_serve,
    }[workload.kind == "serve", trace]
    # Everything written -- trace files, checkpoints, the daemon's
    # stderr -- lives under one directory inside the checkout.
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    started = perf_counter()
    try:
        values, detail, tally = runner(workload, params, seed, seconds, tmp,
                                       corrupt)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run's directory is still in there
    listed = spec.PER_LAYER if trace else spec.END_TO_END
    spreads = detail.get("spread", {})
    for metric in listed:
        line = (f"{name:18s} {metric.name:42s} "
                f"{values[metric.name]:>14.6g} {metric.unit}")
        if metric.name in spreads:
            line += f"  spread {spreads[metric.name]:.1%}"
        print(line)
    for why in tally.reasons:
        print(f"{name}: FAILED: {why}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    detail.update(
        workload=name, seed=seed, seconds=seconds, smoke=smoke,
        failed_share=tally.failed / max(tally.attempted, 1),
        run_s=perf_counter() - started,
        numpy=_numpy_version(),
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in listed
        },
    }))
    return 0 if correct else 1


def _numpy_version() -> str:
    if not HAVE_NUMPY:
        return "REPRO_NO_NUMPY"
    import numpy

    return numpy.__version__
