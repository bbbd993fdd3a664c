"""Seeded inputs and the in-process paths from input to report.

A *sweep* takes one complete input to its report by the same public
calls the CLI makes: ``repro check --benchmark`` for ``paper_ocean``,
``repro check --trace`` for ``file_check``, and the generator-fed
engine loop of ``repro bench`` for ``cols_*``.  Inputs come from the
seed alone; the program only ever receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.epoch import partition_auto
from repro.core.framework import ButterflyEngine
from repro.core.stream import PartitionSource
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.lifeguards.reports import compare_reports
from repro.lifeguards.sequential import SequentialAddrCheck
from repro.lifeguards.taintcheck import ButterflyTaintCheck
from repro.serve.protocol import build_report, format_report, make_hello
from repro.serve.shards import make_guard
from repro.trace.generator import ColumnarAllocSource, ColumnarTaintSource
from repro.trace.serialize import (
    STREAM_VERSION,
    file_version,
    iter_load,
    save_stream_file,
)
from repro.workloads.registry import get_benchmark

from layers import PLAIN

#: Stream id and label every path reports under, so reports compare.
LABEL = "bench"


@dataclass
class Inputs:
    """What one set-up produced for one workload."""

    kind: str
    lifeguard: str
    threads: int
    events: int  # per input (sweep or stream)
    epochs: int
    # cols
    source: Any = None
    rows: Optional[List[list]] = None
    params: Optional[Dict[str, Any]] = None
    seed: int = 0
    # ocean / file / serve
    program: Any = None
    epoch_size: int = 0
    path: Optional[str] = None
    save_s: float = 0.0


def make_inputs(kind: str, params: Dict[str, Any], seed: int,
                tmp: str) -> Inputs:
    """Generate one workload's input from ``seed`` (set-up, timed by
    the caller).  Files go through the program's own writer with its
    default arguments, so a new default format is measured as is."""
    if kind == "cols":
        source = _cols_source(params, seed, params["epochs"])
        rows = list(source.epochs())
        return Inputs(kind, params["lifeguard"], source.num_threads,
                      source.total_events, len(rows),
                      source=source, rows=rows, params=params, seed=seed)
    program = get_benchmark(params["benchmark"]).generate(
        params["threads"], params["events_per_thread"], seed=seed
    )
    inputs = Inputs(kind, "addrcheck", program.num_threads,
                    program.total_instructions, 0,
                    program=program, epoch_size=params["epoch_size"])
    partition = partition_auto(program, inputs.epoch_size)
    inputs.epochs = partition.num_epochs
    if kind != "ocean":
        inputs.path = os.path.join(tmp, f"ocean-{seed}.jsonl")
        t0 = perf_counter()
        save_stream_file(partition, inputs.path)
        inputs.save_s = perf_counter() - t0
    return inputs


def _cols_source(params: Dict[str, Any], seed: int, epochs: int) -> Any:
    shape = dict(
        num_threads=params["threads"],
        num_epochs=epochs,
        events_per_block=params["events_per_block"],
        error_rate=params["error_rate"],
    )
    if params["lifeguard"] == "taintcheck":
        return ColumnarTaintSource(
            seed, taint_period=params["taint_period"], **shape
        )
    return ColumnarAllocSource(seed, **shape)


def cols_guard(inputs: Inputs, columnar: Optional[bool] = None) -> Any:
    if inputs.lifeguard == "taintcheck":
        return ButterflyTaintCheck(use_columnar_kernel=columnar)
    return ButterflyAddrCheck(
        initially_allocated=inputs.source.preallocated,
        use_columnar_kernel=columnar,
    )


def sweep(inputs: Inputs, epoch_s: List[float], tr: Any = PLAIN
          ) -> Tuple[Dict[str, Any], List[str], Any]:
    """One input -> ``(report, printed lines, guard)``; appends one wall-seconds
    sample per epoch ("pull next epoch + feed") to ``epoch_s``.

    ``tr`` wraps the layer boundaries in the traced run and is the
    identity otherwise, so both runs execute this same code.
    """
    kind = inputs.kind
    layer = f"lifeguards.{inputs.lifeguard}"
    if kind == "cols":
        guard = tr.guard(cols_guard(inputs), layer)
        engine = ButterflyEngine(guard)
        engine.attach_source(inputs.source)
        rows, feed = inputs.rows, engine.feed_blocks
    elif kind == "ocean":
        partition = tr.call("core.epoch.partition_s", partition_auto,
                            inputs.program, inputs.epoch_size)
        guard = tr.guard(
            make_guard("addrcheck", inputs.program.preallocated), layer
        )
        engine = ButterflyEngine(guard)
        engine.attach(partition)
        rows = range(partition.num_epochs)
        feed = lambda lid, _lid: engine.feed_epoch(lid)  # noqa: E731
    else:
        source = tr.call("trace.serialize.source_next_s", _open_stream,
                         inputs.path)
        guard = tr.guard(make_guard("addrcheck", source.preallocated), layer)
        engine = ButterflyEngine(guard)
        engine.attach_source(source)
        rows, feed = source.epochs(0), engine.feed_blocks
    rows = tr.iter("trace.serialize.source_next_s", rows)
    feed = tr.wrap("core.framework.feed_s", feed)
    try:
        t0 = perf_counter()
        for lid, row in enumerate(rows):
            feed(lid, row)
            t1 = perf_counter()
            epoch_s.append(t1 - t0)
            t0 = t1
        tr.call("core.framework.finish_s", engine.finish)
    finally:
        close = getattr(rows, "close", None)
        if close is not None:
            close()
        engine.close()
    hello = make_hello(LABEL, inputs.threads, inputs.epochs, (),
                       inputs.lifeguard)
    report = tr.call("serve.protocol.build_report_s", build_report,
                     LABEL, hello, engine, guard)
    lines = tr.call("serve.protocol.format_report_s",
                    format_report, report, LABEL)
    return report, lines, guard


def _open_stream(path: str) -> Any:
    if file_version(path) != STREAM_VERSION:
        raise ValueError(f"{path}: the writer's default is no longer a "
                         f"stream file; file_check needs a new reader call")
    return iter_load(path)


def report_digest(report: Dict[str, Any],
                  lines: Optional[List[str]] = None) -> str:
    """sha256 over the whole report and its rendered block, with the
    stream id and label normalised, so any two paths can be compared.
    (Dicts are compared, not ``guard.errors``: the log has no ``__eq__``.)"""
    body = {k: v for k, v in report.items() if k != "stream"}
    if lines is None:
        lines = format_report(report, LABEL)
    blob = json.dumps(body, sort_keys=True) + "\n" + "\n".join(lines)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Reference:
    """What every input's report must match, computed once per run."""

    digest: Optional[str] = None  # None: the first sweep's digest
    truth: Any = None  # sequential oracle's error log (paper_ocean)
    memory_ops: int = 0
    oracle_s: float = 0.0
    identity_ok: bool = True
    detail: str = ""


def make_reference(inputs: Inputs) -> Reference:
    """The expected results, by a path other than the one measured.

    OCEAN paths: the offline report of the in-memory partition streamed
    through ``run_source`` -- the one digest ``paper_ocean``,
    ``file_check`` and every serve REPORT must all equal.
    ``paper_ocean`` adds the sequential oracle (zero false negatives).
    ``cols_*``: the columnar kernel must agree with the per-``Instr``
    kernel on the first 1/16 of the epochs (blocks are a pure function
    of ``(seed, l, t)``, so a shorter source has the same prefix).
    """
    ref = Reference()
    if inputs.kind == "cols":
        prefix = _cols_source(inputs.params, inputs.seed,
                              max(3, inputs.epochs // 16))
        logs = []
        for columnar, source in ((None, prefix), (False, prefix.as_objects())):
            guard = cols_guard(inputs, columnar)
            ButterflyEngine(guard).run_source(source)
            logs.append([
                (r.kind.value, r.location, r.ref, r.block, r.detail)
                for r in guard.errors.reports
            ])
        ref.identity_ok = logs[0] == logs[1]
        if not ref.identity_ok:
            ref.detail = "columnar kernel disagrees with per-Instr kernel"
        return ref
    program = inputs.program
    partition = partition_auto(program, inputs.epoch_size)
    guard = make_guard("addrcheck", program.preallocated)
    engine = ButterflyEngine(guard)
    engine.run_source(PartitionSource(partition))
    hello = make_hello(LABEL, inputs.threads, inputs.epochs, (), "addrcheck")
    ref.digest = report_digest(build_report(LABEL, hello, engine, guard))
    if inputs.kind == "ocean":
        t0 = perf_counter()
        oracle = SequentialAddrCheck(program.preallocated)
        oracle.run_order(program)
        ref.oracle_s = perf_counter() - t0
        ref.truth = oracle.errors
        ref.memory_ops = program.memory_op_count
    return ref


def check(inputs: Inputs, ref: Reference, report: Dict[str, Any],
          lines: Optional[List[str]] = None, guard: Any = None
          ) -> Tuple[bool, str, Optional[float]]:
    """``(ok, why-not, fp_rate)`` for one finished input."""
    if not ref.identity_ok:
        return False, ref.detail, None
    digest = report_digest(report, lines)
    if ref.digest is None:
        ref.digest = digest  # cols_*: every later sweep must repeat it
    if digest != ref.digest:
        return False, f"report digest {digest[:12]} != {ref.digest[:12]}", None
    flags = report.get("errors", ())
    if inputs.kind == "cols" and not flags:
        return False, "no errors flagged on an error-injected input", None
    fp_rate = None
    if ref.truth is not None and guard is not None:
        precision = compare_reports(ref.truth, guard.errors, ref.memory_ops)
        if precision.false_negatives:
            return (False,
                    f"{precision.false_negatives} false negatives", None)
        fp_rate = precision.false_positive_rate
    return True, "", fp_rate
