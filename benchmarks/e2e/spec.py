"""What the benchmark measures: workloads, metrics, bounds, predictions.

The one place a name is defined.  ``run.py`` emits exactly these
metrics, ``BENCHMARK.json`` is :func:`contract` written out
(``run.py --write BENCHMARK.json``), and the README tables follow the
same order.  Workload and metric names are fixed: later issues cite
them.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

#: How long one run measures, in seconds (the driver passes it back as
#: ``--seconds``).  A run is set-up + reference + warm-up + this.
RUN_SECONDS = 13

#: Set-up is repeated this many times and ``setup_s`` is the median.
SETUP_REPEATS = 3

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


class Workload(NamedTuple):
    name: str
    kind: str  # "cols" | "ocean" | "file" | "serve"
    params: Dict[str, Any]
    smoke: Dict[str, Any]  # overrides that shrink the input ~50x
    why: str


#: The OCEAN trace shared by the four delivery paths.  Sized for the
#: serve workloads: the daemon spends about a tenth of a second per
#: *epoch* whatever its size, so only a short stream (five epochs,
#: ~35 000 events, half a second) gives a ten-second window the dozens
#: of pushed streams a median and a 95th percentile need.
_OCEAN = {"benchmark": "OCEAN", "threads": 4, "events_per_thread": 11_500,
          "epoch_size": 2048}
_OCEAN_SMOKE = {"events_per_thread": 2_000, "epoch_size": 512}

WORKLOADS: List[Workload] = [
    Workload(
        "cols_addr", "cols",
        {"lifeguard": "addrcheck", "threads": 4, "epochs": 40,
         "events_per_block": 25_000, "error_rate": 1e-3},
        {"epochs": 4, "events_per_block": 5_000},
        "Kernel-bound: large in-memory column blocks, zero decode. A "
        "kernel or executor change must show here; a file, wire or "
        "checkpoint change must show nothing.",
    ),
    Workload(
        "cols_addr_small_h", "cols",
        {"lifeguard": "addrcheck", "threads": 4, "epochs": 488,
         "events_per_block": 512, "error_rate": 1e-3},
        {"epochs": 10},
        "Same kernels, ~2000 tiny blocks per sweep, so per-block and "
        "per-epoch fixed cost dominates; the latency configuration "
        "--adaptive-epoch shrinks towards.",
    ),
    Workload(
        "cols_taint", "cols",
        {"lifeguard": "taintcheck", "threads": 4, "epochs": 60,
         "events_per_block": 8192, "taint_period": 16, "error_rate": 1e-2},
        {"epochs": 3, "events_per_block": 3_072},
        "Second lifeguard and the dataflow second pass, dense enough "
        "in taint-moving rows that the READ-skipping kernel cannot "
        "no-op it.",
    ),
    Workload(
        "paper_ocean", "ocean", _OCEAN, _OCEAN_SMOKE,
        "The repro check --benchmark path of Figs. 11-13: object-backed "
        "blocks, real sharing, thousands of flags, so partition, "
        "object-to-column conversion, meet, second pass and report "
        "building all work.",
    ),
    Workload(
        "file_check", "file", _OCEAN, _OCEAN_SMOKE,
        "The same OCEAN partition as a stream file through the repro "
        "check --trace calls: bytes on disk to report. Decode does "
        "most of the work here and none in cols_* or paper_ocean.",
    ),
    Workload(
        "serve_thread", "serve",
        dict(_OCEAN, shard_backend="thread", workers=2, producers=2),
        _OCEAN_SMOKE,
        "A real repro serve daemon (thread shards, checkpoints on) fed "
        "the file_check file by 2 closed-loop push_trace producers: "
        "client, framing, loop, decode, queue, fold, checkpoint, REPORT.",
    ),
    Workload(
        "serve_process", "serve",
        dict(_OCEAN, shard_backend="process", workers=2, producers=2),
        _OCEAN_SMOKE,
        "Identical but process shards: adds the pipe and pickle hop, "
        "removes the GIL. Like-for-like with serve_thread.",
    ),
]

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}
OCEAN_KINDS = ("ocean", "file", "serve")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float  # end-to-end only; 0.0 for per-layer
    note: str


#: Every workload reports every end-to-end metric (the contract), so
#: each is defined on both kinds of run: an *input* is one sweep
#: (in-process) or one pushed stream (serve).  All seconds are
#: reference-host seconds (``hostspeed.py``).  The bounds are what this
#: host's run-to-run spread supports: three times the widest quartile
#: spread seen over ten seeds, capped at the contract's 0.25.
END_TO_END: List[Metric] = [
    Metric("events_per_s", "1/s", "higher", 0.25,
           "events folded per wall second"),
    Metric("cpu_s_per_mev", "s", "lower", 0.25,
           "CPU seconds (user+sys of every process involved: driver-"
           "side producers, daemon, shard workers) per million events"),
    Metric("epoch_ms_p50", "ms", "lower", 0.25,
           "median wall ms per epoch: one 'pull next epoch + feed' "
           "iteration in-process; a stream's push-to-REPORT time over "
           "its epochs for serve (the daemon acks no single epoch)"),
    Metric("epoch_ms_p95", "ms", "lower", 0.25,
           "95th percentile of the same: within each sweep, then the "
           "median over sweeps; over the run's streams for serve"),
    Metric("peak_rss_mb", "MB", "lower", 0.12,
           "peak RSS of the analysing process during the timed window "
           "(this process, or the daemon plus its shard workers' VmHWM)"),
    Metric("setup_s", "s", "lower", 0.25,
           "median wall s of one set-up: generation, materialisation, "
           "file writing, daemon start to banner"),
]


def _layer(layer: str, rows: List[tuple]) -> List[Metric]:
    return [
        Metric(f"{layer}.{name}", unit, better, 0.0, note)
        for name, unit, better, note in rows
    ]


#: Per-layer metrics, grouped by the module they time.  ``s`` is
#: seconds per input (sweep or stream); a note says which end-to-end
#: metric the layer should move, and on which workload.
PER_LAYER: List[Metric] = (
    _layer("trace.serialize", [
        ("source_next_s", "s", "lower",
         "time inside source.epochs(): moves events_per_s on "
         "file_check; ~0 on cols_*, paper_ocean"),
        ("read_s", "s", "lower", "decode replay: readline"),
        ("json_s", "s", "lower", "decode replay: json.loads"),
        ("decode_row_s", "s", "lower",
         "decode replay: decode_epoch_row minus from_rows"),
        ("bytes_per_event", "B", "lower", "stream file bytes per event"),
        ("save_s", "s", "lower", "save_stream_file: moves setup_s"),
    ])
    + _layer("core.columnar", [
        ("from_rows_s", "s", "lower",
         "decode replay: ColumnarBlock.from_rows; file_check, serve_*"),
        ("to_rows_s", "s", "lower", "replay: columns.to_rows"),
        ("from_instrs_s", "s", "lower",
         "first .columns access on a fresh object-backed partition; "
         "paper_ocean only"),
        ("pickle_roundtrip_s", "s", "lower",
         "pickle dumps+loads of every epoch row; serve_process only"),
        ("pickle_bytes_per_event", "B", "lower", "serve_process only"),
    ])
    + _layer("core.epoch", [
        ("partition_s", "s", "lower",
         "partition_auto; moves events_per_s on paper_ocean"),
    ])
    + _layer("core.framework", [
        ("feed_s", "s", "lower", "sum of feed_epoch/feed_blocks calls"),
        ("finish_s", "s", "lower", "engine.finish"),
        ("self_s", "s", "lower",
         "feed+finish minus guard hooks (and checkpoint saves): moves "
         "epoch_ms_* and events_per_s on cols_addr_small_h, little on "
         "cols_addr"),
        ("epochs", "count", "lower", "epochs processed per input"),
        ("blocks", "count", "lower", "blocks first-passed per input"),
        ("meets", "count", "lower", "identical on the four OCEAN paths"),
        ("wing_summaries_combined", "count", "lower",
         "identical on the four OCEAN paths"),
        ("window_high_water", "count", "lower", "at most 3 x threads"),
    ])
    + _layer("lifeguards.addrcheck", [
        ("first_pass_s", "s", "lower",
         "moves events_per_s on cols_addr (dominant there)"),
        ("meet_s", "s", "lower", "visible on paper_ocean"),
        ("second_pass_s", "s", "lower", "visible on paper_ocean"),
        ("epoch_update_s", "s", "lower", ""),
        ("first_pass_us_per_block", "us", "lower",
         "the per-block cost cols_addr_small_h multiplies by ~2000"),
        ("errors", "count", "lower", "flags raised per input"),
    ])
    + _layer("lifeguards.taintcheck", [
        ("first_pass_s", "s", "lower", "cols_taint only"),
        ("meet_s", "s", "lower", "cols_taint only"),
        ("second_pass_s", "s", "lower", "cols_taint only"),
        ("epoch_update_s", "s", "lower", "cols_taint only"),
        ("errors", "count", "lower", "cols_taint only"),
    ])
    + _layer("lifeguards.sequential", [
        ("oracle_s", "s", "lower",
         "SequentialAddrCheck.run_order, once per run; paper_ocean"),
        ("fp_rate", "ratio", "lower",
         "flagged-but-not-true / memory accesses vs the oracle; an "
         "exact count ratio per seed; paper_ocean"),
    ])
    + _layer("resilience.checkpoint", [
        ("save_s", "s", "lower",
         "Checkpointer.save_now total: moves events_per_s and "
         "epoch_ms_p50 on serve_*; 0 elsewhere"),
        ("saves", "count", "lower", ""),
        ("bytes_per_save", "B", "lower", ""),
        ("load_s", "s", "lower", "one load_checkpoint"),
    ])
    + _layer("serve.client", [
        ("push_s", "s", "lower",
         "median push_trace call to REPORT (the issue's stream_s_p50, "
         "demoted: it is 2 x events / events_per_s in this closed loop "
         "and moves with the seed's input size)"),
        ("client_cpu_s", "s", "lower", "producer-side CPU per stream"),
    ])
    + _layer("serve.protocol", [
        ("encode_frame_s", "s", "lower", "replay: encode_frame per epoch"),
        ("decode_payload_s", "s", "lower",
         "replay: decode_json_payload per epoch (the daemon's JSON "
         "parse)"),
        ("build_report_s", "s", "lower",
         "also file_check, paper_ocean, cols_*"),
        ("format_report_s", "s", "lower", ""),
        ("report_bytes", "B", "lower", "REPORT frame payload size"),
    ])
    + _layer("serve.server", [
        ("loop_cpu_s", "s", "lower",
         "daemon main-process CPU per stream; on serve_process the "
         "busier of this and serve.shards.worker_cpu_s is the "
         "bottleneck stage"),
        ("bytes_ingested", "B", "lower", "per stream, from /metrics"),
        ("backpressure_stalls", "count", "lower", "per stream"),
        ("epochs_folded", "count", "lower", "per stream"),
        ("streams_completed", "count", "higher", "whole traced window"),
        ("rss_mb", "MB", "lower", "daemon main process VmHWM"),
    ])
    + _layer("serve.shards", [
        ("worker_cpu_s", "s", "lower",
         "shard worker processes' CPU per stream; 0 for thread shards"),
        ("worker_rss_mb", "MB", "lower", "sum of workers' VmHWM"),
    ])
    + _layer("obs", [
        ("recorder_on_ratio", "ratio", "lower",
         "sweep wall with Recorder() attached / without; "
         "cols_addr_small_h only"),
    ])
    + _layer("bench", [
        ("sweep_s", "s", "lower",
         "wall of one traced input: the base of every share"),
        ("trace_overhead_ratio", "ratio", "lower",
         "traced sweep wall / plain sweep wall, same run"),
        ("untraced_share", "ratio", "lower",
         "1 - sum of disjoint layer seconds / sweep wall (in-process); "
         "for serve, the daemon CPU per stream the serial replay does "
         "not explain: loop, queues, sockets, pipe"),
    ])
)

#: The per-layer seconds that partition one in-process sweep; their sum
#: against ``bench.sweep_s`` is ``bench.untraced_share``.
SWEEP_PARTS = (
    "core.epoch.partition_s",
    "trace.serialize.source_next_s",
    "core.framework.feed_s",
    "core.framework.finish_s",
    "serve.protocol.build_report_s",
    "serve.protocol.format_report_s",
)

INTERACTIONS = [
    "With nothing contending, a faster layer saves at most its share of "
    "sweep wall (bench.sweep_s is the base of every share).",
    "On serve_process the stages overlap across processes, so wall "
    "follows the busier process, not the sum.",
    "epoch_ms_p95 rises before events_per_s falls when per-epoch work "
    "is uneven.",
]


def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``, in exactly the shape the driver reads."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def describe() -> Dict[str, Any]:
    """What :func:`contract` has no key for: each workload's parameters,
    each metric's note (what it times, which end-to-end metric it
    should move and where) and the interaction rules.  Every result set
    written by ``--out`` carries it, ``baseline.json`` included."""
    return {
        "workloads": {
            w.name: {"kind": w.kind, "params": w.params, "why": w.why}
            for w in WORKLOADS
        },
        "end_to_end": {
            m.name: {"unit": m.unit, "better": m.better, "bound": m.bound,
                     "what": m.note}
            for m in END_TO_END
        },
        "per_layer": {
            m.name: {"unit": m.unit, "layer": m.name.rpartition(".")[0],
                     "prediction": m.note}
            for m in PER_LAYER
        },
        "interactions": INTERACTIONS,
    }
