#!/usr/bin/env python
"""CI smoke for the serve daemon (the ``serve-smoke`` job).

Scenario, end to end against a *real* ``repro serve`` subprocess:

1. Eight concurrent trace streams push to one daemon.  Three of them
   misbehave: one rolls disconnect-mid-epoch dice, one rolls
   corrupt-bytes dice, one stalls past the daemon's idle timeout.  All
   eight must still complete (the faulty ones through resume/retry),
   and every completed stream's REPORT must be bit-identical to what
   offline ``repro check`` computes over the same trace file -- window
   high-water within the 3-epochs-by-threads bound included.
2. ``repro push`` and ``repro check --trace`` CLI outputs over the same
   trace must diff clean, byte for byte.
3. A daemon is SIGKILLed mid-stream, restarted on the same checkpoint
   directory, and the producer reconnects: the daemon must resume from
   a committed epoch boundary (no re-folded epochs) and the final
   report must match the uninterrupted run's.
4. SIGTERM must drain gracefully: exit 0, ``serve.*`` counters in the
   summary JSON.
5. A daemon started with ``--metrics 0`` serves a live Prometheus-style
   text page: every tentpole ``serve.*`` family present, values moving
   with real traffic.

``--shard-backend {thread,process}`` runs the whole scenario against
the chosen shard backend (CI runs the script once per backend); the
daemon's report bytes must not depend on the choice.

Run from the repository root with ``PYTHONPATH=src``:

    python scripts/serve_smoke.py [--shard-backend process]
"""

import argparse
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.epoch import partition_auto  # noqa: E402
from repro.core.framework import ButterflyEngine  # noqa: E402
from repro.resilience.checkpoint import load_checkpoint  # noqa: E402
from repro.resilience.faults import FaultPlan  # noqa: E402
from repro.resilience.supervisor import RetryPolicy  # noqa: E402
from repro.serve import (  # noqa: E402
    StreamClient,
    build_report,
    make_hello,
)
from repro.serve.client import read_frame_sync  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    FRAME_ACK,
    FRAME_EPOCH,
    FRAME_HELLO,
    encode_frame,
    encode_json_frame,
)
from repro.serve.server import make_guard  # noqa: E402
from repro.trace.generator import simulated_alloc_program  # noqa: E402
from repro.trace.serialize import (  # noqa: E402
    iter_load,
    save_stream_file,
    stream_header,
)

def fast(retries):
    """``retries`` reconnects with a quick-but-nonzero backoff: an
    instantly reconnecting producer can race the daemon's reaping of its
    own dead session (ERROR busy, a documented retryable), so give the
    loop a beat between attempts."""
    return RetryPolicy(
        max_retries=retries, backoff_base=0.05, backoff_max=0.2
    )

STREAMS = 8
IDLE_TIMEOUT = 0.5

#: Set by main() from --shard-backend; every daemon the script starts
#: runs on this backend.
SHARD_BACKEND = "thread"


def log(message):
    print(f"serve-smoke: {message}", flush=True)


def fail(message):
    print(f"serve-smoke: FAIL: {message}", flush=True)
    sys.exit(1)


def write_trace(path, threads, events, seed):
    prog = simulated_alloc_program(
        random.Random(seed), num_threads=threads, total_events=events
    )
    save_stream_file(partition_auto(prog, 8), str(path))


def offline_report(path, stream_id, lifeguard):
    """What offline ``repro check`` computes over the same file."""
    with open(path) as fp:
        header = stream_header(fp, str(path))
    guard = make_guard(lifeguard, frozenset(header["preallocated"]))
    engine = ButterflyEngine(guard)
    try:
        engine.run_source(iter_load(str(path)))
    finally:
        engine.close()
    hello = make_hello(
        stream_id, header["threads"], header["epochs"],
        header["preallocated"], lifeguard,
    )
    return json.loads(
        json.dumps(build_report(stream_id, hello, engine, guard))
    )


def start_daemon(sock_path, ckpt_dir, summary_path=None, metrics=False):
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--unix", str(sock_path),
        "--checkpoint-dir", str(ckpt_dir),
        "--queue-depth", "2",
        "--idle-timeout", str(IDLE_TIMEOUT),
        "--shard-backend", SHARD_BACKEND,
    ]
    if summary_path is not None:
        argv += ["--summary-json", str(summary_path)]
    if metrics:
        argv += ["--metrics", "0"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=str(REPO_ROOT), env=env,
    )
    banner = proc.stdout.readline()
    if "serving on unix" not in banner:
        fail(f"daemon did not start: {banner!r} / {proc.stderr.read()}")
    if not metrics:
        return proc
    metrics_banner = proc.stdout.readline()
    if not metrics_banner.startswith("metrics on "):
        fail(f"no metrics banner: {metrics_banner!r}")
    host, _, port = metrics_banner[len("metrics on "):].strip().rpartition(":")
    return proc, (host, int(port))


def phase_concurrent_streams(tmp, summary_path):
    """Phase 1+2+4: eight streams (three faulty), CLI diff, SIGTERM."""
    sock = tmp / "serve.sock"
    proc = start_daemon(sock, tmp / "ck", summary_path)
    address = ("unix", str(sock))

    plans = {
        # One producer disconnects mid-epoch...
        "stream-3": FaultPlan(disconnect=0.10, seed=3),
        # ...one ships frames with corrupted payload bytes...
        "stream-5": FaultPlan(corrupt_bytes=0.08, seed=5),
        # ...and one stalls past the daemon's idle timeout.
        "stream-6": FaultPlan(
            stall=0.15, stall_s=IDLE_TIMEOUT * 2, seed=6
        ),
    }
    traces, results, errors = {}, {}, []
    for i in range(STREAMS):
        sid = f"stream-{i}"
        path = tmp / f"{sid}.stream.jsonl"
        write_trace(path, threads=2 + i % 3, events=200, seed=i)
        traces[sid] = (path, "taintcheck" if i % 4 == 3 else "addrcheck")

    def push(sid):
        path, lifeguard = traces[sid]
        try:
            results[sid] = StreamClient(
                address, str(path), sid, lifeguard=lifeguard,
                plan=plans.get(sid), policy=fast(60),
            ).push()
        except Exception as exc:
            errors.append(f"{sid}: {exc}")

    workers = [
        threading.Thread(target=push, args=(sid,)) for sid in traces
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if errors:
        fail("streams failed: " + "; ".join(errors))

    for sid, (path, lifeguard) in traces.items():
        expected = offline_report(path, sid, lifeguard)
        if results[sid] != expected:
            fail(f"{sid}: daemon report diverged from offline check")
        bound = 3 * expected["threads"]
        if results[sid]["window_high_water"] > bound:
            fail(
                f"{sid}: window high-water "
                f"{results[sid]['window_high_water']} over bound {bound}"
            )
    log(f"{STREAMS} concurrent streams (3 faulty) all match offline")

    # CLI diff: `repro push` output == `repro check --trace` output,
    # under each lifeguard (both print through format_report).
    path, _ = traces["stream-0"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    for lifeguard in ("addrcheck", "race", "taintcheck"):
        push_out = subprocess.run(
            [sys.executable, "-m", "repro", "push", "--trace", str(path),
             "--unix", str(sock), "--stream-id", f"{path}:{lifeguard}",
             "--lifeguard", lifeguard],
            capture_output=True, text=True, cwd=str(REPO_ROOT), env=env,
        )
        check_out = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--trace", str(path),
             "--lifeguard", lifeguard],
            capture_output=True, text=True, cwd=str(REPO_ROOT), env=env,
        )
        if push_out.returncode != 0:
            fail(f"repro push ({lifeguard}) errored: {push_out.stderr}")
        if push_out.stdout != check_out.stdout:
            fail(
                f"repro push and repro check disagree ({lifeguard}):\n"
                f"--- push ---\n{push_out.stdout}"
                f"--- check ---\n{check_out.stdout}"
            )
    log("repro push output diffs clean against repro check")

    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    if proc.returncode != 0:
        fail(f"SIGTERM drain exited {proc.returncode}: {err}")
    if "drained:" not in out:
        fail(f"no drain farewell in output: {out!r}")
    summary = json.loads(summary_path.read_text())
    counters = summary["counters"]
    # stream-0 was pushed four times (client + three CLI diffs).
    if counters.get("serve.streams_completed", 0) < STREAMS + 3:
        fail(f"unexpected completion count: {counters}")
    for needed in ("serve.streams_accepted", "serve.epochs_folded",
                   "serve.bytes_ingested"):
        if counters.get(needed, 0) <= 0:
            fail(f"counter {needed} missing from summary: {counters}")
    log(f"SIGTERM drained cleanly; {counters['serve.epochs_folded']} "
        "epochs folded")


def phase_sigkill_resume(tmp):
    """Phase 3: SIGKILL mid-stream, restart, resume, identical report."""
    trace = tmp / "kill.stream.jsonl"
    write_trace(trace, threads=3, events=400, seed=99)
    ck = tmp / "kill-ck"
    proc = start_daemon(tmp / "kill-a.sock", ck)
    address = ("unix", str(tmp / "kill-a.sock"))

    with open(trace) as fp:
        header = stream_header(fp, str(trace))
        lines = [fp.readline() for _ in range(6)]
    hello = make_hello(
        "victim", header["threads"], header["epochs"],
        header["preallocated"], "addrcheck",
    )
    import socket as socketlib

    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(str(tmp / "kill-a.sock"))
    sock.sendall(encode_json_frame(FRAME_HELLO, hello))
    ftype, _ = read_frame_sync(sock)
    if ftype != FRAME_ACK:
        fail("no ACK from kill-phase daemon")
    for line in lines:
        sock.sendall(encode_frame(FRAME_EPOCH, line.strip().encode()))

    committed = 0
    deadline = time.monotonic() + 15.0
    while committed < 2:
        if time.monotonic() > deadline:
            fail("no checkpoint committed before the kill")
        for path in ck.glob("*.ckpt"):
            try:
                committed = load_checkpoint(str(path)).next_epoch
            except Exception:
                pass
        time.sleep(0.02)
    proc.kill()  # SIGKILL: no drain, no goodbye
    proc.wait(timeout=30)
    sock.close()
    log(f"daemon SIGKILLed with epoch {committed} committed")

    proc = start_daemon(tmp / "kill-b.sock", ck)
    try:
        client = StreamClient(
            ("unix", str(tmp / "kill-b.sock")), str(trace), "victim",
            policy=fast(3),
        )
        served = client.push()
        resumed_from = client.last_ack["resume_epoch"]
        if resumed_from < committed:
            fail(
                f"restarted daemon resumed from {resumed_from}, "
                f"before the committed epoch {committed}: epochs were "
                "re-folded"
            )
        expected = offline_report(trace, "victim", "addrcheck")
        if served != expected:
            fail("resumed report diverged from the uninterrupted run")
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    log(
        f"restarted daemon resumed at epoch {resumed_from}; report "
        "matches uninterrupted run"
    )


def phase_metrics(tmp):
    """Phase 5: the --metrics listener serves live serve.* families."""
    trace = tmp / "metrics.stream.jsonl"
    write_trace(trace, threads=2, events=200, seed=17)
    sock = tmp / "metrics.sock"
    proc, (host, port) = start_daemon(
        sock, tmp / "metrics-ck", metrics=True
    )
    url = f"http://{host}:{port}/metrics"
    try:
        StreamClient(
            ("unix", str(sock)), str(trace), "observed",
            policy=fast(5),
        ).push()
        with urllib.request.urlopen(url, timeout=10) as response:
            if response.status != 200:
                fail(f"metrics endpoint returned {response.status}")
            content_type = response.headers.get("Content-Type", "")
            if not content_type.startswith("text/plain"):
                fail(f"metrics content type {content_type!r}")
            body = response.read().decode("utf-8")
    finally:
        proc.terminate()
        proc.communicate(timeout=60)
    samples = dict(
        line.split(" ", 1)
        for line in body.splitlines()
        if line and not line.startswith("#")
    )
    for family in (
        "repro_serve_streams_active",
        "repro_serve_pending_epochs",
        "repro_serve_epochs_folded",
        "repro_serve_streams_completed",
        "repro_serve_workers",
        "repro_serve_shard_depth_0",
    ):
        if family not in samples:
            fail(f"metrics page missing {family}: {sorted(samples)}")
    if float(samples["repro_serve_streams_completed"]) < 1:
        fail(f"metrics page shows no completed stream: {samples}")
    log(
        f"metrics endpoint live at {url}: "
        f"{samples['repro_serve_epochs_folded']} epochs folded, "
        f"{samples['repro_serve_workers']} shards"
    )


def main():
    global SHARD_BACKEND
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shard-backend", choices=("thread", "process"),
        default="thread",
        help="shard backend every daemon in the scenario runs on",
    )
    args = parser.parse_args()
    SHARD_BACKEND = args.shard_backend
    log(f"shard backend: {SHARD_BACKEND}")
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp_name:
        tmp = pathlib.Path(tmp_name)
        phase_concurrent_streams(tmp, tmp / "summary.json")
        phase_sigkill_resume(tmp)
        phase_metrics(tmp)
    log("OK")


if __name__ == "__main__":
    main()
