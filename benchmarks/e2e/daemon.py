"""A real ``repro serve`` subprocess, its ``/proc`` accounting, and the
closed-loop producers that load it.

The daemon is the production configuration: two shards, resume on
(``--checkpoint-dir``, default ``--checkpoint-every 1``), the live
``/metrics`` listener.  It is always stopped (SIGTERM, wait, kill), its
stderr is captured, and a traceback or a non-zero drain exit fails the
workload.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import urllib.request
import zlib
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.client import push_trace

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` from the state field on (the command name
    may itself hold spaces and brackets), or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rpartition(")")[2].split()
    except OSError:
        return None


def cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fp:
            match = re.search(r"VmHWM:\s+(\d+) kB", fp.read())
    except OSError:
        return 0.0
    return int(match.group(1)) / 1024 if match else 0.0


def children_of(pid: int) -> List[int]:
    """Live processes whose parent is ``pid`` (the shard workers and
    multiprocessing's helper), found by parent pid so none is missed."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry))
    return found


class Daemon:
    """One ``python -m repro serve`` process under this benchmark."""

    def __init__(self, src_dir: str, tmp: str, shard_backend: str,
                 workers: int) -> None:
        self.tmp = tmp
        self.workers = workers
        self._stderr_path = os.path.join(tmp, "daemon.stderr")
        self._stderr = open(self._stderr_path, "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workers", str(workers), "--shard-backend", shard_backend,
             "--checkpoint-dir", os.path.join(tmp, "checkpoints"),
             "--metrics", "0"],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True, env=env,
        )
        self.pid = self.proc.pid
        try:
            self.address = ("tcp", self._banner(r"serving on (\S+):(\d+)"))
            self.metrics_address = self._banner(r"metrics on (\S+):(\d+)")
        except BaseException:
            self.stop()
            raise

    def _banner(self, pattern: str) -> Tuple[str, int]:
        line = self.proc.stdout.readline()
        match = re.match(pattern, line)
        if match is None:
            raise RuntimeError(
                f"daemon did not start: {line!r} {self.stderr_text()}"
            )
        return match.group(1), int(match.group(2))

    def stderr_text(self) -> str:
        self._stderr.flush()
        with open(self._stderr_path) as fp:
            return fp.read()

    def tree(self) -> List[int]:
        return [self.pid] + children_of(self.pid)

    def worker_cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in children_of(self.pid))

    def scrape(self) -> Dict[str, float]:
        """The daemon's ``/metrics`` page as ``{exposed name: value}``."""
        host, port = self.metrics_address
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics", timeout=10
        ) as page:
            text = page.read().decode("utf-8")
        return {
            name: float(value)
            for name, value in re.findall(r"^(\w+) (\S+)$", text, re.M)
        }

    def stop(self) -> str:
        """Drain and reap the daemon; returns '' or why it was unclean."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            # Its shard workers would outlive it: take them down too.
            for pid in self.tree():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.communicate()
            return "daemon ignored SIGTERM and was killed"
        finally:
            self._stderr.close()
        with open(self._stderr_path) as fp:
            stderr = fp.read()
        if "Traceback" in stderr:
            return f"daemon traceback: {stderr[-400:]}"
        if proc.returncode != 0:
            return f"daemon exit code {proc.returncode}: {stderr[-400:]}"
        return ""


class Stream:
    """One pushed stream: its wall time and REPORT (or failure)."""

    __slots__ = ("wall", "report", "error")

    def __init__(self) -> None:
        self.wall = 0.0
        self.report: Optional[Dict[str, Any]] = None
        self.error = ""


def _stream_id(tag: str, producer: int, workers: int) -> str:
    """A fresh id that the daemon's ``crc32 % workers`` routing sends
    to shard ``producer % workers``: each producer keeps one shard
    busy.  Left to chance, two live streams share a shard half the
    time and throughput turns bimodal."""
    k = 0
    while True:
        stream_id = f"{tag}-p{producer}-{k}"
        if zlib.crc32(stream_id.encode("utf-8")) % workers == producer % workers:
            return stream_id
        k += 1


def run_round(daemon: Daemon, path: str, tag: str, producers: int
              ) -> List[Stream]:
    """Closed loop, one round: ``producers`` threads each ``push_trace``
    the file once under a fresh stream id and wait for its REPORT.
    The streams start together and the round ends when all are
    answered, which leaves the daemon idle for the host-speed burst
    between rounds."""
    streams = [Stream() for _ in range(producers)]

    def produce(index: int) -> None:
        stream = streams[index]
        t0 = perf_counter()
        try:
            stream.report = push_trace(
                daemon.address, path,
                _stream_id(tag, index, daemon.workers),
                retries=0, timeout=120.0,
            )
        except Exception as exc:  # one failed op, counted, not fatal
            stream.error = f"{type(exc).__name__}: {exc}"
        stream.wall = perf_counter() - t0

    threads = [
        threading.Thread(target=produce, args=(i,)) for i in range(producers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return streams


class Usage:
    """CPU seconds so far: this process (the producers), the daemon's
    main process (its loop) and its shard worker processes."""

    def __init__(self, daemon: Daemon) -> None:
        self.client = process_time()
        self.loop = cpu_seconds(daemon.pid)
        self.workers = daemon.worker_cpu_seconds()
