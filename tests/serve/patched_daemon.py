"""``repro serve`` with one fault patched in, for the subprocess drills.

Usage::

    python tests/serve/patched_daemon.py FAULT -- SERVE_ARGS...

``FAULT`` is one of

``fail-fold-at=N``
    the shard's fold of epoch ``N`` raises ``AnalysisError`` before the
    engine sees the row;
``fail-epoch-update-at=N``
    AddrCheck's ``epoch_update(N)`` publishes ``SOS_{N+2}`` and then
    raises, once: the engine fails with its analysis half-updated;
``block-commit-after=N``
    the checkpoint writer's commit of any snapshot past epoch ``N``
    blocks until the daemon is gone, then fails -- so the snapshots the
    fold writes after epoch ``N`` are never made durable.

The patch is installed at import time, outside the ``__main__`` guard:
process shards are spawned, and spawn re-imports the parent's main
script (with the parent's ``sys.argv``) in each worker, so a worker
carries the same fault as the daemon.
"""

import os
import sys
import threading
import time

from repro.errors import AnalysisError
from repro.lifeguards.addrcheck import ButterflyAddrCheck
from repro.resilience import checkpoint
from repro.serve import shards


def _install(fault: str) -> None:
    name, _, value = fault.partition("=")
    limit = int(value)
    if name == "fail-fold-at":
        feed_row = shards._feed_row

        def failing_feed_row(stream, lid, *rest):
            if lid == limit:
                raise AnalysisError(f"injected fold failure at epoch {lid}")
            return feed_row(stream, lid, *rest)

        shards._feed_row = failing_feed_row
    elif name == "fail-epoch-update-at":
        epoch_update = ButterflyAddrCheck.epoch_update
        fired = threading.Event()

        def failing_epoch_update(guard, lid, summaries):
            epoch_update(guard, lid, summaries)
            if lid == limit and not fired.is_set():
                fired.set()
                raise AnalysisError(f"injected epoch_update failure at {lid}")

        ButterflyAddrCheck.epoch_update = failing_epoch_update
    elif name == "block-commit-after":
        commit = checkpoint.commit_snapshot
        # The daemon's parent, or a worker's daemon: it changes only
        # when the process this one hangs off dies.
        parent = os.getppid()

        def blocked_commit(tmp, path):
            on_writer = threading.current_thread().name.startswith(
                "repro-checkpoint-writer"
            )
            if on_writer and checkpoint.load_checkpoint(tmp).next_epoch > limit:
                # A worker whose daemon was SIGKILLed must neither
                # linger nor commit on its way out.
                while os.getppid() == parent:
                    time.sleep(0.05)
                raise OSError("commit blocked by the drill")
            commit(tmp, path)

        checkpoint.commit_snapshot = blocked_commit
    else:
        raise SystemExit(f"unknown fault {fault!r}")


_install(sys.argv[1])

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[sys.argv.index("--") + 1:]))
