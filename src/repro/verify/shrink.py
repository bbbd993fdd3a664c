"""Delta-debugging shrinker: minimize a failing :class:`TraceCase`.

Given a case and a predicate ("does the disagreement still reproduce?"),
the shrinker repeatedly tries structural reductions -- drop a whole
thread, drop a whole epoch, drop a single instruction -- keeping any
reduction that still fails, until a full round makes no progress.  The
result is a locally minimal repro: removing any one more thread, epoch,
or instruction makes the disagreement vanish.

Minimal repros are written to an artifact directory (``repro-failures/``
by default) as self-contained JSON: the seed, the shrunk trace, its
partition boundaries, the mode that disagreed, and the diagnosis --
everything needed to replay the failure without the generator.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional, Tuple

from repro.verify.generator import TraceCase

ARTIFACT_FORMAT = "repro-failure"
ARTIFACT_VERSION = 1

#: Safety valve: rounds are cheap on the tiny generated cases, but the
#: predicate can be expensive, so bound the total reduction attempts.
MAX_ROUNDS = 64


def _drop_thread(case: TraceCase, tid: int) -> Optional[TraceCase]:
    if case.num_threads <= 1:
        return None
    threads = [list(t) for t in case.threads]
    boundaries = [list(b) for b in case.boundaries]
    del threads[tid]
    del boundaries[tid]
    return case.with_threads(threads, boundaries)


def _drop_epoch(case: TraceCase, lid: int) -> Optional[TraceCase]:
    if case.num_epochs <= 1:
        return None
    threads = []
    boundaries = []
    for t, cuts in zip(case.threads, case.boundaries):
        start = cuts[lid - 1] if lid else 0
        end = cuts[lid]
        dropped = end - start
        threads.append(list(t[:start]) + list(t[end:]))
        new_cuts = [
            c - dropped if k > lid else c
            for k, c in enumerate(cuts)
            if k != lid
        ]
        boundaries.append(new_cuts)
    return case.with_threads(threads, boundaries)


def _drop_instruction(case: TraceCase, tid: int, idx: int) -> TraceCase:
    threads = [list(t) for t in case.threads]
    boundaries = [list(b) for b in case.boundaries]
    del threads[tid][idx]
    boundaries[tid] = [c - 1 if c > idx else c for c in boundaries[tid]]
    return case.with_threads(threads, boundaries)


def _candidates(case: TraceCase):
    """All one-step reductions, coarsest first (threads, then epochs,
    then single instructions)."""
    for tid in range(case.num_threads):
        reduced = _drop_thread(case, tid)
        if reduced is not None:
            yield reduced
    for lid in range(case.num_epochs):
        reduced = _drop_epoch(case, lid)
        if reduced is not None:
            yield reduced
    for tid, thread in enumerate(case.threads):
        for idx in range(len(thread)):
            yield _drop_instruction(case, tid, idx)


def shrink_case(
    case: TraceCase,
    predicate: Callable[[TraceCase], bool],
) -> TraceCase:
    """Greedy fixpoint of failing one-step reductions.

    ``predicate(candidate)`` must return True when the candidate still
    exhibits the failure.  The input case is assumed failing; the
    returned case always satisfies the predicate.
    """
    current = case
    for _ in range(MAX_ROUNDS):
        for candidate in _candidates(current):
            failed = False
            try:
                failed = bool(predicate(candidate))
            except Exception:
                # A reduction that crashes the checker is not a cleaner
                # repro of *this* disagreement; skip it.
                failed = False
            if failed:
                current = candidate
                break  # restart the sweep from the smaller case
        else:
            return current  # full sweep with no progress: minimal
    return current


# -- artifacts ----------------------------------------------------------


def write_repro(
    case: TraceCase,
    mode: str,
    detail: str,
    directory: str = "repro-failures",
    trial: Optional[int] = None,
) -> str:
    """Persist a minimal repro; returns the artifact path."""
    os.makedirs(directory, exist_ok=True)
    suffix = f"-trial{trial}" if trial is not None else ""
    path = os.path.join(
        directory, f"{mode}-seed{case.seed}{suffix}.json"
    )
    payload = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "mode": mode,
        "detail": detail,
        "case": case.to_json(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_repro(path: str) -> Tuple[TraceCase, str, str]:
    """Read an artifact back: ``(case, mode, detail)``."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(f"{path} is not a {ARTIFACT_FORMAT} artifact")
    return (
        TraceCase.from_json(payload["case"]),
        payload["mode"],
        payload["detail"],
    )
