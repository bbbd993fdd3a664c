"""Deliberate-bug mutants: proof the harness actually catches things.

A differential fuzzer that has never failed proves nothing -- maybe the
modes agree, maybe the checks are vacuous.  Each mutant here reverts
one shipped bugfix (or plants a classic soundness hole) behind a
context manager; the self-tests in ``tests/verify/`` assert that with
the mutant active the fuzzer finds a disagreement and shrinks it to a
tiny repro, and ``repro fuzz --mutant <name>`` runs the same drill from
the CLI.

Mutants monkeypatch module attributes and restore them on exit, so they
must never be active concurrently with real analysis work.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator

from repro.obs.recorder import NULL_RECORDER


@contextlib.contextmanager
def resume_event_replay() -> Iterator[None]:
    """Revert the resume event-log dedup fix.

    The pre-fix behavior: ``attach`` emits a second ``run.attach`` on
    resume and ``restore_state`` leaves the recorder's sequence at zero,
    so a resumed run's log restarts numbering and re-covers completed
    epochs instead of continuing the uninterrupted log's suffix.
    """
    from repro.core.framework import ButterflyEngine

    orig_attach = ButterflyEngine.attach
    orig_restore = ButterflyEngine.restore_state

    def attach(self, partition, resumed=False):
        # Pre-fix: the resumed flag did not exist.
        return orig_attach(self, partition, resumed=False)

    def restore_state(self, state):
        # Pre-fix: engine state comes back, but the recorder handoff
        # (resume_from) is missing -- hide the recorder from the restore.
        recorder, self.recorder = self.recorder, NULL_RECORDER
        try:
            orig_restore(self, state)
        finally:
            self.recorder = recorder

    ButterflyEngine.attach = attach
    ButterflyEngine.restore_state = restore_state
    try:
        yield
    finally:
        ButterflyEngine.attach = orig_attach
        ButterflyEngine.restore_state = orig_restore


@contextlib.contextmanager
def narrow_window() -> Iterator[None]:
    """Strip next-epoch wings from every butterfly.

    A classic unsound 'optimization': treating epoch ``l+1`` as
    strictly after epoch ``l`` shrinks every meet, but valid orderings
    let adjacent epochs interleave, so errors that only appear when a
    future wing runs first are silently missed.  The ``orderings`` mode
    pair exists precisely to catch this.
    """
    from repro.core import framework
    from repro.core.window import Butterfly

    orig = framework.butterflies_for_epoch

    def narrowed(partition, lid):
        out = []
        for bf in orig(partition, lid):
            wings = tuple(
                b for b in bf.wings
                if b.block_id[0] <= bf.body.block_id[0]
            )
            out.append(
                Butterfly(
                    body=bf.body, head=bf.head, tail=bf.tail, wings=wings
                )
            )
        return out

    framework.butterflies_for_epoch = narrowed
    try:
        yield
    finally:
        framework.butterflies_for_epoch = orig


@contextlib.contextmanager
def stale_overlay() -> Iterator[None]:
    """Make LSOS views forget their ``removed`` overlay.

    The bug a base-plus-delta LSOS invites: a location the head block
    (or the scanned block itself) freed still reads as allocated.  The
    reference first pass and the columnar kernel's replay ask the view
    and go wrong; the object kernel probes the three sets itself and
    does not -- the disagreement ``optref`` and ``columnar`` must find.
    """
    from repro.core.state import SOSView

    orig = SOSView.__contains__

    def contains(self, element):
        return element in self.base or element in self.added

    SOSView.__contains__ = contains
    try:
        yield
    finally:
        SOSView.__contains__ = orig


@contextlib.contextmanager
def thread_bleed() -> Iterator[None]:
    """Give every block of a row scan the *first* block's LSOS overlay.

    The bug a batched first pass invites: the row's blocks share one
    probe of the published ``SOS_l``, and each must then see its own
    head's frees and allocations -- not its neighbour's.  Only the
    columnar kernel groups blocks, so the object kernel stays right and
    the ``columnar`` pair must see the two part ways.
    """
    from repro.core.state import SOSView
    from repro.lifeguards.addrcheck import AddrScanner

    orig = AddrScanner._scan_columns

    def scan_columns(self, group):
        first = group[0][1]
        added, removed = set(first.added), set(first.removed)
        bled = [group[0]]
        for cols, running in group[1:]:
            view = SOSView(running.base)
            view.added, view.removed = set(added), set(removed)
            bled.append((cols, view))
        return orig(self, bled)

    AddrScanner._scan_columns = scan_columns
    try:
        yield
    finally:
        AddrScanner._scan_columns = orig


@contextlib.contextmanager
def probe_edge() -> Iterator[None]:
    """Let the isolation check's sorted probe miss the last location.

    The bug a sorted search invites at its edge: a probe value equal to
    the highest location a body accessed is taken for one past the end,
    so an access racing a wing's allocation-state change there goes
    unflagged.  Only the columnar kernel's summaries are probed this
    way -- the object kernel and the reference intersect dicts and sets
    -- so the ``columnar`` pair must see the two part ways.
    """
    from repro.lifeguards import addrcheck

    orig = addrcheck._sorted_hits

    def sorted_hits(locs, changed):
        hits = orig(locs, changed)
        if locs.shape[0]:
            hits.discard(int(locs[-1]))
        return hits

    addrcheck._sorted_hits = sorted_hits
    try:
        yield
    finally:
        addrcheck._sorted_hits = orig


@contextlib.contextmanager
def reversed_commit() -> Iterator[None]:
    """Commit fanned-out first-pass scans last thread first.

    The bug an "apply results as they arrive" executor invites: the
    scans themselves are pure, but their commits append to one error
    log and one event log, so only ascending thread order reproduces
    the serial schedule.  The serial path is left alone -- the
    ``backends`` pair must see the two schedules part ways.
    """
    from repro.core.framework import ButterflyEngine

    orig = ButterflyEngine._first_pass

    def first_pass(self, analysis, blocks, scanner, recorder):
        if scanner is not None:
            blocks = blocks[::-1]
        orig(self, analysis, blocks, scanner, recorder)

    ButterflyEngine._first_pass = first_pass
    try:
        yield
    finally:
        ButterflyEngine._first_pass = orig


@contextlib.contextmanager
def lossy_decode() -> Iterator[None]:
    """Drop every MALLOC/FREE ``size`` while decoding an epoch record.

    ``decode_epoch_text`` is the one decoder behind both the version 2
    file reader and the daemon's ``EPOCH`` frames, and it hands every
    parsed record to ``decode_epoch_row``, so a field lost there is
    lost on every delivery but the in-memory partition: sized extents
    shrink to one location.  ``stream`` and ``serve`` each have a side
    that never went through it.  The patch is in-process: a thread
    shard's decode sees it, a spawned process shard's worker does not
    (``serve_process`` decodes there).
    """
    from repro.trace import serialize

    orig = serialize.decode_epoch_row

    def decode(record, lid, num_threads, name, lineno):
        if isinstance(record, dict) and isinstance(record.get("blocks"), list):
            record = dict(record, blocks=[
                [row[:3] + [1] for row in block] for block in record["blocks"]
            ])
        return orig(record, lid, num_threads, name, lineno)

    serialize.decode_epoch_row = decode
    try:
        yield
    finally:
        serialize.decode_epoch_row = orig


@contextlib.contextmanager
def blind_wholesale() -> Iterator[None]:
    """Report every location a TaintCheck body asks about as untouched.

    The bug the touched/untouched split of ``check_body`` invites: a
    location some rule of the window does write is answered by LSOS
    membership alone, Algorithm 1 never walks, and taint that only a
    wing's (or the body's own) transfer function carries is silently
    missed -- a false negative the ``orderings`` oracle must see.
    """
    from repro.lifeguards import taintcheck

    orig = taintcheck._touched
    taintcheck._touched = lambda asked, window: set()
    try:
        yield
    finally:
        taintcheck._touched = orig


#: Registry used by ``repro fuzz --mutant`` and the self-tests.
MUTANTS: Dict[str, Callable[[], "contextlib.AbstractContextManager"]] = {
    "resume-replay": resume_event_replay,
    "narrow-window": narrow_window,
    "stale-overlay": stale_overlay,
    "thread-bleed": thread_bleed,
    "probe-edge": probe_edge,
    "reversed-commit": reversed_commit,
    "lossy-decode": lossy_decode,
    "blind-wholesale": blind_wholesale,
}


def apply_mutant(name: str) -> "contextlib.AbstractContextManager":
    """Resolve a mutant by name (raising on unknown names)."""
    try:
        factory = MUTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; choose from {sorted(MUTANTS)}"
        ) from None
    return factory()
