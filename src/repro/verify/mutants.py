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
from typing import Callable, ContextManager, Dict, Iterator

from repro.obs.recorder import NULL_RECORDER


@contextlib.contextmanager
def _patched(owner: object, **attrs: object) -> Iterator[None]:
    """Set ``owner``'s ``attrs`` for the ``with`` body, then restore them."""
    originals = {name: getattr(owner, name) for name in attrs}
    for name, value in attrs.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(owner, name, value)


def resume_event_replay() -> ContextManager[None]:
    """Revert the resume event-log dedup fix.

    The pre-fix behavior: attaching with a checkpoint emits a second
    ``run.attach`` and ``restore_state`` leaves the recorder's sequence
    at zero, so a resumed run's log restarts numbering and re-covers
    completed epochs instead of continuing the uninterrupted log's
    suffix.
    """
    from repro.core.framework import ButterflyEngine

    orig_bind = ButterflyEngine._bind
    orig_restore = ButterflyEngine.restore_state

    def _bind(self, num_threads, num_epochs, checkpoint):
        orig_bind(self, num_threads, num_epochs, checkpoint)
        if checkpoint is not None and self.recorder.enabled:
            # Pre-fix: every attach announced the run.
            self.recorder.event(
                "run.attach", epochs=num_epochs, threads=num_threads
            )

    def restore_state(self, state):
        # Pre-fix: engine state comes back, but the recorder handoff
        # (resume_from) is missing -- hide the recorder from the restore.
        recorder, self.recorder = self.recorder, NULL_RECORDER
        try:
            orig_restore(self, state)
        finally:
            self.recorder = recorder

    return _patched(ButterflyEngine, _bind=_bind, restore_state=restore_state)


def narrow_window() -> ContextManager[None]:
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
            out.append(Butterfly(body=bf.body, wings=wings))
        return out

    return _patched(framework, butterflies_for_epoch=narrowed)


def stale_overlay() -> ContextManager[None]:
    """Make LSOS views forget their ``removed`` overlay.

    The bug a base-plus-delta LSOS invites: a location the head block
    (or the scanned block itself) freed still reads as allocated.  The
    reference first pass asks the view after every change and goes
    wrong, the per-``Instr`` scanner probes the three sets itself -- the
    disagreement ``optref`` must find (the columnar scan asks only
    before a block's first change of a location: seed 4, trial 121).
    """
    from repro.core.state import SOSView

    def contains(self, element):
        return element in self.base or element in self.added

    return _patched(SOSView, __contains__=contains)


def thread_bleed() -> ContextManager[None]:
    """Give every block of a row scan the *first* block's LSOS overlay.

    The bug a batched first pass invites: the row's blocks share one
    probe of the published ``SOS_l``, and each must then see its own
    head's frees and allocations -- not its neighbour's.  Only the
    columnar kernel groups blocks, so the per-``Instr`` one stays right and
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

    return _patched(AddrScanner, _scan_columns=scan_columns)


def segment_carry() -> ContextManager[None]:
    """Tell the columnar first pass's scan runs apart by location alone.

    The bug a segmented scan invites: a row's blocks share one sorted
    run of change entries, so a block continues the run a row neighbour
    left at a location both change -- from its state, not its own LSOS
    -- and the pair lands in the neighbour's summary.  Only the columnar
    kernel groups blocks: the ``columnar`` pair must see it.
    """
    from repro.lifeguards import addrcheck

    return _patched(addrcheck, _pair_keys=lambda segs, locs: locs)


def probe_edge() -> ContextManager[None]:
    """Let the isolation check's sorted probe miss the last location.

    The bug a sorted search invites at its edge: a probe value equal to
    the highest location a body accessed is taken for one past the end,
    so an access racing a wing's allocation-state change there goes
    unflagged.  Every kernel's summary is a footprint probed this way;
    the reference lifeguard intersects sets of its own, so the
    ``optref`` pair must see the two part ways.
    """
    from repro.core import columnar

    orig = columnar._sorted_hits

    def sorted_hits(locs, changed):
        hits = orig(locs, changed)
        if locs.shape[0]:
            hits.discard(int(locs[-1]))
        return hits

    return _patched(columnar, _sorted_hits=sorted_hits)


def race_first_write() -> ContextManager[None]:
    """Take a location's first-write offset from its *last* write.

    The bug a sort-based footprint invites (a reversed stream, an
    unstable sort): a conflict is blamed on the wrong access.  The
    per-``Instr`` race scanner keeps the first write in a dict, so the
    ``columnar`` pair must see the refs part ways."""
    from repro.lifeguards import racecheck

    orig = racecheck._write_stream

    def write_stream(cols, is_change):
        ev, locs = orig(cols, is_change)
        return ev[::-1], locs[::-1]

    return _patched(racecheck, _write_stream=write_stream)


def reversed_commit() -> ContextManager[None]:
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

    return _patched(ButterflyEngine, _first_pass=first_pass)


def lossy_decode() -> ContextManager[None]:
    """Drop every MALLOC/FREE ``size`` while decoding an epoch record.

    ``decode_epoch_text`` is the one decoder behind both the stream
    file reader and the daemon's ``EPOCH`` frames, and it hands every
    parsed record to ``decode_epoch_row``, so a field lost in the
    columns it returns is lost on every delivery but the in-memory
    partition: sized extents shrink to one location.  ``stream`` and ``serve`` each have a side that never
    went through it.  The patch is in-process: a thread shard's decode
    sees it, a spawned process shard's worker does not
    (``serve_process`` decodes there).
    """
    import numpy as np

    from repro.core.columnar import OP_FREE, OP_MALLOC
    from repro.trace import serialize

    orig = serialize.decode_epoch_row

    def decode(record, lid, num_threads, name, lineno):
        row = orig(record, lid, num_threads, name, lineno)
        for block in row:  # columns just built, shared with no one
            c = block.columns
            sized = (c.op == OP_MALLOC) | (c.op == OP_FREE)
            c.size = np.where(sized, 1, c.size)
        return row

    return _patched(serialize, decode_epoch_row=decode)


def blind_wholesale() -> ContextManager[None]:
    """Report every location a TaintCheck body asks about as untouched.

    The bug the touched/untouched split of ``check_body`` invites: a
    location some rule of the body's window footprint (the epoch's
    ``_TaintWindow`` read for the other threads, beside the body's own
    rules) does write is answered by LSOS membership alone, Algorithm 1
    never walks, and taint that only a wing's (or the body's own)
    transfer function carries is silently missed -- a false negative
    the ``orderings`` oracle must see.  The per-body reference leg
    (``use_columnar_kernel=False``) takes the same split, so the
    ``columnar`` pair cannot see it.
    """
    from repro.lifeguards import taintcheck

    return _patched(taintcheck, _touched=lambda asked, window: set())


def taint_segment_cut() -> ContextManager[None]:
    """Cut a TaintCheck row scan's jumps apart one entry late.

    The bug a grouped scan invites: a cut off by one credits each
    block's first jump to the block before it, checked at an offset of
    the wrong block.  Only the columnar kernel groups blocks: the
    ``columnar`` pair must see it."""
    from repro.lifeguards import taintcheck

    orig = taintcheck._segment_cuts

    def segment_cuts(segs, nseg):
        cuts = orig(segs, nseg)
        return [cuts[0], *(min(c + 1, cuts[-1]) for c in cuts[1:-1]), cuts[-1]]

    return _patched(taintcheck, _segment_cuts=segment_cuts)


#: Registry used by ``repro fuzz --mutant`` and the self-tests.
MUTANTS: Dict[str, Callable[[], "contextlib.AbstractContextManager"]] = {
    "resume-replay": resume_event_replay,
    "narrow-window": narrow_window,
    "stale-overlay": stale_overlay,
    "thread-bleed": thread_bleed,
    "segment-carry": segment_carry,
    "probe-edge": probe_edge,
    "race-first-write": race_first_write,
    "reversed-commit": reversed_commit,
    "lossy-decode": lossy_decode,
    "blind-wholesale": blind_wholesale,
    "taint-segment-cut": taint_segment_cut,
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
