#!/usr/bin/env python
"""Write your own lifeguard: events, meet, metadata and check (paper 4.3).

A `LifeguardSpec` names the events to track and a per-instruction check;
`"forall"` or `"exists"` picks the meet and every SOS/LSOS rule of one of
Section 5's canonical analyses (reaching expressions, reaching
definitions).  Two lifeguards over one hand-built racy trace:

- *definite initialization* (`"forall"`): a location is initialized only
  if EVERY valid ordering says so -- a free racing in a wing defeats the
  thread's own earlier write;
- *which writes can this read see* (`"exists"`): a definition reaches if
  SOME valid ordering delivers it -- a racing read observes both its own
  thread's write and the wing's.

Run:  python examples/custom_lifeguard.py
"""

from repro import Instr, Op, TraceProgram, partition_fixed
from repro.core.dataflow import Definition
from repro.core.framework import ButterflyEngine
from repro.core.generic import LifeguardSpec
from repro.lifeguards.reports import ErrorKind, ErrorReport

X = 0x40
program = TraceProgram.from_lists(
    [Instr.write(X), Instr.read(X)],    # thread 0: initialize, then read
    [Instr.write(X), Instr.free(X)],    # thread 1: same epoch, unordered
)


def uninitialized_read(iid, instr, initialized):
    if instr.op is Op.READ and instr.srcs[0] not in initialized:
        yield ErrorReport(ErrorKind.ACCESS_UNALLOCATED, instr.srcs[0], ref=iid,
                          detail="read of possibly-uninitialized location")


def ambiguous_read(iid, instr, reaching):
    sites = sorted(d.site for d in reaching if d.var in instr.srcs)
    if instr.op is Op.READ and len(sites) > 1:
        yield ErrorReport(ErrorKind.UNSAFE_ISOLATION, instr.srcs[0], ref=iid,
                          detail=f"may observe the writes at {sites}")


init_check = LifeguardSpec(
    name="init-check", semantics="forall", check=uninitialized_read,
    gen_of=lambda instr, iid: [instr.dst] if instr.op is Op.WRITE else [],
    kill_vars_of=lambda instr: instr.extent if instr.op is Op.FREE else [],
    element_vars=lambda loc: (loc,),
)
visible_writes = LifeguardSpec(
    name="visible-writes", semantics="exists", check=ambiguous_read,
    gen_of=lambda instr, iid: (
        [Definition(instr.dst, iid)] if instr.op is Op.WRITE else []
    ),
    kill_vars_of=lambda instr: [instr.dst] if instr.op is Op.WRITE else [],
    element_vars=lambda definition: (definition.var,),
)

flags = {}
for spec in (init_check, visible_writes):
    guard = spec.build()
    ButterflyEngine(guard).run(partition_fixed(program, 2))
    flags[spec.name] = [(r.ref, r.detail) for r in guard.errors]
    print(f"{spec.name} ({spec.semantics}): {flags[spec.name]}")

# One flag each, on thread 0's read: (epoch 0, thread 0, instruction 1).
assert [ref for ref, _ in flags["init-check"]] == [(0, 0, 1)]
assert flags["visible-writes"] == [
    ((0, 0, 1), "may observe the writes at [(0, 0, 0), (0, 1, 0)]")]
