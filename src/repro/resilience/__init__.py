"""Resilient execution: fault injection, the supervision policy, and
epoch-boundary checkpoint/resume.

The supervised loop itself is :class:`repro.core.parallel.PoolBackend`.
See ``docs/robustness.md`` for the fault model, retry/backoff defaults,
the degradation ladder, and the checkpoint format.
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    Checkpointer,
    load_checkpoint,
    resume_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    TRANSPORT_FAULT_KINDS,
    CorruptedResult,
    FaultPlan,
    InjectedFault,
    result_is_valid,
)
from repro.resilience.supervisor import DEGRADATION_LADDER, RetryPolicy

__all__ = [
    "Checkpoint",
    "Checkpointer",
    "CorruptedResult",
    "DEGRADATION_LADDER",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "TRANSPORT_FAULT_KINDS",
    "load_checkpoint",
    "result_is_valid",
    "resume_checkpoint",
    "save_checkpoint",
]
