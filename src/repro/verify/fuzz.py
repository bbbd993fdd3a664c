"""The fuzz campaign driver behind ``repro fuzz``.

Generates adversarial cases, pushes each through the differential
harness, shrinks any disagreement to a minimal repro, and writes the
repro (plus its seed and diagnosis) to the artifact directory.  Every
trial emits ``verify.*`` provenance events through the recorder, so a
campaign's event log answers "what was actually tested?" -- trial
count, family mix, per-mode check/skip counts -- not just "did it
pass?".

Determinism: trial ``i`` of seed ``s`` is a pure function of ``(s, i)``
(see :mod:`repro.verify.generator`), so ``repro fuzz --seed S`` always
replays the identical campaign prefix regardless of the time budget
that ends it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.verify.generator import AdversarialCaseGenerator
from repro.verify.harness import MODE_NAMES, DifferentialHarness
from repro.verify.mutants import apply_mutant
from repro.verify.shrink import shrink_case, write_repro

#: Trial count when neither ``trials`` nor ``budget_seconds`` is given.
DEFAULT_TRIALS = 200

#: Stop a campaign early once this many disagreements were shrunk --
#: the harness is clearly broken (or a mutant is active); more repros
#: of the same breakage add noise, not signal.
MAX_DISAGREEMENTS = 10


@dataclass
class FuzzFinding:
    """One shrunk disagreement and where its artifact landed."""

    trial: int
    mode: str
    label: str
    detail: str
    artifact: str
    original_instructions: int
    shrunk_instructions: int


@dataclass
class FuzzReport:
    """Campaign summary (what ``repro fuzz`` prints and tests assert)."""

    seed: int
    trials: int
    elapsed_s: float
    modes: Sequence[str]
    checks_run: Dict[str, int]
    skipped: Dict[str, int]
    cases_by_label: Dict[str, int] = field(default_factory=dict)
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def run_fuzz(
    seed: int,
    budget_seconds: Optional[float] = None,
    trials: Optional[int] = None,
    modes: Sequence[str] = MODE_NAMES,
    shrink: bool = True,
    failures_dir: str = "repro-failures",
    recorder: Recorder = NULL_RECORDER,
    oracle_budget: int = 9,
    backend: str = "threads",
    mutant: Optional[str] = None,
) -> FuzzReport:
    """Run one differential fuzz campaign; see the module docstring.

    ``mutant`` activates a deliberate bug from
    :mod:`repro.verify.mutants` for the whole campaign (self-test /
    demo mode); the campaign is then *expected* to find disagreements.
    """
    if budget_seconds is None and trials is None:
        trials = DEFAULT_TRIALS
    harness = DifferentialHarness(
        modes=modes, oracle_budget=oracle_budget, backend=backend
    )
    generator = AdversarialCaseGenerator(seed)
    report = FuzzReport(
        seed=seed,
        trials=0,
        elapsed_s=0.0,
        modes=tuple(modes),
        checks_run=harness.checks_run,
        skipped=harness.skipped,
    )
    guard_ctx = apply_mutant(mutant) if mutant else contextlib.nullcontext()
    started = time.monotonic()
    # Leaving ``harness`` tears down the shared serve daemons the serve
    # deliveries may have started (no-op otherwise).
    with guard_ctx, harness:
        trial = 0
        while True:
            if trials is not None and trial >= trials:
                break
            if (
                budget_seconds is not None
                and time.monotonic() - started >= budget_seconds
            ):
                break
            if len(report.findings) >= MAX_DISAGREEMENTS:
                break
            case = generator.case(trial)
            report.cases_by_label[case.label] = (
                report.cases_by_label.get(case.label, 0) + 1
            )
            if recorder.enabled:
                recorder.count("verify.trials")
                recorder.event(
                    "verify.trial",
                    trial=trial,
                    label=case.label,
                    lifeguard=case.lifeguard,
                    threads=case.num_threads,
                    epochs=case.num_epochs,
                    instructions=case.total_instructions,
                )
            for disagreement in harness.run_case(case):
                finding = _handle_disagreement(
                    harness, disagreement, trial, shrink,
                    failures_dir, recorder,
                )
                report.findings.append(finding)
            trial += 1
    report.trials = trial
    report.elapsed_s = time.monotonic() - started
    if recorder.enabled:
        recorder.event(
            "verify.campaign",
            seed=seed,
            trials=report.trials,
            disagreements=len(report.findings),
            modes=list(modes),
            mutant=mutant,
        )
    return report


def _handle_disagreement(
    harness: DifferentialHarness,
    disagreement,
    trial: int,
    shrink: bool,
    failures_dir: str,
    recorder: Recorder,
) -> FuzzFinding:
    case = disagreement.case
    mode = disagreement.mode
    detail = disagreement.detail
    if recorder.enabled:
        recorder.count("verify.disagreements")
        recorder.event(
            "verify.disagreement",
            trial=trial,
            mode=mode,
            label=case.label,
            instructions=case.total_instructions,
            detail=detail,
        )
    shrunk = case
    if shrink:
        shrunk = shrink_case(
            case, lambda c: harness.check(c, mode) is not None
        )
        # Re-diagnose on the minimal case so the artifact's detail
        # matches the trace it actually contains.
        detail = harness.check(shrunk, mode) or detail
        if recorder.enabled:
            recorder.event(
                "verify.shrunk",
                trial=trial,
                mode=mode,
                from_instructions=case.total_instructions,
                to_instructions=shrunk.total_instructions,
            )
    artifact = write_repro(
        shrunk, mode, detail, directory=failures_dir, trial=trial
    )
    if recorder.enabled:
        recorder.event("verify.artifact", trial=trial, path=artifact)
    return FuzzFinding(
        trial=trial,
        mode=mode,
        label=case.label,
        detail=detail,
        artifact=artifact,
        original_instructions=case.total_instructions,
        shrunk_instructions=shrunk.total_instructions,
    )
