"""The differential harness agrees with itself on the shipped code."""

import multiprocessing
import os

import pytest

from repro.trace.events import Instr
from repro.verify.generator import AdversarialCaseGenerator, TraceCase
from repro.verify.harness import (
    AXES,
    BASELINE,
    MODE_NAMES,
    PRESETS,
    DifferentialHarness,
    Point,
    diff,
)


def _case(threads, boundaries, lifeguard="addrcheck", prealloc=()):
    return TraceCase(
        seed=0,
        label="handmade",
        lifeguard=lifeguard,
        threads=tuple(tuple(t) for t in threads),
        boundaries=tuple(tuple(b) for b in boundaries),
        preallocated=frozenset(prealloc),
    )


@pytest.fixture
def harness():
    """Every mode, with the serve daemons torn down afterwards."""
    with DifferentialHarness() as h:
        yield h


def _shard_workers():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-worker")
    ]


class TestCleanAgreement:
    def test_generated_cases_agree_across_all_modes(self, harness):
        gen = AdversarialCaseGenerator(23)
        for i in range(18):
            disagreements = harness.run_case(gen.case(i))
            assert disagreements == [], disagreements
        # Every mode actually exercised at least once.
        for mode in MODE_NAMES:
            assert harness.checks_run[mode] > 0

    def test_page_straddling_free_then_malloc(self, harness):
        # The minimal shape that exposed the reference AddrCheck's
        # hash-order isolation reports: two-location extents racing
        # across threads.
        case = _case(
            [[Instr.free(15, 2)], [Instr.malloc(15, 2)]],
            [[1], [1]],
            prealloc=(15, 16),
        )
        assert harness.run_case(case) == []

    def test_race_case_runs_every_equality_preset(self, harness):
        # RaceCheck goes through the same factory and the same presets;
        # it has no sequential oracle and no reference implementation,
        # so exactly those two modes skip it.
        case = _case(
            [[Instr.write(0), Instr.read(1)], [Instr.read(0), Instr.write(1)]],
            [[1, 2], [1, 2]],
            lifeguard="race",
        )
        assert harness.run_case(case) == []
        skipped = {m for m in MODE_NAMES if harness.skipped[m]}
        assert skipped == {"orderings", "optref"}
        assert all(
            harness.checks_run[m] == 1 for m in MODE_NAMES if m not in skipped
        )
        # ... and the case is not vacuous: the conflicts are reported.
        assert len(harness.run(case).errors) > 0


class TestStreamMode:
    def test_stream_checks_every_case(self):
        # stream-vs-materialized applies to every case (no skip
        # condition): the round-trip through a version 4 file plus the
        # bounded-window feed must be invisible in all outputs.
        with DifferentialHarness(modes=("stream",)) as harness:
            gen = AdversarialCaseGenerator(5)
            for i in range(10):
                assert harness.run_case(gen.case(i)) == []
        assert harness.checks_run["stream"] == 10
        assert harness.skipped["stream"] == 0

    def test_stream_covers_both_lifeguards(self):
        with DifferentialHarness(modes=("stream",)) as harness:
            for lifeguard in ("addrcheck", "taintcheck"):
                case = _case(
                    [[Instr.write(0), Instr.read(0)], [Instr.read(0)]],
                    [[1, 2], [1, 1]],
                    lifeguard=lifeguard,
                )
                assert harness.run_case(case) == []


class TestApplicability:
    def test_orderings_skips_over_budget_cases(self):
        harness = DifferentialHarness(oracle_budget=2)
        case = _case(
            [[Instr.write(0)] * 3, [Instr.read(0)]],
            [[3], [1]],
        )
        assert harness.check(case, "orderings") is None
        assert harness.skipped["orderings"] == 1
        assert harness.checks_run["orderings"] == 0

    def test_resume_skips_single_epoch_cases(self, harness):
        case = _case([[Instr.write(0)]], [[1]])
        assert harness.check(case, "resume") is None
        assert harness.skipped["resume"] == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            DifferentialHarness(modes=("orderings", "nonsense"))

    def test_unrealizable_points_are_rejected(self, harness):
        case = _case([[Instr.write(0)]], [[1]])
        with pytest.raises(ValueError, match="off the axes"):
            harness.run(case, Point(delivery="carrier-pigeon"))
        # The daemon runs its own guard on its own executor.
        with pytest.raises(ValueError, match="serve delivery"):
            harness.run(case, Point("objects", "serve-thread"))


class TestColumnarMode:
    def test_columnar_checks_every_case(self):
        # columnar-vs-object applies unconditionally: running the same
        # case through the columnar kernels instead of the per-Instr
        # reference kernels must be invisible in every output.
        with DifferentialHarness(modes=("columnar",)) as harness:
            gen = AdversarialCaseGenerator(29)
            for i in range(10):
                assert harness.run_case(gen.case(i)) == []
        assert harness.checks_run["columnar"] == 10
        assert harness.skipped["columnar"] == 0

    def test_columnar_covers_all_lifeguards(self):
        with DifferentialHarness(modes=("columnar",)) as harness:
            for lifeguard in ("addrcheck", "taintcheck", "race"):
                case = _case(
                    [[Instr.write(0), Instr.read(0)], [Instr.read(0)]],
                    [[1, 2], [1, 1]],
                    lifeguard=lifeguard,
                )
                assert harness.run_case(case) == []
                # Only a real RaceCheck flags a conflict class.
                report = harness.run(case, Point("columns")).report
                assert report["lifeguard"] == lifeguard
                assert any(
                    "conflict" in detail
                    for _, _, _, _, detail in report["errors"]
                ) == (lifeguard == "race")

    def test_columnar_threads_backend(self):
        with DifferentialHarness(
            modes=("columnar",), backend="threads"
        ) as harness:
            gen = AdversarialCaseGenerator(31)
            for i in range(5):
                assert harness.run_case(gen.case(i)) == []


class TestAxes:
    def test_a_non_preset_pair_needs_no_runner_code(self, harness):
        # columns x stream-file x pool is no preset's point: composing
        # it is a Point literal, and the one run/diff pair holds it to
        # the baseline -- which is all a new table row would be.
        composed = Point("columns", "stream-file", "pool")
        assert all(
            composed not in (p.left, *p.rights) for p in PRESETS.values()
        )
        gen = AdversarialCaseGenerator(37)
        for i in range(10):
            case = gen.case(i)
            left = harness.run(case, BASELINE)
            right = harness.run(case, composed)
            detail = diff(
                left, right,
                ("errors", "stats", "events", "window_high_water", "report"),
            )
            assert detail is None, detail

    def test_diff_names_the_field_and_the_first_difference(self, harness):
        case = _case(
            [[Instr.read(3)], [Instr.malloc(3)]], [[1], [1]]
        )
        quiet = _case([[Instr.nop()], [Instr.malloc(3)]], [[1], [1]])
        detail = diff(
            harness.run(case), harness.run(quiet, Point("columns")),
            ("stats", "errors"),
        )
        assert detail.startswith(
            "objects×partition×serial×none and "
            "columns×partition×serial×none differ in errors: "
            "2 vs 0 entries; first diff at index 0:"
        )
        served = harness.run(case, Point("columns", "serve-thread"))
        with pytest.raises(ValueError, match="not recorded"):
            diff(harness.run(case), served, ("events",))

    def test_baseline_is_shared_within_a_case(self, harness, monkeypatch):
        runs = []
        real = DifferentialHarness._run_local

        def counting(self, case, point, reference, ablation):
            runs.append((case, point, reference, tuple(ablation)))
            return real(self, case, point, reference, ablation)

        monkeypatch.setattr(DifferentialHarness, "_run_local", counting)
        case = AdversarialCaseGenerator(4).case(0)
        assert case.lifeguard == "addrcheck"
        assert harness.run_case(case) == []
        assert runs.count((case, BASELINE, False, ())) == 1
        assert len(runs) == len(set(runs))


class TestLifetime:
    def test_no_shard_worker_outlives_close(self):
        before = {p.pid for p in _shard_workers()}
        harness = DifferentialHarness(modes=("serve_process",))
        case = _case([[Instr.write(0)], [Instr.read(0)]], [[1], [1]])
        assert harness.run_case(case) == []
        spawned = [p for p in _shard_workers() if p.pid not in before]
        assert spawned, "the process-shard daemon never started a worker"
        scratch = harness._scratch_dir.name
        harness.close()
        for proc in spawned:
            proc.join(timeout=10)
            assert not proc.is_alive()
        assert not os.path.exists(scratch)
        harness.close()  # idempotent


class TestModeTable:
    def test_docs_table_has_a_row_per_mode_and_names_every_axis_value(self):
        docs = os.path.join(
            os.path.dirname(__file__), "..", "..", "docs", "verification.md"
        )
        with open(docs) as fh:
            text = fh.read()
        for mode in MODE_NAMES:
            assert f"| `{mode}` |" in text, mode
        assert len(MODE_NAMES) == 10
        for axis, values in AXES.items():
            assert f"| `{axis}` |" in text, axis
            for value in values:
                assert f"`{value}`" in text, value
