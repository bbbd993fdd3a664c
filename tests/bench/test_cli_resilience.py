"""CLI resilience surfaces: failure paths, resume, quarantine, faults.

Every failure exits 2 with a one-line ``repro <cmd>: error: ...``
diagnostic on stderr (never a traceback), and the recovery paths -- a
rerun ``repro check --checkpoint``, ``--quarantine``,
``--inject-faults`` -- must leave results indistinguishable from an
undisturbed run.
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs import read_events
from repro.resilience import load_checkpoint
from repro.serve.protocol import make_hello, resume_token
from repro.serve.shards import build_stream_engine, stream_checkpoint_path
from repro.trace.serialize import save_stream_file

from tests.resilience.test_checkpoint import (
    DAMAGED_PICKLE,
    churn_partition,
    stamp_position,
    stamp_version,
)

CHECK_ARGS = [
    "check", "--benchmark", "OCEAN", "--threads", "2",
    "--events", "3000", "--epoch-size", "256",
]
#: A run that flags from its first epochs on.
FLAGGING_ARGS = [
    "check", "--benchmark", "OCEAN", "--threads", "4",
    "--events", "8000", "--epoch-size", "1024",
]


def _one_line_error(capsys, command):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"repro {command}: error:")
    return lines[0]


class TestCorruptTraceFailures:
    def test_check_rejects_invalid_json_with_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("this is not json\n")
        assert main(["check", "--trace", str(bad)]) == 2
        message = _one_line_error(capsys, "check")
        assert f"{bad}:1" in message  # file and line of the defect

    def test_check_rejects_truncated_trace(self, tmp_path, capsys):
        path = tmp_path / "trunc.trace"
        assert main([
            "generate", "--benchmark", "LU", "--threads", "2",
            "--events", "500", "--output", str(path),
        ]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        assert main(["check", "--trace", str(path)]) == 2
        assert "unexpected end of file" in _one_line_error(capsys, "check")

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(CHECK_ARGS + ["--inject-faults", "explode=0.5"]) == 2
        assert "unknown fault spec key" in _one_line_error(capsys, "check")


class TestResume:
    def _interrupted_then_resumed(self, tmp_path, capsys, extra=()):
        ck = str(tmp_path / "run.ckpt")
        assert main(CHECK_ARGS) == 0
        full = capsys.readouterr().out
        assert main(
            CHECK_ARGS
            + ["--checkpoint", ck, "--stop-after-epoch", "4"]
            + list(extra)
        ) == 0
        stopped = capsys.readouterr()
        assert "stopped after receiving epoch 4" in stopped.err
        assert stopped.out == ""
        assert main(CHECK_ARGS + ["--checkpoint", ck] + list(extra)) == 0
        return full, capsys.readouterr().out

    def test_resumed_output_identical_to_uninterrupted(self, tmp_path, capsys):
        full, resumed = self._interrupted_then_resumed(tmp_path, capsys)
        assert resumed == full

    def test_resume_after_faulty_interrupted_run(self, tmp_path, capsys):
        full, resumed = self._interrupted_then_resumed(
            tmp_path, capsys,
            extra=["--backend", "threads", "--retries", "8",
                   "--inject-faults", "crash=0.15,corrupt=0.1,seed=7"],
        )
        assert resumed == full

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--seed", "2", "seed"),
            ("--epoch-size", "512", "epoch_size"),
            ("--lifeguard", "race", "lifeguard"),
        ],
        ids=["seed", "epoch_size", "lifeguard"],
    )
    def test_a_changed_fingerprint_key_is_refused(
        self, tmp_path, capsys, flag, value, key
    ):
        # The checkpoint is the run's own only when the fingerprint
        # matches: --epoch-size 512 against a 256 checkpoint would
        # continue an analysis of other epochs.
        ck = str(tmp_path / "run.ckpt")
        assert main(
            CHECK_ARGS + ["--checkpoint", ck, "--stop-after-epoch", "3"]
        ) == 0
        capsys.readouterr()
        before = load_checkpoint(ck).next_epoch
        assert main(CHECK_ARGS + ["--checkpoint", ck, flag, value]) == 2
        message = _one_line_error(capsys, "check")
        assert "checkpoint was taken under a different configuration" in (
            message
        )
        assert f"{key}: checkpoint=" in message
        assert load_checkpoint(ck).next_epoch == before  # left as it was

    def test_missing_checkpoint_file(self, tmp_path, capsys):
        # An absent PATH starts the run fresh and checkpoints it there...
        ck = tmp_path / "absent.ckpt"
        assert main(CHECK_ARGS) == 0
        full = capsys.readouterr().out
        assert main(CHECK_ARGS + ["--checkpoint", str(ck)]) == 0
        assert capsys.readouterr().out == full
        assert ck.exists()
        # ...while a PATH that is there but cannot be read is refused.
        unreadable = tmp_path / "dir.ckpt"
        unreadable.mkdir()
        assert main(CHECK_ARGS + ["--checkpoint", str(unreadable)]) == 2
        assert "cannot read checkpoint" in _one_line_error(capsys, "check")

    def test_garbage_checkpoint_file(self, tmp_path, capsys):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01 not a checkpoint")
        assert main(CHECK_ARGS + ["--checkpoint", str(path)]) == 2
        _one_line_error(capsys, "check")

    def test_damaged_checkpoint_file(self, tmp_path, capsys):
        # Not one of pickle's own error types: used to print a stack.
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(DAMAGED_PICKLE)
        assert main(CHECK_ARGS + ["--checkpoint", str(path)]) == 2
        assert "UnicodeDecodeError" in _one_line_error(capsys, "check")

    def test_a_rerun_after_a_completed_run_reprints_its_report(
        self, tmp_path, capsys
    ):
        ck = str(tmp_path / "run.ckpt")
        assert main(CHECK_ARGS + ["--checkpoint", ck]) == 0
        full = capsys.readouterr().out
        assert main(CHECK_ARGS + ["--checkpoint", ck]) == 0
        assert capsys.readouterr().out == full

    def test_a_killed_writers_temp_is_discarded_on_rerun(
        self, tmp_path, capsys
    ):
        # A writer killed between the halves of a save leaves its temp
        # beside the checkpoint; the rerun continues from the committed
        # file and removes the temp.
        ck = str(tmp_path / "run.ckpt")
        assert main(CHECK_ARGS) == 0
        full = capsys.readouterr().out
        assert main(
            CHECK_ARGS + ["--checkpoint", ck, "--stop-after-epoch", "4"]
        ) == 0
        capsys.readouterr()
        stray = f"{ck}.{'ab' * 16}.tmp"
        with open(stray, "wb") as fh:  # half a snapshot
            fh.write(DAMAGED_PICKLE)
        assert main(CHECK_ARGS + ["--checkpoint", ck]) == 0
        assert capsys.readouterr().out == full
        assert not os.path.exists(stray)

    def test_a_torn_flag_row_is_ignored_on_rerun(self, tmp_path, capsys):
        # A save appends its flags before its snapshot commits: half a
        # row past the committed count changes nothing, and the rerun's
        # first save cuts it off.
        ck = str(tmp_path / "run.ckpt")
        assert main(FLAGGING_ARGS) == 0
        full = capsys.readouterr().out
        assert main(
            FLAGGING_ARGS + ["--checkpoint", ck, "--stop-after-epoch", "4"]
        ) == 0
        capsys.readouterr()
        committed = len(load_checkpoint(ck).analysis.errors)
        with open(ck + ".flags", "a") as fh:
            fh.write('["access-unallocated",12,[0,')
        assert main(FLAGGING_ARGS + ["--checkpoint", ck]) == 0
        assert capsys.readouterr().out == full
        with open(ck + ".flags") as fh:
            rows = [json.loads(line) for line in fh]
        assert len(rows) == len(load_checkpoint(ck).analysis.errors)
        assert len(rows) > committed

    def test_a_short_flag_segment_is_refused(self, tmp_path, capsys):
        ck = str(tmp_path / "run.ckpt")
        assert main(FLAGGING_ARGS + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        with open(ck + ".flags") as fh:
            first = fh.readline()
        with open(ck + ".flags", "w") as fh:
            fh.write(first)
        assert main(FLAGGING_ARGS + ["--checkpoint", ck]) == 2
        assert "flag rows its checkpoint committed" in _one_line_error(
            capsys, "check"
        )

    def test_a_failed_background_commit_is_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.resilience import checkpoint

        def commit(tmp, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint, "commit_snapshot", commit)
        ck = str(tmp_path / "run.ckpt")
        assert main(CHECK_ARGS + ["--checkpoint", ck]) == 2
        message = _one_line_error(capsys, "check")
        assert f"checkpoint commit to {ck} failed" in message
        assert "No space left on device" in message

    def test_version_1_checkpoint_is_refused(self, tmp_path, capsys):
        ck = str(tmp_path / "run.ckpt")
        assert main(
            CHECK_ARGS + ["--checkpoint", ck, "--stop-after-epoch", "3"]
        ) == 0
        capsys.readouterr()
        stamp_version(ck, 1)
        assert main(CHECK_ARGS + ["--checkpoint", ck]) == 2
        assert "unsupported checkpoint version 1" in _one_line_error(
            capsys, "check"
        )

    def test_a_taintcheck_run_resumes_byte_identically(
        self, tmp_path, capsys
    ):
        # OCEAN has no taint traffic, so its TaintCheck checks nothing;
        # the server workload flags, and the rerun must carry that.
        args = [
            "check", "--benchmark", "SECURE-SERVER", "--threads", "2",
            "--events", "9000", "--epoch-size", "1024",
            "--lifeguard", "taintcheck",
        ]
        ck = str(tmp_path / "taint.ckpt")
        assert main(args) == 0
        full = capsys.readouterr().out
        assert "\nflags: 8\n" in full
        assert main(
            args + ["--checkpoint", ck, "--stop-after-epoch", "4"]
        ) == 0
        capsys.readouterr()
        assert main(args + ["--checkpoint", ck]) == 0
        assert capsys.readouterr().out == full

    def test_a_version_4_taintcheck_checkpoint_is_refused(
        self, tmp_path, capsys
    ):
        """Version 4 pickled TaintCheck summaries as rule dicts."""
        ck = str(tmp_path / "taint.ckpt")
        assert main(
            CHECK_ARGS + ["--lifeguard", "taintcheck", "--checkpoint", ck,
                          "--stop-after-epoch", "3"]
        ) == 0
        capsys.readouterr()
        stamp_version(ck, 4)
        assert main(
            CHECK_ARGS + ["--lifeguard", "taintcheck", "--checkpoint", ck]
        ) == 2
        assert "unsupported checkpoint version 4" in _one_line_error(
            capsys, "check"
        )

    def test_a_version_5_checkpoint_is_refused(self, tmp_path, capsys):
        """Version 5 pickled the engine's summary window beside the
        lifeguard's own."""
        ck = str(tmp_path / "run.ckpt")
        assert main(
            CHECK_ARGS + ["--checkpoint", ck, "--stop-after-epoch", "3"]
        ) == 0
        capsys.readouterr()
        stamp_version(ck, 5)
        assert main(CHECK_ARGS + ["--checkpoint", ck]) == 2
        assert "unsupported checkpoint version 5" in _one_line_error(
            capsys, "check"
        )

    def test_a_cut_after_gains_and_losses_resumes_byte_identically(
        self, tmp_path, capsys
    ):
        """A stream file whose SOS has lost preallocated locations and
        gained new ones by the cut: the checkpoint carries both, and
        the rerun prints the uninterrupted report."""
        trace = str(tmp_path / "churn.jsonl")
        save_stream_file(churn_partition(), trace)
        ck = str(tmp_path / "churn.ckpt")
        assert main(["check", "--trace", trace]) == 0
        full = capsys.readouterr().out
        assert "\nflags: 0\n" not in full
        assert main([
            "check", "--trace", trace, "--checkpoint", ck,
            "--stop-after-epoch", "4",
        ]) == 0
        capsys.readouterr()
        sos = load_checkpoint(ck).analysis.sos
        assert sos._gained and sos._lost
        assert main(["check", "--trace", trace, "--checkpoint", ck]) == 0
        assert capsys.readouterr().out == full

    def _resume_past_the_end(self, tmp_path, capsys, check_args):
        ck = str(tmp_path / "c.ckpt")
        assert main(check_args + ["--checkpoint", ck]) == 0
        capsys.readouterr()
        stamp_position(ck, 999)
        assert main(check_args + ["--checkpoint", ck]) == 2
        return _one_line_error(capsys, "check")

    def test_position_past_a_generated_trace_is_refused(
        self, tmp_path, capsys
    ):
        message = self._resume_past_the_end(tmp_path, capsys, [
            "check", "--benchmark", "LU", "--threads", "2",
            "--events", "2000", "--epoch-size", "256",
        ])
        assert "checkpoint resumes at epoch 999, outside this 3-epoch" in (
            message
        )

    def test_position_past_a_stream_file_is_refused(self, tmp_path, capsys):
        trace = str(tmp_path / "t.stream.jsonl")
        assert main([
            "generate", "--benchmark", "LU", "--threads", "2",
            "--events", "2000", "--epoch-size", "256", "--stream",
            "--output", trace,
        ]) == 0
        message = self._resume_past_the_end(
            tmp_path, capsys, ["check", "--trace", trace]
        )
        assert "checkpoint resumes at epoch 999" in message

    def test_a_serve_checkpoint_is_refused(self, tmp_path, capsys):
        hello = make_hello("s1", 2, 4, (), "addrcheck")
        token = resume_token(hello)
        engine, _ = build_stream_engine(hello, token, str(tmp_path), 1,
                                         "serial")
        engine.checkpoint_now()
        path = stream_checkpoint_path(str(tmp_path), token)
        assert main(CHECK_ARGS + ["--checkpoint", path]) == 2
        # A stream's fingerprint shares no run's: its keys are named.
        message = _one_line_error(capsys, "check")
        assert "checkpoint was taken under a different configuration" in (
            message
        )
        assert "stream: checkpoint='s1' run=None" in message

    def test_resume_trace_run_verifies_digest(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        ck = str(tmp_path / "t.ckpt")
        assert main([
            "generate", "--benchmark", "OCEAN", "--threads", "2",
            "--events", "3000", "--output", str(trace),
        ]) == 0
        assert main([
            "check", "--trace", str(trace), "--epoch-size", "256",
            "--checkpoint", ck, "--stop-after-epoch", "3",
        ]) == 0
        capsys.readouterr()
        # Tamper with the trace after the checkpoint was taken.
        with open(trace, "a") as fh:
            fh.write("\n")
        assert main([
            "check", "--trace", str(trace), "--epoch-size", "256",
            "--checkpoint", ck,
        ]) == 2
        assert "trace_sha256: checkpoint=" in _one_line_error(capsys, "check")


class TestSweepQuarantine:
    def _traces(self, tmp_path):
        good = tmp_path / "good.trace"
        bad = tmp_path / "bad.trace"
        assert main([
            "generate", "--benchmark", "LU", "--threads", "2",
            "--events", "500", "--output", str(good),
        ]) == 0
        bad.write_text("{ mangled\n")
        return good, bad

    def test_quarantine_moves_bad_trace_and_continues(self, tmp_path, capsys):
        good, bad = self._traces(tmp_path)
        quarantine = tmp_path / "quarantined"
        assert main([
            "sweep", "--traces", str(good), str(bad),
            "--quarantine", str(quarantine), "--sizes", "256",
        ]) == 0
        captured = capsys.readouterr()
        assert "quarantined unparseable trace" in captured.err
        assert not bad.exists()
        assert (quarantine / "bad.trace").exists()
        assert f"trace: {good}" in captured.out
        assert "epoch size" in captured.out

    def test_without_quarantine_sweep_fails(self, tmp_path, capsys):
        good, bad = self._traces(tmp_path)
        capsys.readouterr()
        assert main(
            ["sweep", "--traces", str(good), str(bad), "--sizes", "256"]
        ) == 2
        _one_line_error(capsys, "sweep")
        assert bad.exists()  # hard failure must not move files

    def test_stream_file_is_named_for_what_it_is(self, tmp_path, capsys):
        # `check --trace` reads a version 4 file, so sweep must not
        # call it "unsupported"; it is still a quarantinable TraceError.
        stream = tmp_path / "t.stream.jsonl"
        assert main([
            "generate", "--benchmark", "LU", "--threads", "2",
            "--events", "500", "--stream", "--output", str(stream),
        ]) == 0
        capsys.readouterr()
        assert main(["sweep", "--traces", str(stream), "--sizes", "256"]) == 2
        assert "'repro check --trace' reads this one" in _one_line_error(
            capsys, "sweep"
        )
        assert main([
            "sweep", "--traces", str(stream),
            "--quarantine", str(tmp_path / "q"), "--sizes", "256",
        ]) == 2
        assert (tmp_path / "q" / stream.name).exists()

    def test_all_traces_quarantined_fails(self, tmp_path, capsys):
        bad = tmp_path / "only.trace"
        bad.write_text("nope\n")
        assert main([
            "sweep", "--traces", str(bad),
            "--quarantine", str(tmp_path / "q"), "--sizes", "256",
        ]) == 2
        err = capsys.readouterr().err
        assert "no readable trace files remain" in err


class TestFaultInjectionCLI:
    def test_faulty_output_identical_to_fault_free(self, capsys):
        assert main(CHECK_ARGS) == 0
        reference = capsys.readouterr().out
        assert main(
            CHECK_ARGS
            + ["--backend", "threads", "--retries", "8",
               "--inject-faults", "crash=0.2,corrupt=0.1,seed=11"]
        ) == 0
        assert capsys.readouterr().out == reference

    def test_exhausted_retries_fail_cleanly(self, capsys):
        assert main(
            CHECK_ARGS
            + ["--backend", "threads", "--retries", "1",
               "--inject-faults", "crash=1.0"]
        ) == 2
        # The diagnostic says why the unit kept failing, not just that
        # it did (the cause used to be dropped).
        message = _one_line_error(capsys, "check")
        assert "failed 2 times (max_retries=1): InjectedFault" in message

    def test_retries_zero_fails_fast(self, capsys):
        assert main(
            CHECK_ARGS
            + ["--backend", "threads", "--retries", "0",
               "--inject-faults", "crash=1.0"]
        ) == 2
        assert "failed 1 times (max_retries=0)" in _one_line_error(
            capsys, "check"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            # -1/-2 retries used to be accepted; a negative task timeout
            # treated every pooled unit as hung and recycled the pool.
            (["--retries", "-1"], "retries must be >= 0, got -1"),
            (["--retries", "-2"], "retries must be >= 0, got -2"),
            (["--backend", "threads", "--task-timeout", "-1"],
             "task timeout must be > 0 seconds, got -1.0"),
            (["--task-timeout", "0"],
             "task timeout must be > 0 seconds, got 0.0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_check_refuses_bad_retry_values(self, flags, message, capsys):
        assert main(CHECK_ARGS + flags) == 2
        assert message in _one_line_error(capsys, "check")

    @pytest.mark.parametrize(
        "flags, message",
        [
            # -1 retries never connected ("failed after 0 attempts:
            # None"); a negative timeout raised a ValueError traceback.
            (["--retries", "-1"], "retries must be >= 0, got -1"),
            (["--timeout", "-1"], "timeout must be > 0 seconds, got -1.0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_push_refuses_bad_retry_values(
        self, flags, message, tmp_path, capsys
    ):
        trace = tmp_path / "t.stream.jsonl"
        assert main([
            "generate", "--threads", "2", "--events", "64", "--stream",
            "--output", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main([
            "push", "--trace", str(trace),
            "--unix", str(tmp_path / "no-daemon.sock"), *flags,
        ]) == 2
        assert message in _one_line_error(capsys, "push")

    def test_negative_stop_after_epoch_is_refused(self, capsys):
        # It used to stop after epoch 0.
        assert main(CHECK_ARGS + ["--stop-after-epoch", "-1"]) == 2
        assert "--stop-after-epoch must be >= 0, got -1" in _one_line_error(
            capsys, "check"
        )

    @pytest.mark.parametrize("command", ["check", "rerun", "sweep", "stats"])
    def test_compute_faults_on_the_serial_backend_are_refused(
        self, command, tmp_path, capsys
    ):
        # The serial backend has no fan-out to inject into: this used
        # to exit 0 with a clean report and nothing injected.
        faults = ["--inject-faults", "crash=1.0", "--retries", "1"]
        if command == "check":
            argv = CHECK_ARGS + faults
        elif command == "rerun":
            ck = str(tmp_path / "run.ckpt")
            assert main(
                CHECK_ARGS + ["--checkpoint", ck, "--stop-after-epoch", "1"]
            ) == 0
            capsys.readouterr()
            argv = CHECK_ARGS + ["--checkpoint", ck] + faults
        else:
            argv = [command, "--benchmark", "LU", "--threads", "2",
                    "--events", "500"] + faults
        assert main(argv) == 2
        message = _one_line_error(
            capsys, "check" if command == "rerun" else command
        )
        assert "--backend threads|processes" in message
        # ...and the default backend still takes a transport-only plan
        # (nothing there is the backend's to inject).
        if command == "check":
            assert main(
                CHECK_ARGS + ["--inject-faults", "disconnect=0.5"]
            ) == 0

    def test_fault_events_carry_provenance(self, tmp_path, capsys):
        log = tmp_path / "faults.jsonl"
        assert main(
            CHECK_ARGS
            + ["--backend", "threads",
               "--inject-faults", "crash=0.3,seed=1",
               "--emit-events", str(log)]
        ) == 0
        events = read_events(str(log))
        faults = [ev for ev in events if ev["ev"] == "resilience.fault"]
        assert faults, "a 30% crash rate must hit at least once"
        for ev in faults:
            assert ev["kind"] == "crash"
            assert "epoch" in ev and "thread" in ev
            assert "batch" in ev and "attempt" in ev


class TestStatsSummaryJson:
    def test_summary_json_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main([
            "stats", "--benchmark", "LU", "--threads", "2",
            "--events", "2000", "--epoch-size", "256",
            "--summary-json", str(out),
        ]) == 0
        assert f"wrote metrics summary to {out}" in capsys.readouterr().err
        snap = json.loads(out.read_text())
        assert set(snap) == {"counters", "gauges", "spans"}
        assert "pass.first" in snap["spans"]
        assert not os.path.exists(str(out) + ".tmp")

    def test_unwritable_summary_json(self, tmp_path, capsys):
        assert main([
            "stats", "--benchmark", "LU", "--threads", "2",
            "--events", "500", "--epoch-size", "256",
            "--summary-json", str(tmp_path / "no" / "dir" / "s.json"),
        ]) == 2
        _one_line_error(capsys, "stats")


class TestCheckpointPaths:
    def test_checkpoint_into_a_missing_directory_is_refused(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "no" / "such"
        log = tmp_path / "events.jsonl"
        assert main(
            CHECK_ARGS + ["--checkpoint", str(missing / "run.ckpt"),
                          "--emit-events", str(log)]
        ) == 2
        message = _one_line_error(capsys, "check")
        assert f"no such directory {missing}" in message
        # Refused before the engine saw a single epoch.
        assert not [ev for ev in read_events(str(log))
                    if ev["ev"].startswith("pass.")]

    def test_serve_checkpoint_dir_that_is_a_file_is_named(
        self, tmp_path, capsys
    ):
        path = tmp_path / "a-file"
        path.write_text("")
        assert main(
            ["serve", "--port", "0", "--checkpoint-dir", str(path)]
        ) == 2
        message = _one_line_error(capsys, "serve")
        assert f"checkpoint directory {path}" in message
        assert "cannot listen" not in message
