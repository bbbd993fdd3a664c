"""The one delivery path: every command that runs a lifeguard feeds the
engine one epoch row at a time and prints through one report builder.

There is no ``--stream`` switch on ``check``/``sweep``/``stats`` (only
``generate --stream``, which names a file format): the same trace as a
generated workload, a version 1 file and a version 4 file prints
the same report block under every lifeguard, killed-and-resumed runs print
what uninterrupted ones print, and event logs and sweep tables are what
the switch's streamed side used to produce.
"""

import hashlib
import json
import pickle

import pytest

from repro.cli import main
from repro.core.columnar import ColumnarBlock
from repro.obs import read_events
from repro.obs.recorder import normalize_events
from repro.serve import ServeConfig, ServerThread
from repro.trace.events import Instr
from repro.trace.program import TraceProgram
from repro.trace.serialize import file_version, save_file

WORKLOAD = [
    "--benchmark", "OCEAN", "--threads", "2", "--events", "3000",
]
CHECK_ARGS = ["check"] + WORKLOAD + ["--epoch-size", "256"]

GENERATE_ARGS = [
    "generate", "--benchmark", "OCEAN", "--threads", "2",
    "--events", "4000", "--epoch-size", "128", "--stream",
]

LIFEGUARDS = ["addrcheck", "race", "taintcheck"]

#: sha256 of the normalized ``--emit-events`` log that ``repro check
#: --stream`` and ``repro stats --stream`` both wrote for ``WORKLOAD``
#: at ``--epoch-size 1024`` on the last commit that had the switch
#: (6030ce3; 250 events, equal under numpy and REPRO_NO_NUMPY=1).
STREAMED_LOG_SHA256 = (
    "105571b7d6790357ae0b45b8dd6e89778af2fe9b43042383dc991da65a9c4f43"
)

#: ``repro sweep`` rows for ``WORKLOAD`` on that same commit:
#: (epoch size, epochs, slowdown, false positives, FP rate).
SWEEP_ROWS = [
    ("128", "23", "2.32x", "0", "0.000%"),
    ("256", "12", "1.92x", "0", "0.000%"),
    ("1024", "3", "2.44x", "224", "7.356%"),
]


def _one_line_error(capsys, command):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"repro {command}: error:")
    return lines[0]


def _out(capsys, argv, rc=0):
    assert main(argv) == rc
    return capsys.readouterr().out


def _log_digest(path):
    events = normalize_events(read_events(str(path)))
    blob = json.dumps(events, sort_keys=True, separators=(",", ":"))
    return len(events), hashlib.sha256(blob.encode()).hexdigest()


class TestGenerateStream:
    def test_writes_a_version_2_trace(self, tmp_path, capsys):
        """Named for the layout it first pinned: the writer's stream
        version is 4 now, with no option to write 2 or 3."""
        path = tmp_path / "t.stream.jsonl"
        assert main(GENERATE_ARGS + ["--output", str(path)]) == 0
        assert "streamed" in capsys.readouterr().out
        assert file_version(path) == 4


class TestCheckStream:
    def test_peak_line_is_always_printed(self, capsys):
        lines = _out(capsys, CHECK_ARGS).splitlines()
        assert lines[0] == "trace: OCEAN, 2 threads, 12 epochs (streamed)"
        assert "stream: peak resident summaries 6 (bound 6)" in lines
        with pytest.raises(SystemExit):
            main(CHECK_ARGS + ["--stream"])
        assert "unrecognized arguments: --stream" in capsys.readouterr().err

    def test_version_2_trace_streams_automatically(self, tmp_path, capsys):
        """Named for the layout it first pinned: ``generate --stream``
        writes version 4 now, the only stream layout read."""
        path = tmp_path / "t.stream.jsonl"
        assert main(GENERATE_ARGS + ["--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "(streamed)" in out
        assert "stream: peak resident summaries 6 (bound 6)" in out

    def test_truncated_stream_trace_fails_with_context(
        self, tmp_path, capsys
    ):
        path = tmp_path / "t.stream.jsonl"
        assert main(GENERATE_ARGS + ["--output", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        assert main(["check", "--trace", str(path)]) == 2
        assert f"{path}:" in _one_line_error(capsys, "check")

    @pytest.mark.parametrize("field, value", [
        ("row", ["write", 2**63, [3], 1]),
        ("row", ["read", None, [-(2**63) - 1], 1]),
        ("start", True),
        ("start", -1),
        ("row", ["malloc", -(2**63), [], 1]),
        ("row", ["malloc", 2**63 - 2, [], 4]),
    ])
    def test_malformed_epoch_record_is_one_error_line(
        self, tmp_path, capsys, field, value
    ):
        """A value outside int64 used to end ``check --trace`` in an
        ``OverflowError`` traceback (exit 1), and a ``true`` or negative
        block start was analysed (exit 0).  A bad row can only ride in
        a list block, version 2's block form, which is refused whole."""
        path = tmp_path / "t.stream.jsonl"
        assert main(GENERATE_ARGS + ["--output", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines(keepends=True)
        epoch = json.loads(lines[2])  # line 3: epoch 1
        if field == "row":
            rows = ColumnarBlock.from_rows(epoch["blocks"][1]).to_rows()
            epoch["blocks"][1] = rows + [value]
        else:
            epoch["starts"][0] = value
        lines[2] = json.dumps(epoch) + "\n"
        path.write_text("".join(lines))
        assert main(["check", "--trace", str(path)]) == 2
        error = _one_line_error(capsys, "check")
        assert f"{path}:3: " in error
        assert "malformed block record" in error

    @pytest.mark.parametrize("command", ["check", "push"])
    @pytest.mark.parametrize("version", [2, 3])
    def test_version_2_and_3_files_are_one_error_line(
        self, tmp_path, capsys, command, version
    ):
        """Nothing reads the row (2) or location-list (3) stream
        layouts: both commands refuse the header in one line, exit 2,
        before ``push`` ever connects."""
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({
            "format": "repro-trace", "version": version, "threads": 1,
            "epochs": 0, "preallocated": [],
        }) + '\n{"epochs_written": 0}\n')
        argv = [command, "--trace", str(path)]
        if command == "push":
            argv += ["--unix", str(tmp_path / "no.sock")]
        assert main(argv) == 2
        assert _one_line_error(capsys, command).endswith(
            f"{path}:1: unsupported trace version {version}"
        )

    def test_v1_location_outside_int64_is_one_error_line(
        self, tmp_path, capsys
    ):
        """The version 1 reader had a row decoder of its own, which
        ended ``check --trace`` in an ``OverflowError`` traceback."""
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1, "threads": 1}\n'
            f'[["read", null, [{2**70}], 1]]\n'
            '{"true_order": null}\n{"timesliced_order": null}\n'
            '{"preallocated": []}\n'
        )
        assert main(["check", "--trace", str(path)]) == 2
        error = _one_line_error(capsys, "check")
        assert f"{path}:2: malformed instruction record" in error

    @pytest.mark.parametrize("row", [
        ["malloc", -(2**63), [], 1],
        ["malloc", 2**63 - 2, [], 4],
    ])
    def test_v1_literal_no_dst_or_wrapping_extent_is_one_error_line(
        self, tmp_path, capsys, row
    ):
        """A literal -2**63 destination was read as "no destination"
        (exit 0, no flags), and an extent past 2**63-1 wrapped to
        negative locations the columnar AddrCheck did not flag."""
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1, "threads": 1}\n'
            + json.dumps([row, ["read", None, [-(2**63)], 1]]) + "\n"
            '{"true_order": null}\n{"timesliced_order": null}\n'
            '{"preallocated": []}\n'
        )
        assert main(["check", "--trace", str(path)]) == 2
        error = _one_line_error(capsys, "check")
        assert f"{path}:2: malformed instruction record" in error

    def test_v1_file_with_no_recorded_order_reports_without_oracle(
        self, tmp_path, capsys
    ):
        """``save_file`` writes ``true_order: null`` for a program built
        from lists; ``check`` printed its report, then exited 2 asking
        the missing order for an oracle score."""
        path = tmp_path / "t.jsonl"
        save_file(
            TraceProgram.from_lists([Instr.write(1)], [Instr.read(2)]),
            path,
        )
        assert main(["check", "--trace", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "flags: 2\n" in captured.out
        assert "oracle" not in captured.out


@pytest.fixture(scope="module")
def ocean_files(tmp_path_factory):
    """One OCEAN trace as a version 1 file and as a version 4 stream
    file cut at the ``--epoch-size 1024`` the generated run uses:
    ``v1, v4``."""
    tmp = tmp_path_factory.mktemp("ocean")
    v1, v4 = str(tmp / "ocean.v1.jsonl"), str(tmp / "ocean.jsonl")
    generate = ["generate"] + WORKLOAD
    assert main(generate + ["--output", v1]) == 0
    assert main(
        generate + ["--epoch-size", "1024", "--stream", "--output", v4]
    ) == 0
    assert (file_version(v1), file_version(v4)) == (1, 4)
    return v1, v4


class TestOneReportBlock:
    """Generated workload, v1 file, v4 file and ``repro push``: one
    block, whatever the lifeguard."""

    @staticmethod
    def block(out, label):
        """The ``format_report`` block of a check/push output, with the
        label (benchmark name or path) taken out of its header."""
        lines = out.splitlines()
        end = next(
            i for i, line in enumerate(lines) if line.startswith("stream: ")
        )
        assert lines[0].startswith(f"trace: {label}, ")
        return [lines[0].replace(label, "<label>")] + lines[1:end + 1]

    @pytest.mark.parametrize("lifeguard", LIFEGUARDS)
    def test_same_block_from_workload_v1_and_v4(
        self, ocean_files, capsys, lifeguard
    ):
        v1, v4 = ocean_files
        tail = ["--epoch-size", "1024", "--lifeguard", lifeguard]
        generated = _out(capsys, ["check"] + WORKLOAD + tail)
        from_v1 = _out(capsys, ["check", "--trace", v1] + tail)
        block = self.block(generated, "OCEAN")
        assert block[0] == "trace: <label>, 2 threads, 3 epochs (streamed)"
        assert self.block(from_v1, v1) == block
        from_stream = _out(capsys, ["check", "--trace", v4] + tail)
        assert self.block(from_stream, v4) == block
        # A stream file has no program to run the sequential oracle
        # over; the other two add AddrCheck's precision lines after the
        # block.
        assert from_stream.splitlines() == [
            line.replace("<label>", v4) for line in block
        ]
        oracle = [
            line for line in generated.splitlines()
            if line.startswith(("oracle ", "false-positive rate: "))
        ]
        assert len(oracle) == (2 if lifeguard == "addrcheck" else 0)
        assert from_v1.splitlines()[len(block):] == oracle

    def test_flagging_run_prints_reports_and_oracle(self, capsys):
        out = _out(capsys, ["check"] + WORKLOAD + ["--epoch-size", "1024"])
        lines = out.splitlines()
        assert lines[1] == "flags: 224"
        assert lines[2].startswith("  access-unallocated")
        assert (
            "oracle (h=1024 events): true: 0  false positives: 224"
            "  false negatives: 0"
        ) in lines
        assert "false-positive rate: 7.3563% of memory accesses" in lines

    @pytest.mark.parametrize("lifeguard", LIFEGUARDS)
    def test_check_on_a_v4_file_is_byte_identical_to_push(
        self, ocean_files, tmp_path, capsys, lifeguard
    ):
        _v1, v4 = ocean_files
        config = ServeConfig(unix_path=str(tmp_path / "d.sock"))
        with ServerThread(config) as daemon:
            pushed = _out(capsys, [
                "push", "--trace", v4, "--unix", daemon.address[1],
                "--lifeguard", lifeguard,
            ])
        checked = _out(capsys, [
            "check", "--trace", v4, "--lifeguard", lifeguard,
        ])
        assert pushed == checked
        assert "flags: " in checked


class TestStreamResume:
    def _generate(self, tmp_path, capsys):
        path = tmp_path / "t.stream.jsonl"
        assert main(GENERATE_ARGS + ["--output", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_resumed_output_identical_to_uninterrupted(
        self, tmp_path, capsys
    ):
        trace = self._generate(tmp_path, capsys)
        ck = str(tmp_path / "t.ckpt")
        assert main(["check", "--trace", trace]) == 0
        full = capsys.readouterr().out
        assert main([
            "check", "--trace", trace,
            "--checkpoint", ck, "--stop-after-epoch", "4",
        ]) == 0
        assert "stopped after receiving epoch 4" in capsys.readouterr().err
        assert main(["resume", "--checkpoint", ck]) == 0
        assert capsys.readouterr().out == full

    @pytest.mark.parametrize("stream_key", [True, False])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_checkpoint_with_a_stream_key_still_resumes(
        self, tmp_path, capsys, from_file, stream_key
    ):
        """Checkpoints written while ``check`` had a ``--stream``
        switch recorded it in their fingerprint; ``resume`` reads only
        the keys it rebuilds the run from, so the key is inert."""
        workload = (
            ["--trace", self._generate(tmp_path, capsys)] if from_file
            else WORKLOAD + ["--epoch-size", "256"]
        )
        ck = str(tmp_path / "t.ckpt")
        full = _out(capsys, ["check"] + workload)
        _out(capsys, ["check"] + workload + [
            "--checkpoint", ck, "--stop-after-epoch", "4",
        ])
        with open(ck, "rb") as fh:
            payload = pickle.load(fh)
        assert "stream" not in payload["meta"]
        payload["meta"]["stream"] = stream_key
        with open(ck, "wb") as fh:
            pickle.dump(payload, fh)
        assert _out(capsys, ["resume", "--checkpoint", ck]) == full

    def test_stitched_event_log_equals_uninterrupted(
        self, tmp_path, capsys
    ):
        trace = self._generate(tmp_path, capsys)
        ck = str(tmp_path / "t.ckpt")
        full_log = tmp_path / "full.jsonl"
        stopped_log = tmp_path / "stopped.jsonl"
        resumed_log = tmp_path / "resumed.jsonl"
        assert main([
            "check", "--trace", trace, "--emit-events", str(full_log),
        ]) == 0
        assert main([
            "check", "--trace", trace, "--emit-events", str(stopped_log),
            "--checkpoint", ck, "--stop-after-epoch", "4",
        ]) == 0
        assert main([
            "resume", "--checkpoint", ck,
            "--emit-events", str(resumed_log),
        ]) == 0
        resumed = read_events(str(resumed_log))
        boundary = resumed[0]["seq"]
        prefix = [
            e for e in read_events(str(stopped_log)) if e["seq"] < boundary
        ]
        assert normalize_events(prefix + resumed) == normalize_events(
            read_events(str(full_log))
        )

    def test_tampered_stream_trace_refused(self, tmp_path, capsys):
        trace = self._generate(tmp_path, capsys)
        ck = str(tmp_path / "t.ckpt")
        assert main([
            "check", "--trace", trace,
            "--checkpoint", ck, "--stop-after-epoch", "4",
        ]) == 0
        capsys.readouterr()
        with open(trace, "a") as fh:
            fh.write("\n")
        assert main(["resume", "--checkpoint", ck]) == 2
        assert "sha256 mismatch" in _one_line_error(capsys, "resume")


class TestSweepAndStatsStream:
    def test_sweep_stream_matches_materialized_table(self, capsys):
        # The sweep has one delivery now (streamed); its rows are the
        # ones the materialized default printed before the switch went.
        out = _out(
            capsys, ["sweep"] + WORKLOAD + ["--sizes", "128", "256", "1024"]
        )
        # The first five cells are deterministic; the wall-clock cells
        # and the fit lines after the table are the host's.
        rows = [
            tuple(cell.strip() for cell in line.split("|")[:5])
            for line in out.splitlines()[2:] if "|" in line
        ]
        assert rows == SWEEP_ROWS
        with pytest.raises(SystemExit):
            main(["sweep", "--stream"])
        capsys.readouterr()

    def test_stats_stream_reports_window_metrics(self, capsys):
        assert main([
            "stats", "--benchmark", "LU", "--threads", "2",
            "--events", "2000", "--epoch-size", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert "stream.epochs_received" in out
        assert "engine.window_resident_blocks" in out

    @pytest.mark.parametrize("command", ["check", "stats"])
    def test_event_log_is_what_the_stream_switch_wrote(
        self, tmp_path, capsys, command
    ):
        log = tmp_path / f"{command}.jsonl"
        _out(capsys, [command] + WORKLOAD + [
            "--epoch-size", "1024", "--emit-events", str(log),
        ])
        assert _log_digest(log) == (250, STREAMED_LOG_SHA256)
