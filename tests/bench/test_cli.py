"""Tests for the command-line interface (small workloads)."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.obs import read_events


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_defaults(self):
        args = build_parser().parse_args(["figure11"])
        assert args.events == 32768
        assert args.threads == [2, 4, 8]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Simulator and Benchmark Parameters" in out
        assert "BLACKSCHOLES" in out

    def test_figure11_small(self, capsys):
        assert main(
            ["figure11", "--events", "2000", "--threads", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "butterfly" in out

    def test_figure13_small(self, capsys):
        assert main(
            ["figure13", "--events", "2000", "--threads", "2"]
        ) == 0
        assert "Figure 13" in capsys.readouterr().out

    @pytest.mark.parametrize("figure, digest", [
        ("figure12",
         "96e43e8d4842560874ec9bea9316eeea631d190d721b9329749196dcbcfe6caa"),
        ("figure13",
         "e1d70965323ea6e55768f7acc8eaae390983c2d85419e2c7307633cd3d0a5e69"),
    ])
    def test_figures_print_what_their_own_loop_printed(
        self, capsys, figure, digest
    ):
        # sha256 of stdout at d9461d1, where ExperimentSuite.run cut the
        # partition, built the guard and ran the oracle itself (equal
        # under numpy and REPRO_NO_NUMPY=1).
        assert main([figure, "--events", "4096", "--threads", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_check_addrcheck(self, capsys):
        assert main(
            [
                "check", "--benchmark", "LU", "--threads", "2",
                "--events", "3000", "--epoch-size", "256",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "false negatives: 0" in out

    def test_check_race(self, capsys):
        assert main(
            [
                "check", "--benchmark", "OCEAN", "--threads", "2",
                "--events", "4000", "--epoch-size", "2048",
                "--lifeguard", "race",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("flags: ")
        assert lines[2].split()[0] == "unsafe-isolation"

    def test_check_taintcheck(self, capsys):
        # The paper's second lifeguard runs offline too: check, stats
        # and push share one --lifeguard list.
        assert main(
            [
                "check", "--benchmark", "OCEAN", "--threads", "2",
                "--events", "2000", "--epoch-size", "512",
                "--lifeguard", "taintcheck",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("flags: ")
        assert "oracle" not in out

    def test_limit_zero_prints_the_count_only(self, capsys):
        assert main(
            [
                "check", "--benchmark", "HANDOFF", "--threads", "2",
                "--events", "256", "--epoch-size", "16", "--limit", "0",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "flags: 140"
        assert lines[2].startswith("stream: peak resident summaries")

    def test_one_lifeguard_list_and_none_on_sweep_or_tune(self):
        import argparse

        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        choices = {
            name: action.choices
            for name, parser in sub.choices.items()
            for action in parser._actions
            if "--lifeguard" in action.option_strings
        }
        # resume has none: the checkpoint names its lifeguard.
        assert sorted(choices) == ["check", "push", "stats"]
        assert set(choices.values()) == {
            ("addrcheck", "race", "taintcheck")
        }

    def test_sweep(self, capsys):
        assert main(
            [
                "sweep", "--benchmark", "LU", "--threads", "2",
                "--events", "3000", "--sizes", "256", "1024",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch size" in out
        assert "slowdown" in out

    def test_sweep_handoff_writes_the_record_tune_wrote(
        self, tmp_path, capsys
    ):
        # `repro tune`'s default invocation, as it read at d9461d1.
        path = tmp_path / "f.json"
        assert main(
            [
                "sweep", "--benchmark", "HANDOFF", "--threads", "4",
                "--events", "1024", "--seed", "1",
                "--sizes", "2", "4", "8", "16", "32",
                "--output", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fit: fp_rate ~ +0.1339 * log2(h) +0.2860" in out
        assert "fit: mean_epoch_ms ~ " in out
        assert "raw FP rate monotone nondecreasing: yes" in out
        record = json.loads(path.read_text())
        assert {
            key: record[key]
            for key in ("workload", "threads", "events_per_thread",
                        "seed", "lifeguard", "fp_monotone_nondecreasing")
        } == {
            "workload": "HANDOFF", "threads": 4, "events_per_thread": 1024,
            "seed": 1, "lifeguard": "addrcheck",
            "fp_monotone_nondecreasing": True,
        }
        points = record["points"]
        assert [p["epoch_size"] for p in points] == [2, 4, 8, 16, 32]
        assert [p["epochs"] for p in points] == [513, 257, 129, 65, 33]
        assert [p["false_positives"] for p in points] == [
            1204, 1978, 2716, 2770, 3099
        ]
        assert [p["flagged"] for p in points] == [
            1204, 1978, 2716, 2770, 3099
        ]
        assert [round(p["fp_rate"], 5) for p in points] == [
            0.35184, 0.57802, 0.79369, 0.80947, 0.90561
        ]
        assert all(
            p["slowdown"] > 1 and p["mean_epoch_ms"] > 0
            and p["max_epoch_ms"] >= p["mean_epoch_ms"]
            and p["events_per_s"] > 0
            for p in points
        )
        fit = record["fit"]
        assert round(fit["fp_rate_vs_log2_h"]["slope"], 4) == 0.1339
        assert set(fit["mean_epoch_ms_vs_h"]) == {"slope", "intercept"}

    def test_sweep_traces_output_has_one_record_per_trace(
        self, tmp_path, capsys
    ):
        traces = []
        for name, seed in (("a", 1), ("b", 2)):
            traces.append(str(tmp_path / f"{name}.trace"))
            assert main(
                [
                    "generate", "--benchmark", "HANDOFF", "--threads", "2",
                    "--events", "200", "--seed", str(seed),
                    "--output", traces[-1],
                ]
            ) == 0
        path = tmp_path / "f.json"
        assert main(
            ["sweep", "--traces", *traces, "--sizes", "4", "16",
             "--output", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert [
            line for line in out.splitlines() if line.startswith("trace: ")
        ] == [f"trace: {trace}" for trace in traces]
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [r["workload"] for r in records] == traces
        for record in records:
            assert record["threads"] == 2
            assert record["seed"] is None
            assert [p["epoch_size"] for p in record["points"]] == [4, 16]
        assert records[0]["points"] != records[1]["points"]


class TestEmitEvents:
    def test_check_writes_parseable_event_log(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(
            [
                "check", "--benchmark", "LU", "--threads", "2",
                "--events", "2000", "--epoch-size", "256",
                "--emit-events", str(path),
            ]
        ) == 0
        assert f"events to {path}" in capsys.readouterr().err
        events = read_events(str(path))
        names = {ev["ev"] for ev in events}
        assert {"run.attach", "pass.first", "pass.second",
                "epoch.summary", "run.finish"} <= names
        # Epoch spans cover every epoch; every event is seq-numbered.
        epochs = [ev["epoch"] for ev in events if ev["ev"] == "pass.first"]
        assert epochs == sorted(epochs)
        assert [ev["seq"] for ev in events] == list(
            range(1, len(events) + 1)
        )

    def test_check_race_event_log(self, tmp_path, capsys):
        path = tmp_path / "race.jsonl"
        assert main(
            [
                "check", "--benchmark", "OCEAN", "--threads", "2",
                "--events", "2000", "--epoch-size", "512",
                "--lifeguard", "race", "--emit-events", str(path),
            ]
        ) == 0
        events = read_events(str(path))
        for ev in events:
            if ev["ev"] == "error":
                assert ev["stage"] == "second"
                assert ev["conflict"] in ("write-write", "read-write")

    def test_sweep_event_log_tags_each_config(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        assert main(
            [
                "sweep", "--benchmark", "LU", "--threads", "2",
                "--events", "2000", "--sizes", "256", "512",
                "--emit-events", str(path),
            ]
        ) == 0
        events = read_events(str(path))
        sizes = [
            ev["epoch_size"] for ev in events if ev["ev"] == "sweep.config"
        ]
        assert sizes == [256, 512]


class TestStatsCommand:
    def test_stats_prints_span_and_metric_summary(self, capsys):
        assert main(
            [
                "stats", "--benchmark", "LU", "--threads", "2",
                "--events", "2000", "--epoch-size", "256",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "spans (aggregated):" in out
        assert "pass.first" in out
        assert "gauges:" in out
        assert "addrcheck.recorded_accesses" in out
        # No lifeguard interns locations: isolation and conflict checks
        # are plain set algebra over the window's summaries.
        assert "intern." not in out

    def test_stats_race_lifeguard(self, capsys):
        assert main(
            [
                "stats", "--benchmark", "OCEAN", "--threads", "2",
                "--events", "2000", "--epoch-size", "512",
                "--lifeguard", "race",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "racecheck.races" in out
        assert "intern." not in out

    def test_stats_emit_events(self, tmp_path, capsys):
        path = tmp_path / "stats.jsonl"
        assert main(
            [
                "stats", "--benchmark", "LU", "--threads", "2",
                "--events", "2000", "--epoch-size", "256",
                "--emit-events", str(path),
            ]
        ) == 0
        assert read_events(str(path))


class TestErrorPaths:
    """Unwritable outputs exit 2 with a one-line message, no traceback."""

    def bad_path(self, tmp_path):
        return str(tmp_path / "no" / "such" / "dir" / "out")

    def test_check_unwritable_emit_events(self, tmp_path, capsys):
        rc = main(
            ["check", "--events", "64",
             "--emit-events", self.bad_path(tmp_path)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro check: error: cannot write")
        assert len(err.strip().splitlines()) == 1

    def test_sweep_unwritable_emit_events(self, tmp_path, capsys):
        rc = main(
            ["sweep", "--events", "64",
             "--emit-events", self.bad_path(tmp_path)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "repro sweep: error: cannot write"
        )

    def test_bench_subcommand_is_gone(self, capsys):
        # Performance is measured by benchmarks/e2e/run.py; the old
        # subcommand is removed outright, not left half-wired.
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err

    def test_tune_subcommand_is_gone(self, capsys):
        # Folded into `repro sweep` (--benchmark HANDOFF, --output).
        with pytest.raises(SystemExit) as exc:
            main(["tune"])
        assert exc.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err

    def test_generate_unwritable_output(self, tmp_path, capsys):
        rc = main(
            ["generate", "--events", "64",
             "--output", self.bad_path(tmp_path)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "repro generate: error: cannot write"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--epoch-size", "0"],
            ["sweep", "--sizes", "0"],
            ["stats", "--epoch-size", "0"],
            ["generate", "--stream", "--epoch-size", "0", "--output", "OUT"],
            ["check", "--threads", "0"],
            # The server workload needs a receiver and a worker; it
            # used to raise a bare ValueError.
            ["check", "--benchmark", "SECURE-SERVER", "--threads", "1",
             "--events", "64"],
            ["serve", "--workers", "0"],
            ["serve", "--checkpoint-every", "0"],
            ["serve", "--idle-timeout", "-1"],
            # The controller sees at most queue-depth - 1 waiting rows,
            # so the default queue high of 3 could never grow the fold.
            ["serve", "--adaptive-epoch", "--queue-depth", "3"],
            # Ports outside 0..65535 used to die in bind/connect with an
            # OverflowError traceback.
            ["serve", "--port", "70000"],
            ["serve", "--metrics", "-5"],
            ["check", "--events", "64", "--inject-faults", "bogus"],
            ["check", "--trace", "TRUNCATED"],
            # A negative --limit used to slice errors[:-1]: one report
            # short under a header that counted them all.
            ["check", "--events", "64", "--limit", "-1"],
            ["resume", "--checkpoint", "OUT", "--limit", "-1"],
            ["push", "--trace", "OUT", "--unix", "OUT", "--limit", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_repro_errors_exit_2_with_one_line(self, argv, tmp_path, capsys):
        # Every ReproError is caught once, in main(): a bad invocation
        # never prints a stack, whichever layer noticed it.
        truncated = tmp_path / "t.stream.jsonl"
        if "TRUNCATED" in argv:
            assert main(
                ["generate", "--threads", "2", "--events", "600",
                 "--stream", "--output", str(truncated)]
            ) == 0
            lines = truncated.read_text().splitlines(keepends=True)
            truncated.write_text("".join(lines[:3]))
            capsys.readouterr()
        argv = [
            {"OUT": str(tmp_path / "out"), "TRUNCATED": str(truncated)}
            .get(arg, arg)
            for arg in argv
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro {argv[0]}: error: ")

    def test_push_refuses_an_out_of_range_port(self, tmp_path, capsys):
        trace = str(tmp_path / "t.stream.jsonl")
        assert main(
            ["generate", "--threads", "2", "--events", "600", "--stream",
             "--output", trace]
        ) == 0
        capsys.readouterr()
        argv = ["push", "--trace", trace, "--connect", "127.0.0.1:70000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "repro push: error: bad port in address '127.0.0.1:70000'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--output", "OUT"],
            ["check"],
            ["stats"],
            ["sweep"],
            ["figure11", "--threads", "2"],
            ["figure12", "--threads", "2"],
            ["figure13", "--threads", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("events", ["0", "-100"])
    def test_events_below_one_are_refused(self, argv, events, tmp_path, capsys):
        # Every generator used to round a non-positive count up to its
        # minimum trace (12,376 OCEAN events at --events 0).
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
        assert main(argv + ["--events", events]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro {argv[0]}: error: need at least one event per thread\n"
        )

    def test_analysis_error_keeps_its_traceback(self, monkeypatch):
        # AnalysisError means this package drove its own engine wrongly:
        # a bug to see in full, not a usage error to summarize.
        from repro.errors import AnalysisError

        def broken(args):
            raise AnalysisError("epochs must arrive in order")

        monkeypatch.setattr("repro.cli.cmd_table1", broken)
        with pytest.raises(AnalysisError):
            main(["table1"])

    def test_check_stream_with_nested_preallocated(self, tmp_path, capsys):
        # Used to die with "TypeError: unhashable type: 'list'".
        path = tmp_path / "t.stream.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 4, "threads": 1, '
            '"epochs": 0, "preallocated": [[1]]}\n{"epochs_written": 0}\n'
        )
        assert main(["check", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"repro check: error: {path}:1: bad preallocated set [[1]]\n"
        )

    def test_check_missing_trace(self, tmp_path, capsys):
        rc = main(["check", "--trace", str(tmp_path / "nope.trace")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "repro check: error: cannot read"
        )
