"""Tests for the command-line interface (small workloads)."""

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
        assert "potential conflicts" in capsys.readouterr().out

    def test_check_taintcheck(self, capsys):
        # The paper's second lifeguard runs offline too: check, resume,
        # stats and push share one --lifeguard list.
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
        assert sorted(choices) == ["check", "push", "resume", "stats"]
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
        assert f"events to {path}" in capsys.readouterr().out
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
        # AddrCheck interns nothing (its isolation check is plain set
        # algebra); the intern.* gauges are RaceCheck's.
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
        assert "intern.size" in out

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

    def test_stats_serve_honors_workers_flag(self, tmp_path, capsys):
        # Regression: the --serve self-test used to hardcode workers=2,
        # ignoring --workers entirely.  The daemon publishes its actual
        # shard count as the serve.workers gauge, so the summary proves
        # the flag reached the ServeConfig.
        import json

        summary = tmp_path / "summary.json"
        assert main(
            [
                "stats", "--benchmark", "LU", "--threads", "2",
                "--events", "1500", "--epoch-size", "256",
                "--serve", "--workers", "3",
                "--summary-json", str(summary),
            ]
        ) == 0
        snapshot = json.loads(summary.read_text())
        assert snapshot["gauges"]["serve.workers"] == 3
        assert snapshot["gauges"]["serve.shard_depth.2"] == 0
        assert snapshot["counters"]["serve.streams_completed"] == 2


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
            ["serve", "--workers", "0"],
            ["check", "--events", "64", "--inject-faults", "bogus"],
            ["check", "--trace", "TRUNCATED"],
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

    def test_analysis_error_keeps_its_traceback(self, monkeypatch):
        # AnalysisError means this package drove its own engine wrongly:
        # a bug to see in full, not a usage error to summarize.
        from repro.errors import AnalysisError

        def broken(args):
            raise AnalysisError("epochs must arrive in order")

        monkeypatch.setattr("repro.cli.cmd_table1", broken)
        with pytest.raises(AnalysisError):
            main(["table1"])

    def test_check_missing_trace(self, tmp_path, capsys):
        rc = main(["check", "--trace", str(tmp_path / "nope.trace")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "repro check: error: cannot read"
        )
