"""Tests for the command-line driver."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "pmake"])
        assert args.workload == "pmake"
        assert args.cells == 4
        assert not args.irix

    def test_inject_args(self):
        args = build_parser().parse_args(
            ["inject", "sw_cow_tree", "--trials", "2",
             "--agreement", "voting"])
        assert args.scenario == "sw_cow_tree"
        assert args.trials == 2
        assert args.agreement == "voting"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "pmake"])
        assert args.workload == "pmake"
        assert args.cells == 4
        assert args.seed == 1995

    def test_metrics_accepts_hive_config(self):
        args = build_parser().parse_args(
            ["metrics", "raytrace", "--cells", "2", "--seed", "3"])
        assert args.workload == "raytrace"
        assert args.cells == 2

    def test_metrics_format_flag(self):
        args = build_parser().parse_args(["metrics", "raytrace"])
        assert args.format == "table"
        args = build_parser().parse_args(
            ["metrics", "raytrace", "--format", "json"])
        assert args.format == "json"

    def test_bench_writes_a_file_only_with_out(self):
        args = build_parser().parse_args(["bench"])
        assert args.out is None
        assert not args.compare_parked
        assert sorted(vars(args)) == ["command", "compare_parked", "config",
                                      "fn", "out", "rpc", "seed"]
        # trace-replay execution is gone, and the archive only it read;
        # session traffic is `repro sessions`'; one run per config, its
        # rate judged by perfbench, so no repeat, pool or fork knobs
        for flag in (["--replay", "x.npz"], ["--record", "x.npz"],
                     ["--compare-replay"], ["--sweep-faults", "2"],
                     ["--sessions", "50000"], ["--repeats", "2"],
                     ["--parallel", "2"], ["--progress"], ["--snapshot"],
                     ["--compare-snapshot"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench"] + flag)

    def test_census_commands_parse(self):
        # benchmarks/census.py runs these for half an hour and stops at
        # the first usage error; a removed flag should fail here first.
        from benchmarks.census import COMMANDS

        for line in COMMANDS.splitlines():
            for command in line.split("|"):
                build_parser().parse_args(command.format(t="t").split())

    def test_sessions_subcommand_defaults(self):
        args = build_parser().parse_args(["sessions"])
        assert args.sessions == 1_000_000
        assert args.cells == 4 and args.nodes == 4
        assert args.inject_ms is None
        assert not args.no_failover
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sessions", "--snapshot"])

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.scenario == "all"
        assert args.format == "markdown"
        assert not args.check
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--bench-dir", "."])
        args = build_parser().parse_args(
            ["report", "--scenario", "hw_random", "--check",
             "--format", "json", "--parallel", "4"])
        assert args.scenario == "hw_random"
        assert args.check
        assert args.parallel == 4

    @pytest.mark.parametrize("command", [
        ["inject", "hw_random"], ["audit", "hw_random"], ["report"]])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_must_be_positive(self, capsys, command, trials):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--trials", trials])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --trials: must be at least 1: {trials}" in err

    def test_campaign_progress_flag(self):
        args = build_parser().parse_args(["inject", "all", "--progress"])
        assert args.progress
        # inject is always a campaign; `repro audit --out` writes the audit
        for flag in (["--campaign"], ["--audit-out", "audit.md"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["inject", "all"] + flag)

    def test_telemetry_out_flag(self):
        args = build_parser().parse_args(
            ["run", "pmake", "--telemetry-out", "/tmp/t"])
        assert args.telemetry_out == "/tmp/t"
        args = build_parser().parse_args(
            ["inject", "sw_cow_tree", "--telemetry-out", "/tmp/t"])
        assert args.telemetry_out == "/tmp/t"


class TestCommands:
    def test_run_small_hive(self, capsys):
        rc = main(["run", "raytrace", "--cells", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jobs completed      : 4" in out
        assert "invariant check     : clean" in out

    def test_run_irix_baseline(self, capsys):
        rc = main(["run", "ocean", "--irix", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "IRIX" in out

    def test_inject_contained(self, capsys):
        rc = main(["inject", "hw_process_creation", "--trials", "1",
                   "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "contained 1/1" in out
        assert "containment audit: contained (" in out

    def test_inject_not_contained_names_its_reason(self, monkeypatch,
                                                   capsys):
        # An injector that never finds a node to corrupt: nothing is
        # detected, and the line must say so and say why (the campaign's
        # forked workers inherit the patch).
        from repro.core.kfaults import KernelFaultInjector

        monkeypatch.setattr(KernelFaultInjector, "corrupt_cow_tree",
                            lambda self, *args, **kwargs: None)
        rc = main(["inject", "sw_cow_tree", "--trials", "1", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert ("   NOT CONTAINED (seed 3): not detected; "
                "fault never injected\n") in out

    def test_sessions_no_failover_accounts_for_every_session(self, capsys):
        rc = main(["sessions", "--sessions", "30000", "--inject-ms", "60",
                   "--no-failover"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed 23,931 / lost 8 (+6,061 dead-cell arrivals)" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("bad, message", [
        ({"lost": 1}, "sessions unaccounted for"),
        ({"completed": 99, "lost": 1}, "differ from the latency histogram"),
        ({"probes_completed": 0}, "probe sessions lost"),
    ])
    def test_sessions_exits_1_when_the_books_do_not_balance(
            self, monkeypatch, capsys, bad, message):
        import repro.workloads.sessions as sessions

        real = sessions.run_sessions

        def doctored(cfg, **kw):
            return {**real(cfg, **kw), **bad}

        monkeypatch.setattr(sessions, "run_sessions", doctored)
        rc = main(["sessions", "--sessions", "100", "--probe-every", "50"])
        out = capsys.readouterr().out
        assert rc == 1
        assert message in out

    def test_run_irix_rejects_telemetry(self, capsys):
        rc = main(["run", "ocean", "--irix", "--seed", "3",
                   "--telemetry-out", "/tmp/never-created"])
        assert rc == 2
        assert not os.path.exists("/tmp/never-created")

    def test_run_writes_telemetry(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tel")
        rc = main(["run", "raytrace", "--cells", "2", "--seed", "3",
                   "--telemetry-out", out_dir])
        assert rc == 0
        assert "telemetry written" in capsys.readouterr().out
        # Every artifact exists and parses.
        with open(os.path.join(out_dir, "spans.jsonl")) as fh:
            lines = fh.read().splitlines()
        assert lines
        for line in lines[:200]:
            assert json.loads(line)["type"] in ("span", "event")
        with open(os.path.join(out_dir, "trace.json")) as fh:
            trace = json.load(fh)
        assert trace["traceEvents"]
        with open(os.path.join(out_dir, "metrics.json")) as fh:
            metrics = json.load(fh)
        cell0 = metrics["cells"]["0"]
        for subsystem in ("firewall", "rpc", "sharing", "recovery"):
            assert subsystem in cell0
        with open(os.path.join(out_dir, "BENCH_pr2.json")) as fh:
            bench = json.load(fh)
        assert bench["workload"] == "raytrace"
        assert bench["spans"] > 0

    def test_trace_command(self, capsys):
        rc = main(["trace", "raytrace", "--cells", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "spans by name" in out
        assert "rpc.call" in out

    def test_metrics_command(self, capsys):
        rc = main(["metrics", "raytrace", "--cells", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cell 0" in out
        assert "rpc" in out

    def test_metrics_json_format_is_stable(self, capsys):
        rc = main(["metrics", "raytrace", "--cells", "2", "--seed", "3",
                   "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        snap = json.loads(out)
        assert "0" in snap["cells"]
        # stable sorted key order for diffing
        assert out == json.dumps(snap, sort_keys=True, indent=2) + "\n"

    def test_report_command(self, tmp_path, capsys):
        out_md = str(tmp_path / "report.md")
        campaign = str(tmp_path / "campaign.json")
        rc = main(["report", "--scenario", "hw_process_creation",
                   "--trials", "1", "--parallel", "1", "--seed", "5",
                   "--check", "--out", out_md, "--save-campaign", campaign])
        assert rc == 0
        with open(out_md) as fh:
            text = fh.read()
        assert "## Availability" in text
        assert "| recovery round |" in text
        assert "Throughput trajectory" not in text
        # the saved payload round-trips through --from-json
        rc = main(["report", "--from-json", campaign, "--out",
                   str(tmp_path / "again.md")])
        assert rc == 0
        with open(tmp_path / "again.md") as fh:
            assert fh.read() == text
        rc = main(["report", "--from-json", campaign, "--format", "json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["availability"]["recovery_latency_ns"]["p99"] >= 0
        assert sorted(report) == ["audit", "availability", "scenarios",
                                  "tiers"]
        assert rc == 0

    def test_bench_without_out_writes_no_file(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--config", "small"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "42993 events, 337838 accesses" in out
        assert "bench written" not in out
        assert os.listdir(tmp_path) == []
        rc = main(["bench", "--config", "small", "--out", "b.json"])
        assert rc == 0
        with open(tmp_path / "b.json") as fh:
            payload = json.load(fh)
        assert payload["results"]["small"]["events"] == 42993
        assert "calibration" not in payload
        assert os.listdir(tmp_path) == ["b.json"]

    @pytest.mark.parametrize("flags, message", [
        (["--victim-cell", "9", "--inject-ms", "10"],
         "victim_cell 9 is not a cell of this system (cells 0..3)"),
        (["--probe-every", "-1"], "probe_every must not be negative: -1"),
        (["--sessions", "-5"], "sessions must not be negative: -5"),
    ])
    def test_sessions_rejects_bad_input(self, capsys, flags, message):
        rc = main(["sessions", "--sessions", "1000"] + flags)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {message}\n"
