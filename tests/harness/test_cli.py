"""CLI tests."""

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_commands_accepted(self):
        parser = build_parser()
        for command in ("fig1", "fig2", "fig6", "fig7", "fig8",
                        "table1", "table2", "overheads", "all"):
            assert parser.parse_args([command]).command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_profile_choices(self):
        args = build_parser().parse_args(["fig1", "--profile", "full"])
        assert args.profile == "full"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--profile", "huge"])

    def test_workload_filter(self):
        args = build_parser().parse_args(
            ["fig7", "--workloads", "array", "list"])
        assert args.workloads == ["array", "list"]

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(
            ["fig7", "--jobs", "4", "--no-cache", "--refresh",
             "--cache-dir", "/tmp/x"])
        assert args.jobs == 4
        assert args.no_cache and args.refresh
        assert args.cache_dir == "/tmp/x"

    def test_jobs_default_serial(self):
        assert build_parser().parse_args(["fig7"]).jobs == 1

    def test_seeds_plumbed_everywhere(self):
        for command in ("fig1", "fig7", "fig8"):
            args = build_parser().parse_args([command, "--seeds", "5"])
            assert args.seeds == 5

    def test_cache_command(self):
        args = build_parser().parse_args(["cache", "--clear"])
        assert args.command == "cache" and args.clear


class TestExecution:
    def test_fig2_prints_table(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "SI-TM" in out and "TX3" in out

    def test_fig6_prints_table(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "SSI-TM" in out

    def test_table1_prints_parameters(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CPU Cores" in out and "32" in out

    def test_overheads_prints_percentages(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "12.5" in out and "50.0" in out

    def test_fig7_restricted_run(self, capsys):
        code = main(["fig7", "--profile", "test", "--seeds", "1",
                     "--workloads", "rbtree"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rbtree" in out and "SI-TM/2PL" in out


class TestFaultsCommand:
    def test_parser_accepts_faults_flags(self):
        args = build_parser().parse_args(
            ["faults", "--list", "--no-escalation", "--seeds", "2"])
        assert args.command == "faults"
        assert args.list and args.no_escalation and args.seeds == 2

    def test_parser_accepts_timeout(self):
        assert build_parser().parse_args(
            ["fig7", "--timeout", "30"]).timeout == 30.0
        with pytest.raises(SystemExit):
            main(["fig7", "--timeout", "-1"])

    def test_faults_list_names_every_site(self, capsys):
        from repro.faults import FAULT_SITES
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for site in FAULT_SITES:
            assert site["site"] in out

    def test_fuzz_faults_flag_parsed(self):
        args = build_parser().parse_args(["fuzz", "--faults"])
        assert args.faults

    def test_quarantined_spec_renders_failed_cell_and_exits_1(
            self, monkeypatch, capsys):
        # a worker crash mid-grid must yield a completed grid with an
        # explicit FAILED cell and a non-zero exit, never a traceback
        from repro.harness.cli import Executor as CliExecutor
        from repro.harness.executor import RunFailure
        real_run = CliExecutor.run

        def sabotaged(self, specs):
            results = real_run(self, specs)
            victim = next(iter(results))
            failure = RunFailure(
                spec=str(victim), spec_hash="0" * 24, kind="crash",
                message="worker died (SIGKILL)", attempts=2)
            self.failures.append(failure)
            results[victim] = failure
            return results

        monkeypatch.setattr(CliExecutor, "run", sabotaged)
        code = main(["fig7", "--profile", "test", "--seeds", "1",
                     "--workloads", "rbtree", "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "[failures] 1 spec(s) quarantined" in out
        assert "worker died (SIGKILL)" in out


class TestExecutorIntegration:
    def test_fig7_cached_rerun_identical(self, tmp_path, capsys):
        argv = ["fig7", "--profile", "test", "--seeds", "1",
                "--workloads", "rbtree", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache-misses=9" in first  # 3 thread counts x 3 systems
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "hit-rate=100%" in second
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("[executor]")]
        assert strip(first) == strip(second)

    def test_no_cache_flag_respected(self, tmp_path, capsys):
        argv = ["fig7", "--profile", "test", "--seeds", "1",
                "--workloads", "rbtree", "--no-cache",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert not list(tmp_path.glob("*.json"))

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        run = ["fig7", "--profile", "test", "--seeds", "1",
               "--workloads", "rbtree", "--cache-dir", str(tmp_path)]
        assert main(run) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "9" in out
        assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "9 entries removed" in out
        assert not list(tmp_path.glob("*.json"))


class TestExportFlags:
    def test_fig1_csv_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "fig1.csv"
        json_path = tmp_path / "fig1.json"
        code = main(["fig1", "--profile", "test", "--threads", "2",
                     "--seeds", "1", "--csv", str(csv_path),
                     "--json", str(json_path)])
        assert code == 0
        assert "workload" in csv_path.read_text()
        import json as json_module

        rows = json_module.loads(json_path.read_text())
        assert any(r["workload"] == "list" for r in rows)

    def test_fig8_chart_flag(self, capsys):
        code = main(["fig8", "--profile", "test", "--seeds", "1",
                     "--workloads", "rbtree", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "|" in out  # the chart's y-axis


class TestBackendAliases:
    def test_systems_accepts_aliases_per_item(self):
        args = build_parser().parse_args(
            ["fig7", "--systems", "sitm", "2pl", "SSI"])
        assert args.systems == ["SI-TM", "2PL", "SSI-TM"]

    def test_systems_rejects_all_and_unknown(self, capsys):
        for bad in ("all", "nosuch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig7", "--systems", bad])
            assert "error" in capsys.readouterr().err

    def test_backend_alias_reaches_every_consumer(self):
        for command in ("trace", "metrics", "profile", "fuzz"):
            args = build_parser().parse_args(
                [command, "--backend", "logtm"])
            assert args.backend == "LogTM"


class TestConfigErrorReporting:
    """Unknown names exit non-zero with one stderr line, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["metrics", "--experiment", "nosuch"],
        ["trace", "--experiment", "nosuch"],
        ["profile", "--experiment", "nosuch"],
        ["metrics", "--experiment", "rbtree", "--workloads", "nosuchwl"],
    ])
    def test_unknown_names_one_line_error(self, argv, capsys):
        assert main(argv + ["--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err and "Traceback" not in err


class TestProfileCommand:
    def test_profile_prints_attribution_and_heatmap(self, tmp_path,
                                                    capsys):
        stacks = tmp_path / "stacks.txt"
        assert main(["profile", "--experiment", "rbtree", "--backend",
                     "sitm", "--profile", "test", "--threads", "4",
                     "--stacks", str(stacks), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Cycle attribution" in out
        assert "Conflict heatmap" in out
        assert "total charged cycles" in out
        lines = stacks.read_text().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)
