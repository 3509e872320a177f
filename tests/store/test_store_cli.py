"""``sitm-store`` CLI tests: subcommands, artifacts, exit-code contract.

Exit codes are the ops-facing API: 2 for configuration errors (one
line on stderr), 1 for detected violations or a failed campaign, 0 for
success.  CI's ``store-smoke`` job relies on exactly these.
"""

import json
import pathlib

from repro.store.cli import build_parser, main

CORPUS = pathlib.Path(__file__).parent.parent / "corpus" / "store"


class TestExitCodes:
    def test_config_error_exits_2_with_one_stderr_line(self, capsys):
        assert main(["chaos", "--shards", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("sitm-store: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_bad_chaos_plan_exits_2(self, capsys):
        assert main(["chaos", "--disconnect-rate", "1.5"]) == 2
        assert "sitm-store: " in capsys.readouterr().err

    def test_unreadable_check_path_exits_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCheck:
    def test_clean_corpus_exits_0(self, capsys):
        assert main(["check", str(CORPUS / "clean_sessions.jsonl"),
                     "--shards", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []
        assert report["rows"] > 0

    def test_legal_fcw_abort_exits_0(self):
        assert main(["check", str(CORPUS / "fcw_abort.jsonl"),
                     "--shards", "2"]) == 0

    def test_broken_corpus_exits_1(self, capsys):
        assert main(["check", str(CORPUS / "broken_no_fcw.jsonl"),
                     "--shards", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(v["rule"] == "first-committer-wins"
                   for v in report["violations"])

    def test_fractured_read_corpus_exits_1(self, capsys):
        assert main(["check", str(CORPUS / "fractured_read.jsonl"),
                     "--shards", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [v["rule"] for v in report["violations"]] == [
            "snapshot-read"]


class TestChaos:
    def test_quiet_campaign_exits_0_and_writes_report(self, tmp_path,
                                                      capsys):
        report_path = tmp_path / "report.json"
        code = main(["chaos", "--shards", "2", "--seed", "11",
                     "--sessions", "2", "--txns", "4", "--keys", "8",
                     "--report", str(report_path)])
        assert code == 0
        on_disk = json.loads(report_path.read_text(encoding="utf-8"))
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed
        assert on_disk["ok"] is True

    def test_no_fcw_self_test_exits_0_when_caught(self, tmp_path):
        code = main(["chaos", "--shards", "2", "--seed", "12",
                     "--sessions", "2", "--txns", "2", "--keys", "8",
                     "--broken", "no-fcw",
                     "--dump-dir", str(tmp_path)])
        assert code == 0
        assert list(tmp_path.glob("store-violation-*.jsonl"))


class TestBench:
    def test_bench_prints_report_and_writes_scrape(self, tmp_path,
                                                   capsys):
        scrape = tmp_path / "metrics.prom"
        code = main(["bench", "--shards", "2", "--seed", "13",
                     "--sessions", "2", "--txns", "4", "--keys", "8",
                     "--scrape", str(scrape)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["violations"] == []
        # latency is printed beside txn/s
        assert 0 < stats["txn_p50_ms"] <= stats["txn_p99_ms"]
        assert stats["throughput_txn_s"] > 0
        text = scrape.read_text(encoding="utf-8")
        assert "sitm_store_txn_commits_total" in text


class TestParser:
    def test_parser_declares_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("serve", "bench", "chaos", "check"):
            assert command in text

    def test_broken_choices_are_closed(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--broken", "no-clocks"])
        assert "invalid choice" in capsys.readouterr().err
