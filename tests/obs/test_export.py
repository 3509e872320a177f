"""Exporter tests: JSONL span logs, schema validation, Chrome traces."""

import json

from repro.harness.runner import run_once
from repro.obs import (SPAN_SCHEMA_VERSION, Span, chrome_trace,
                       chrome_trace_events, load_spans_jsonl,
                       spans_to_jsonl, validate_span_log,
                       write_chrome_trace)


def _spans():
    return [
        Span(uid=0, thread_id=0, label="insert", begin_cycle=10,
             end_cycle=50, outcome="commit", reads=2, writes=1,
             start_ts=1, commit_ts=4),
        Span(uid=1, thread_id=1, label="insert", begin_cycle=12,
             end_cycle=40, outcome="abort", cause="write-write",
             retries=1, reads=1, writes=1, start_ts=2),
    ]


class TestJsonl:
    def test_round_trip(self):
        spans = _spans()
        assert load_spans_jsonl(spans_to_jsonl(spans)) == spans

    def test_extra_stamped_on_every_line(self):
        text = spans_to_jsonl(_spans(), extra={"system": "SI-TM"})
        rows = [json.loads(line) for line in text.splitlines()]
        assert all(row["system"] == "SI-TM" for row in rows)

    def test_extra_ignored_on_load(self):
        text = spans_to_jsonl(_spans(), extra={"system": "SI-TM"})
        assert load_spans_jsonl(text) == _spans()

    def test_empty(self):
        assert spans_to_jsonl([]) == ""
        assert load_spans_jsonl("") == []


class TestValidateSpanLog:
    def _line(self, **overrides):
        row = {"schema_version": SPAN_SCHEMA_VERSION, "uid": 0,
               "thread": 0, "label": "t", "begin_cycle": 10,
               "end_cycle": 20, "outcome": "commit"}
        row.update(overrides)
        return json.dumps({k: v for k, v in row.items()
                           if v is not ...})

    def test_current_export_is_valid(self):
        spans = _spans()
        spans.append(Span(uid=2, thread_id=0, label="t", begin_cycle=60,
                          end_cycle=90, outcome="abort",
                          cause="write-write", killer_tid=1, killer_uid=1,
                          killer_label="insert", killer_ts=2))
        assert validate_span_log(spans_to_jsonl(spans)) == []

    def test_a_run_s_span_log_validates(self):
        """A real telemetry run's spans make a valid JSONL log, and an
        abort among them names its killer."""
        result = run_once("rbtree", "SI-TM", 4, 1, profile="test",
                          telemetry=True)
        spans = result.spans
        assert validate_span_log(spans_to_jsonl(spans)) == []
        assert any(span.has_killer for span in spans
                   if span.outcome == "abort"), "no killer attributed"

    def test_version_1_logs_without_schema_version_still_validate(self):
        # the pre-provenance shape: no schema_version, no killer keys
        legacy = json.dumps({"uid": 0, "thread": 1, "label": "x",
                             "begin_cycle": 5, "end_cycle": 9,
                             "outcome": "abort", "cause": "read-write",
                             "retries": 0, "reads": 1, "writes": 0,
                             "start_ts": 1, "commit_ts": None,
                             "conflict_line": 3})
        assert validate_span_log(legacy + "\n") == []

    def test_extra_keys_tolerated(self):
        text = spans_to_jsonl(_spans(), extra={"system": "SI-TM",
                                               "schedule": "repro-1"})
        assert validate_span_log(text) == []

    def test_blank_lines_skipped(self):
        assert validate_span_log("\n\n" + self._line() + "\n\n") == []

    def test_missing_required_key(self):
        (problem,) = validate_span_log(self._line(uid=...))
        assert "missing 'uid'" in problem

    def test_wrong_type_flagged(self):
        (problem,) = validate_span_log(self._line(begin_cycle="10"))
        assert "'begin_cycle'" in problem and "int" in problem

    def test_bool_is_not_an_int(self):
        (problem,) = validate_span_log(self._line(uid=True))
        assert "'uid'" in problem

    def test_unknown_outcome(self):
        (problem,) = validate_span_log(self._line(outcome="exploded"))
        assert "unknown outcome" in problem

    def test_unsupported_schema_version(self):
        (problem,) = validate_span_log(
            self._line(schema_version=SPAN_SCHEMA_VERSION + 1))
        assert "unsupported schema_version" in problem

    def test_killer_fields_only_on_aborts(self):
        (problem,) = validate_span_log(
            self._line(outcome="commit", killer_uid=3, killer_tid=1))
        assert "killer fields on a non-abort span" in problem
        assert validate_span_log(
            self._line(outcome="abort", cause="write-write",
                       killer_uid=3, killer_tid=1)) == []

    def test_non_json_line_located(self):
        text = self._line() + "\nnot json at all\n"
        (problem,) = validate_span_log(text)
        assert problem.startswith("line 2: not JSON")

    def test_non_object_line(self):
        (problem,) = validate_span_log("[1, 2]\n")
        assert "not an object" in problem

    def test_problems_accumulate_across_lines(self):
        text = self._line(uid=...) + "\n" + self._line(outcome="bogus")
        problems = validate_span_log(text)
        assert len(problems) == 2


class TestChromeTrace:
    def test_events_have_required_fields(self):
        for event in chrome_trace_events(_spans(), pid=3, process_name="x"):
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["pid"] == 3

    def test_metadata_tracks(self):
        events = chrome_trace_events(_spans(), process_name="run0")
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}
        thread_tracks = [e for e in meta if e["name"] == "thread_name"]
        assert {e["tid"] for e in thread_tracks} == {0, 1}

    def test_slices_encode_outcome(self):
        events = chrome_trace_events(_spans())
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        committed, aborted = slices
        assert committed["cat"] == "commit"
        assert committed["dur"] == 40
        assert aborted["cat"] == "abort"
        assert "write-write" in aborted["name"]
        assert aborted["args"]["retries"] == 1

    def test_document_one_pid_per_run(self):
        doc = chrome_trace([("run0", _spans()), ("run1", _spans())])
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}
        assert doc["displayTimeUnit"] == "ms"

    def test_write_is_deterministic(self, tmp_path):
        doc = chrome_trace([("run0", _spans())])
        a = write_chrome_trace(tmp_path / "a.json", doc)
        b = write_chrome_trace(tmp_path / "b" / "b.json", doc)
        assert a.read_text() == b.read_text()
        assert json.loads(a.read_text())["traceEvents"]
