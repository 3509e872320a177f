"""Flight recorder: bounded rings, atomic persistence, crash capture.

The contract under test: every way a telemetry cell can die —
in-process :class:`SimulationError` (retry overrun, watchdog), a
SIGKILLed pool worker, a timeout — leaves a valid
``flight-<spec-digest>.json`` behind, and the executor attaches its
path to the quarantined cell's :class:`RunFailure`; a clean finish
leaves nothing.
"""

import dataclasses
import json

import pytest

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.faults import FaultPlan
from repro.harness.executor import Executor, RunFailure
from repro.harness.spec import ExperimentSpec
from repro.obs.flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    flight_dir,
    flight_path,
    load_flight,
    validate_flight,
)


def _window_row(index, commits=5, aborts=1):
    return {"kind": "window", "window": index, "commits": commits,
            "aborts": aborts}


class TestRecorderRings:
    def test_rings_are_bounded_but_totals_are_not(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.json", window_ring=4,
                                  span_ring=3)
        for index in range(10):
            recorder.note_window(_window_row(index))
        for index in range(8):
            recorder.note_span({"thread": 0, "outcome": "commit",
                                "end_cycle": index})
        assert len(recorder.windows) == 4
        assert len(recorder.spans) == 3
        assert recorder.totals["windows"] == 10
        assert recorder.totals["spans"] == 8
        assert recorder.totals["commits"] == 50
        assert recorder.totals["aborts"] == 10
        # the ring keeps the *most recent* windows
        assert [w["window"] for w in recorder.windows] == [6, 7, 8, 9]

    def test_rejects_nonpositive_rings(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "f.json", window_ring=0)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "f.json", persist_every=0)

    def test_persist_cadence(self, tmp_path):
        path = tmp_path / "f.json"
        recorder = FlightRecorder(path, persist_every=3)
        recorder.note_window(_window_row(0))
        recorder.note_window(_window_row(1))
        assert not path.exists()
        recorder.note_window(_window_row(2))
        assert path.exists()
        assert load_flight(path)["totals"]["windows"] == 3

    def test_start_writes_immediately(self, tmp_path):
        """A worker can be SIGKILLed before any window closes; the
        start snapshot must already name the spec."""
        path = tmp_path / "f.json"
        recorder = FlightRecorder(path, context="cell-under-test")
        recorder.start()
        document = load_flight(path)
        assert validate_flight(document) == []
        assert document["status"] == "running"
        assert document["context"] == "cell-under-test"

    def test_dump_round_trip_validates(self, tmp_path):
        path = tmp_path / "f.json"
        recorder = FlightRecorder(path, context="cell", window_ring=8)
        recorder.start()
        for index in range(20):
            recorder.note_window(_window_row(index))
        recorder.note_alert({"kind": "alert", "rule": "AbortSpike",
                             "window": 19, "detail": "x", "value": 0.9})
        recorder.dump(reason="transaction 'x' exceeded 40 retries")
        document = load_flight(path)
        assert validate_flight(document) == []
        assert document["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert document["status"] == "crashed"
        assert "retries" in document["reason"]
        assert document["totals"]["windows"] == 20
        assert len(document["windows"]) == 8
        assert document["alerts"][0]["rule"] == "AbortSpike"

    def test_artifact_is_the_snapshot_encoded(self, tmp_path):
        """Window rows are encoded once, as they are ringed; the text a
        persist writes is still exactly the snapshot's JSON."""
        path = tmp_path / "f.json"
        recorder = FlightRecorder(path, context="cell", window_ring=4,
                                  span_ring=3, persist_every=3)
        recorder.start()
        for index in range(11):
            recorder.note_window(dict(_window_row(index),
                                      causes={"z": 1, "a": 2},
                                      span_cycles=None))
            recorder.note_span({"thread": index % 2, "outcome": "abort",
                                "cause": "ww", "end_cycle": index})
        recorder.note_alert({"kind": "alert", "rule": "AbortSpike",
                             "window": 10, "detail": "é", "value": 0.5})
        recorder.persist()
        assert path.read_text(encoding="utf-8") == json.dumps(
            recorder.snapshot(), sort_keys=True)
        recorder.dump(reason="watchdog: no progress")
        assert path.read_text(encoding="utf-8") == json.dumps(
            recorder.snapshot(status="crashed",
                              reason="watchdog: no progress"),
            sort_keys=True)
        assert [row["window"] for row in load_flight(path)["windows"]] \
            == [7, 8, 9, 10]

    def test_dump_is_idempotent(self, tmp_path):
        path = tmp_path / "f.json"
        recorder = FlightRecorder(path)
        recorder.dump(reason="first")
        recorder.dump(reason="second")
        assert load_flight(path)["reason"] == "first"

    def test_discard_removes_and_tolerates_missing(self, tmp_path):
        path = tmp_path / "f.json"
        recorder = FlightRecorder(path)
        recorder.start()
        recorder.discard()
        assert not path.exists()
        recorder.discard()  # no artifact: still fine

    def test_no_torn_tmp_files_left_behind(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "f.json")
        recorder.start()
        recorder.persist()
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


class TestValidateFlight:
    def test_rejects_malformed_documents(self):
        assert validate_flight([]) != []
        assert "bad status" in " ".join(validate_flight(
            {"schema_version": 1, "status": "zombie", "totals": {},
             "windows": [], "alerts": [], "recent_spans": []}))
        assert any("reason" in p for p in validate_flight(
            {"schema_version": 1, "status": "crashed", "totals": {},
             "windows": [], "alerts": [], "recent_spans": []}))
        assert any("totals.windows" in p for p in validate_flight(
            {"schema_version": 1, "status": "running", "reason": None,
             "context": None, "totals": {"windows": 1},
             "windows": [{}, {}], "alerts": [], "recent_spans": []}))

    def test_flight_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SITM_FLIGHT_DIR", str(tmp_path / "fl"))
        assert flight_dir() == tmp_path / "fl"
        assert flight_path("abc") == tmp_path / "fl" / "flight-abc.json"


def _retry_capped_config(limit=40):
    config = SimConfig()
    return config.replace(
        tm=dataclasses.replace(config.tm, max_retries=limit))


#: a telemetry cell that dies in-process of retry overrun: every
#: commit attempt is fault-aborted until the retry cap gives up
DOOMED = ExperimentSpec("array", "SI-TM", 2, 1, "test", telemetry=True,
                        config=_retry_capped_config(),
                        faults=FaultPlan(abort_rate=1.0, abort_burst=64))


class TestRunIntegration:
    def test_clean_run_leaves_no_artifact(self):
        spec = ExperimentSpec("rbtree", "SI-TM", 2, 1, "test",
                              telemetry=True)
        spec.run()
        assert not flight_path(spec.spec_hash()).exists()

    def test_simulation_error_dumps_the_artifact(self):
        with pytest.raises(SimulationError):
            DOOMED.run()
        document = load_flight(flight_path(DOOMED.spec_hash()))
        assert validate_flight(document) == []
        assert document["status"] == "crashed"
        assert "retries" in document["reason"]
        assert document["context"] == str(DOOMED)
        # the run attempted work before dying: spans were ringed
        assert document["totals"]["spans"] > 0

    def test_executor_attaches_flight_to_inline_failure(self):
        results = Executor(jobs=1, cache=False).run([DOOMED])
        failure = results[DOOMED]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "error"
        assert failure.flight is not None
        assert validate_flight(load_flight(failure.flight)) == []

    def test_sigkilled_worker_leaves_a_flight_artifact(self):
        """The SIGKILL case: the worker never unwinds Python, so only
        the recorder's periodic persists (here the start snapshot) can
        leave evidence — and the RunFailure must point at it."""
        crash = ExperimentSpec("array", "SI-TM", 2, 1, "test",
                               telemetry=True,
                               faults=FaultPlan(crash_at_begin=3))
        clean = ExperimentSpec("list", "2PL", 2, 1, "test")
        executor = Executor(jobs=2, cache=False)
        results = executor.run([clean, crash])
        failure = results[crash]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"
        assert failure.flight is not None
        document = load_flight(failure.flight)
        assert validate_flight(document) == []
        assert document["status"] == "running"  # SIGKILL never unwound
        assert document["context"] == str(crash)
        assert not getattr(results[clean], "failed", False)

    def test_failure_without_artifact_has_no_flight(self):
        """A non-telemetry cell dies with no recorder: flight is None."""
        crash = ExperimentSpec("array", "SI-TM", 2, 1, "test",
                               faults=FaultPlan(crash_at_begin=3))
        results = Executor(jobs=2, cache=False).run([crash])
        failure = results[crash]
        assert isinstance(failure, RunFailure)
        assert failure.flight is None

    def test_crash_spec_never_runs_inline(self):
        """Process-level faults go to a sacrificial worker even at
        ``jobs=1``: the harness process must survive the SIGKILL."""
        crash = ExperimentSpec("array", "SI-TM", 2, 1, "test",
                               faults=FaultPlan(crash_at_begin=3))
        results = Executor(jobs=1, cache=False).run([crash])
        failure = results[crash]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"

    def test_run_failure_round_trips_with_flight(self):
        failure = RunFailure(spec="x", spec_hash="0" * 24, kind="crash",
                             message="worker died", attempts=2,
                             flight="results/flight/flight-0.json")
        assert RunFailure.from_dict(failure.to_dict()) == failure
