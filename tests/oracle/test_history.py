"""History recording: completeness, uids per attempt, serialization."""

from repro.oracle.fuzz import run_schedule
from repro.sim.history import (ABORT, BEGIN, COMMIT, READ, WRITE,
                               History)
from repro.skew.serialization import is_conflict_serializable

CONTENDED = {
    "name": "contended",
    "initial": [5, 0],
    "threads": [
        [{"label": "t0.0", "ops": [["a", 0, 1]]},
         {"label": "t0.1", "ops": [["r", 0], ["r", 1]]}],
        [{"label": "t1.0", "ops": [["a", 0, 2]]},
         {"label": "t1.1", "ops": [["a", 1, 4]]}],
    ],
}


def recorded(system="SI-TM"):
    history, final = run_schedule(CONTENDED, system)
    return history, final


class TestRecording:
    def test_all_event_kinds_present(self):
        history, _ = recorded("2PL")  # 2PL aborts under this contention
        kinds = {ev.kind for ev in history.events}
        assert {BEGIN, READ, WRITE, COMMIT}.issubset(kinds)
        assert ABORT in kinds, "contended 2PL run should record aborts"

    def test_every_program_transaction_commits_once(self):
        history, _ = recorded()
        committed = [rec.label for rec in history.committed()]
        assert sorted(committed) == ["t0.0", "t0.1", "t1.0", "t1.1"]

    def test_read_values_and_write_values_captured(self):
        history, final = recorded()
        adders = [rec for rec in history.committed()
                  if rec.label in ("t0.0", "t1.0")]
        for rec in adders:
            (addr_r, seen, _), = rec.reads
            (addr_w, stored, _), = rec.writes
            assert addr_r == addr_w
            assert stored == seen + {"t0.0": 1, "t1.0": 2}[rec.label]
        assert final[0] == 5 + 1 + 2

    def test_retry_gets_fresh_uid(self):
        history, _ = recorded("2PL")
        aborted = history.aborts()
        assert aborted
        for rec in aborted:
            retries = [other for other in history.committed()
                       if other.label == rec.label]
            assert retries and retries[0].uid != rec.uid

    def test_commit_timestamps_recorded_for_si_writers(self):
        history, _ = recorded("SI-TM")
        for rec in history.committed():
            assert rec.start_ts is not None
            if rec.writes:
                assert rec.commit_ts is not None
                assert rec.commit_ts > rec.start_ts

    def test_initial_image_captured(self):
        history, _ = recorded()
        assert sorted(history.initial.values()) == [0, 5]


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        history, _ = recorded("SSI-TM")
        clone = History.loads(history.dumps())
        assert clone.to_dict() == history.to_dict()
        assert clone.system == "SSI-TM"
        assert clone.isolation == "serializable-snapshot"
        assert clone.abort_causes == history.abort_causes

    def test_events_keep_global_order(self):
        history, _ = recorded()
        assert [ev.index for ev in history.events] == \
            list(range(len(history.events)))


class TestSkewView:
    def test_history_feeds_skew_machinery(self):
        history, _ = recorded("2PL")
        assert len(history.committed()) == 4
        assert is_conflict_serializable(history, read_mode="latest")

    def test_sites_and_addr_sets_follow_read_write_triples(self):
        history, _ = recorded()
        for rec in history.transactions.values():
            assert [a for a, _ in history.sites(rec.reads)] == \
                [a for a, _, _ in rec.reads]
            assert [a for a, _ in history.sites(rec.writes)] == \
                [a for a, _, _ in rec.writes]
            assert rec.read_addrs == {a for a, _, _ in rec.reads}
            assert rec.write_addrs == {a for a, _, _ in rec.writes}
