"""Checker unit tests: each violation rule on hand-built histories.

A tiny builder assembles :class:`~repro.sim.history.History` objects
event by event, keeping the event list, per-transaction records and
timestamps consistent, so each test states its scenario as a readable
interleaving and asserts exactly which rules fire.
"""

from repro.oracle.checker import Violation, check_history
from repro.sim.history import (ABORT, BEGIN, COMMIT, READ, WRITE,
                               History, HistoryEvent, TxnRecord)
from repro.skew.serialization import precedence_graph

SI_CAUSES = ("write-write", "version-overflow", "snapshot-too-old",
             "timestamp-overflow", "explicit")

A, B = 0x1000, 0x1040


class Builder:
    """Assembles a consistent History from explicit begin/op/commit calls."""

    def __init__(self, isolation, system="test", causes=SI_CAUSES,
                 initial=None):
        self.history = History(system=system, isolation=isolation,
                               abort_causes=tuple(causes),
                               initial=dict(initial or {}))
        self._uid = 0

    def _event(self, kind, uid, addr=None, value=None):
        rec = self.history.transactions[uid]
        index = len(self.history.events)
        self.history.events.append(HistoryEvent(
            index, kind, uid, rec.thread_id, rec.label, addr, value,
            site=f"site{index}"))
        return index

    def begin(self, thread, label, start_ts):
        uid = self._uid
        self._uid += 1
        self.history.transactions[uid] = TxnRecord(
            uid, thread, label, begin_index=len(self.history.events),
            start_ts=start_ts)
        self.history.events.append(HistoryEvent(
            len(self.history.events), BEGIN, uid, thread, label))
        return uid

    def read(self, uid, addr, value):
        index = self._event(READ, uid, addr, value)
        self.history.transactions[uid].reads.append((addr, value, index))

    def write(self, uid, addr, value):
        index = self._event(WRITE, uid, addr, value)
        self.history.transactions[uid].writes.append((addr, value, index))

    def commit(self, uid, commit_ts=None):
        index = self._event(COMMIT, uid)
        rec = self.history.transactions[uid]
        rec.commit_index = index
        rec.commit_ts = commit_ts

    def abort(self, uid, cause):
        self._event(ABORT, uid)
        self.history.transactions[uid].abort_cause = cause

    def check(self):
        return check_history(self.history)

    def rules(self):
        return sorted({v.rule for v in self.check()})


class TestSnapshotLevel:
    def test_clean_si_history(self):
        b = Builder("snapshot", initial={A: 7})
        t1 = b.begin(0, "t1", start_ts=1)
        b.read(t1, A, 7)
        b.write(t1, A, 8)
        b.commit(t1, commit_ts=10)
        t2 = b.begin(1, "t2", start_ts=11)
        b.read(t2, A, 8)
        b.commit(t2, commit_ts=20)
        assert b.check() == []

    def test_read_own_write_is_legal(self):
        b = Builder("snapshot", initial={A: 1})
        t1 = b.begin(0, "t1", start_ts=1)
        b.write(t1, A, 5)
        b.read(t1, A, 5)  # sees its own uncommitted write, not snapshot
        b.commit(t1, commit_ts=10)
        assert b.check() == []

    def test_stale_snapshot_read_flagged(self):
        # t2's snapshot predates t1's commit, yet t2 observes t1's write.
        b = Builder("snapshot", initial={A: 0})
        t1 = b.begin(0, "t1", start_ts=1)
        b.write(t1, A, 5)
        b.commit(t1, commit_ts=10)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t2, A, 5)
        b.commit(t2, commit_ts=20)
        assert "snapshot-read" in b.rules()

    def test_first_committer_wins_violation(self):
        b = Builder("snapshot", initial={A: 0})
        t1 = b.begin(0, "t1", start_ts=1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.write(t1, A, 5)
        b.write(t2, A, 7)
        b.commit(t1, commit_ts=10)
        b.commit(t2, commit_ts=12)  # overlapped t1, same address: must abort
        violations = b.check()
        assert any(v.rule == "first-committer-wins" for v in violations)
        fcw = next(v for v in violations
                   if v.rule == "first-committer-wins")
        assert set(fcw.txns) == {t1, t2} and fcw.addr == A

    def test_silent_store_overlap_tolerated(self):
        # Same value from both writers: the word-grain commit filter may
        # legitimately let a silent store commit past a concurrent writer.
        b = Builder("snapshot", initial={A: 0})
        t1 = b.begin(0, "t1", start_ts=1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.write(t1, A, 5)
        b.write(t2, A, 5)
        b.commit(t1, commit_ts=10)
        b.commit(t2, commit_ts=12)
        assert b.check() == []

    def test_same_value_lost_update_is_an_si_cycle(self):
        # Both read 0 and wrote 5: a lost update whose writers agree on
        # the value.  First-committer-wins tolerates them; the cycle rule
        # does not, because pair (t1, t2) keeps its ww kind beside rw:
        # t1 -ww-> t2 -rw-> t1 is a (ww ∪ wr) ; rw? cycle.
        b = Builder("snapshot", initial={A: 0})
        t1 = b.begin(0, "t1", start_ts=1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t1, A, 0)
        b.read(t2, A, 0)
        b.write(t1, A, 5)
        b.write(t2, A, 5)
        b.commit(t1, commit_ts=10)
        b.commit(t2, commit_ts=12)
        assert precedence_graph(b.history, "snapshot") == {
            t1: {t2: {"ww", "rw"}}, t2: {t1: {"rw"}}}
        (violation,) = b.check()
        assert violation.rule == "si-cycle"
        assert sorted(violation.txns) == [t1, t2]

    def test_write_skew_is_legal_under_plain_si(self):
        b = Builder("snapshot", initial={A: 1, B: 1})
        t1 = b.begin(0, "t1", start_ts=1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t1, A, 1)
        b.read(t1, B, 1)
        b.read(t2, A, 1)
        b.read(t2, B, 1)
        b.write(t1, A, 0)
        b.write(t2, B, 0)
        b.commit(t1, commit_ts=10)
        b.commit(t2, commit_ts=12)
        assert b.check() == []

    def test_missing_commit_timestamp_flagged(self):
        b = Builder("snapshot")
        t1 = b.begin(0, "t1", start_ts=1)
        b.write(t1, A, 5)
        b.commit(t1, commit_ts=None)
        assert "timestamps" in b.rules()

    def test_commit_before_start_flagged(self):
        b = Builder("snapshot")
        t1 = b.begin(0, "t1", start_ts=9)
        b.write(t1, A, 5)
        b.commit(t1, commit_ts=9)
        assert "timestamps" in b.rules()


class TestConflictSerializableLevel:
    def test_clean_serial_history(self):
        b = Builder("conflict-serializable", initial={A: 0})
        t1 = b.begin(0, "t1", start_ts=1)
        b.write(t1, A, 5)
        b.commit(t1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t2, A, 5)
        b.commit(t2)
        assert b.check() == []

    def test_stale_read_flagged(self):
        b = Builder("conflict-serializable", initial={A: 0})
        t1 = b.begin(0, "t1", start_ts=1)
        b.write(t1, A, 5)
        b.commit(t1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t2, A, 0)  # t1's commit already published 5
        b.commit(t2)
        assert "latest-read" in b.rules()

    def test_write_skew_cycle_flagged(self):
        # Legal under SI, but a CS system must never produce it.
        b = Builder("conflict-serializable", initial={A: 1, B: 1})
        t1 = b.begin(0, "t1", start_ts=1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t1, B, 1)
        b.read(t2, A, 1)
        b.write(t1, A, 0)
        b.write(t2, B, 0)
        b.commit(t1)
        b.commit(t2)
        violations = b.check()
        assert any(v.rule == "serialization-cycle" for v in violations)


class TestSerializableSnapshotLevel:
    def test_committed_pivot_flagged(self):
        # The write-skew pair: each transaction carries an inbound and an
        # outbound rw antidependency — a dangerous structure SSI must abort.
        b = Builder("serializable-snapshot", initial={A: 1, B: 1})
        t1 = b.begin(0, "t1", start_ts=1)
        t2 = b.begin(1, "t2", start_ts=2)
        b.read(t1, A, 1)
        b.read(t1, B, 1)
        b.read(t2, A, 1)
        b.read(t2, B, 1)
        b.write(t1, A, 0)
        b.write(t2, B, 0)
        b.commit(t1, commit_ts=10)
        b.commit(t2, commit_ts=12)
        rules = b.rules()
        assert "dangerous-structure" in rules
        assert "serialization-cycle" in rules

    def test_disjoint_writers_clean(self):
        b = Builder("serializable-snapshot", initial={A: 1, B: 1})
        t1 = b.begin(0, "t1", start_ts=1)
        b.write(t1, A, 2)
        b.commit(t1, commit_ts=10)
        t2 = b.begin(1, "t2", start_ts=11)
        b.read(t2, A, 2)
        b.write(t2, B, 3)
        b.commit(t2, commit_ts=20)
        assert b.check() == []


class TestSharedChecks:
    def test_undeclared_abort_cause_flagged(self):
        b = Builder("snapshot", causes=("write-write",))
        t1 = b.begin(0, "t1", start_ts=1)
        b.abort(t1, "read-write")  # SI-TM never declares read-write
        assert b.rules() == ["abort-cause"]

    def test_declared_abort_cause_clean(self):
        b = Builder("snapshot", causes=("write-write",))
        t1 = b.begin(0, "t1", start_ts=1)
        b.abort(t1, "write-write")
        assert b.check() == []


class TestViolationType:
    def test_round_trip(self):
        violation = Violation("snapshot-read", "detail", (1, 2), A)
        assert Violation.from_dict(violation.to_dict()) == violation

    def test_str_mentions_rule_addr_and_txns(self):
        text = str(Violation("rule-x", "some detail", (3,), 0x40))
        assert "[rule-x]" in text and "0x40" in text and "3" in text
