"""Unit tests for the live SI monitor over hand-built session rows.

The server integration tests feed the monitor real traffic; these
tests pin its semantics row by row — what it flags, what it tolerates,
what it refuses to ingest, and how watermark folding bounds retention
without losing violations.  The monitor checks each row once, on
arrival, against a small index; the offline checker over the *whole*
stream is its reference (:class:`TestAgainstTheOfflineChecker`), and
its cost per row must not depend on how many rows came before
(:class:`TestCostIsFlat`).
"""

import json
import sys
from statistics import median

import pytest

from repro.common.errors import StoreError
from repro.common.rng import SplitRandom
from repro.oracle.checker import check_history
from repro.oracle.live import (LiveHistoryMonitor, STORE_ABORT_CAUSES,
                               check_rows)
from repro.sim.history import (ABORT, BEGIN, COMMIT, READ, WRITE,
                               History, HistoryEvent, TxnRecord)
from repro.store.cli import main as store_cli
from tests.store.test_corpus_replay import CORPUS, load

_UID = [0]


def row(ops, outcome="commit", start_ts=None, commit_ts=None, cause=None,
        shard=0, uid=None, label=None):
    """A minimal session row: ``ops`` is [(kind, key, value), ...]."""
    if uid is None:
        _UID[0] += 1
        uid = _UID[0]
    return {
        "uid": uid, "thread": uid, "label": label or f"t{uid}",
        "outcome": outcome, "cause": cause,
        "start_ts": start_ts, "commit_ts": commit_ts,
        "store": {"ops": [[kind, shard, key, value]
                          for kind, key, value in ops]},
    }


class TestCleanHistories:
    def test_serial_writers_are_quiet(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", "a")], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("r", "k", "a"), ("w", "k", "b")],
                             start_ts=3, commit_ts=4))
        assert monitor.check() == []
        assert monitor.violations == []

    def test_read_your_own_write_is_legal(self):
        """Op order matters: w then r of the own value must replay."""
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("r", "k", None), ("w", "k", "mine"),
                              ("r", "k", "mine")],
                             start_ts=1, commit_ts=2))
        assert monitor.check() == []

    def test_write_skew_is_legal_under_si(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "x", 1), ("w", "y", 1)],
                             start_ts=1, commit_ts=2))
        monitor.feed_row(row([("r", "x", 1), ("w", "y", 0)],
                             start_ts=3, commit_ts=5))
        monitor.feed_row(row([("r", "y", 1), ("w", "x", 0)],
                             start_ts=3, commit_ts=6))
        assert monitor.check() == []

    def test_declared_abort_causes_are_quiet(self):
        monitor = LiveHistoryMonitor(shards=1)
        for cause in STORE_ABORT_CAUSES:
            monitor.feed_row(row([("w", "k", 1)], outcome="abort",
                                 start_ts=1, cause=cause))
        assert monitor.check() == []


class TestViolations:
    def test_first_committer_wins_violation(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", "a")], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("w", "k", "b")], start_ts=1, commit_ts=3))
        found = monitor.check()
        assert any(v.rule == "first-committer-wins" for v in found)

    def test_stale_snapshot_read_violation(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", "new")], start_ts=1,
                             commit_ts=2))
        # starts after the commit yet reads the never-written value
        monitor.feed_row(row([("r", "k", None)], start_ts=3, commit_ts=4))
        assert monitor.check() != []

    def test_undeclared_abort_cause_is_flagged(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", 1)], outcome="abort",
                             start_ts=1, cause="cosmic-rays"))
        assert monitor.check() != []

    def test_violations_deduplicate_across_checks(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", "a")], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("w", "k", "b")], start_ts=1, commit_ts=3))
        first = monitor.check()
        assert first != []
        assert monitor.check() == []  # same finding, reported once
        assert monitor.violations == first

    def test_violation_surfaces_on_the_row_that_completes_it(self):
        monitor = LiveHistoryMonitor(shards=1)
        assert monitor.feed_row(row([("w", "k", "a")], start_ts=1,
                                    commit_ts=2)) == []
        fresh = monitor.feed_row(row([("w", "k", "b")], start_ts=1,
                                     commit_ts=3))
        assert [v.rule for v in fresh] == ["first-committer-wins"]
        # check() is the barrier: it hands the same finding out once
        assert monitor.check() == fresh
        assert monitor.check() == []

    def test_same_value_writers_are_tolerated(self):
        """A silent store past a concurrent writer is unobservable; the
        values are equal as JSON, not as objects."""
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", {"a": 1, "b": [2]})],
                             start_ts=1, commit_ts=2))
        monitor.feed_row(row([("w", "k", {"b": [2], "a": 1})],
                             start_ts=1, commit_ts=3))
        assert monitor.check() == []

    def test_json_distinguishes_what_python_equates(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", 1)], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("r", "k", True)], start_ts=3))
        assert [v.rule for v in monitor.check()] == ["snapshot-read"]

    def test_version_published_under_a_retained_snapshot(self):
        """The arrival invariant broken: a writer that already replayed
        cleanly is replayed again when a version lands in its past."""
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", "old")], start_ts=1, commit_ts=2))
        reader = row([("r", "k", "old"), ("w", "other", 1)],
                     start_ts=10, commit_ts=11)
        assert monitor.feed_row(reader) == []
        late = monitor.feed_row(row([("w", "k", "late")], start_ts=5,
                                    commit_ts=6))
        assert [(v.rule, v.txns) for v in late] == [
            ("snapshot-read", (reader["uid"],))]


class TestIngestValidation:
    def test_row_without_store_section_rejected(self):
        monitor = LiveHistoryMonitor(shards=1)
        with pytest.raises(StoreError, match="store"):
            monitor.feed_row({"uid": 1, "outcome": "commit"})

    def test_incomplete_outcome_rejected(self):
        monitor = LiveHistoryMonitor(shards=1)
        with pytest.raises(StoreError, match="outcome"):
            monitor.feed_row(row([], outcome="open"))

    def test_null_write_rejected(self):
        monitor = LiveHistoryMonitor(shards=1)
        with pytest.raises(StoreError, match="sentinel"):
            monitor.feed_row(row([("w", "k", None)], start_ts=1,
                                 commit_ts=2))

    def test_unknown_shard_rejected(self):
        monitor = LiveHistoryMonitor(shards=1)
        with pytest.raises(StoreError, match="unknown shard"):
            monitor.feed_row(row([("w", "k", 1)], start_ts=1,
                                 commit_ts=2, shard=5))

    def test_rejected_row_leaves_the_monitor_untouched(self):
        """A row is refused whole: the good ops of a row that also
        names unknown shard 7 must not reach the index."""
        monitor = LiveHistoryMonitor(shards=2)
        monitor.feed_row(row([("w", "k", 1)], start_ts=1, commit_ts=2))
        monitor.note_watermark(2)
        monitor.feed_row(row([("w", "k", 2)], start_ts=3, commit_ts=4))

        def state():
            return (monitor.retained(), monitor.rows_seen,
                    dict(monitor._image),
                    {addr: list(entries) for addr, entries
                     in monitor._versions.items()})

        before = state()
        bad = row([("w", "k", 3)], start_ts=5, commit_ts=6)
        bad["store"]["ops"].append(["w", 7, "elsewhere", 1])
        with pytest.raises(StoreError, match="unknown shard 7"):
            monitor.feed_row(bad)
        bad = row([("w", "k", 3), ("w", "j", None)], start_ts=5,
                  commit_ts=6)
        with pytest.raises(StoreError, match="sentinel"):
            monitor.feed_row(bad)
        assert state() == before
        # and the stream goes on as if the rows had never been offered
        monitor.feed_row(row([("r", "k", 2)], start_ts=7))
        assert monitor.check() == []

    def test_an_older_rows_per_shard_timestamps_are_ignored(self):
        """Older logs repeat a row's timestamps per shard; only the
        row's own pair is read."""
        monitor = LiveHistoryMonitor(shards=1)
        old = row([("w", "k", 1)], start_ts=1, commit_ts=2)
        old["store"]["shards"] = {"0": {"start_ts": 5, "commit_ts": 3},
                                  "9": {}}
        assert monitor.feed_row(old) == []
        assert monitor.retained() == 1

    def test_monitor_needs_a_shard(self):
        with pytest.raises(StoreError):
            LiveHistoryMonitor(shards=0)


class TestWatermarkFolding:
    def test_aborts_and_read_only_commits_drop_immediately(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", 1)], outcome="abort",
                             start_ts=1, cause="explicit"))
        # the server's read-only fast path never reserves a commit_ts
        monitor.feed_row(row([("r", "k", None)], start_ts=2))
        monitor.check()
        assert monitor.retained() == 0

    def test_writers_fold_into_initial_image(self):
        monitor = LiveHistoryMonitor(shards=1)
        for step in range(10):
            monitor.feed_row(row([("w", "k", step)],
                                 start_ts=2 * step + 1,
                                 commit_ts=2 * step + 2))
        monitor.note_watermark(100)
        assert monitor.check() == []
        assert monitor.retained() == 0
        # the folded image must replay for a later reader: the newest
        # folded value, not the never-written default
        monitor.feed_row(row([("r", "k", 9)], start_ts=101,
                             commit_ts=102))
        assert monitor.check() == []

    def test_fold_preserves_newest_value_not_oldest(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", "old")], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("w", "k", "new")], start_ts=3, commit_ts=4))
        monitor.note_watermark(50)
        monitor.check()
        assert monitor.retained() == 0
        # a reader claiming to still see "old" is now a violation
        monitor.feed_row(row([("r", "k", "old")], start_ts=60,
                             commit_ts=61))
        assert monitor.check() != []

    def test_writers_above_watermark_are_retained(self):
        monitor = LiveHistoryMonitor(shards=1)
        monitor.feed_row(row([("w", "k", 1)], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("w", "k", 2)], start_ts=9, commit_ts=10))
        monitor.note_watermark(5)
        assert monitor.check() == []
        assert monitor.retained() == 1  # only the commit_ts=10 writer

    def test_fold_never_cuts_a_live_replay_window(self):
        """A writer inside a retained reader's snapshot window stays."""
        monitor = LiveHistoryMonitor(shards=1)
        # reader starts at 3, so the ts=4 writer's pre-state matters
        monitor.feed_row(row([("w", "k", "early")], start_ts=1,
                             commit_ts=2))
        monitor.feed_row(row([("w", "k", "late"), ("r", "other", None)],
                             start_ts=3, commit_ts=4))
        monitor.feed_row(row([("r", "k", "early"), ("w", "z", 1)],
                             start_ts=3, commit_ts=6))
        # watermark covers the first two writers but the commit_ts=6
        # record still replays a snapshot from ts=3
        monitor.note_watermark(5)
        assert monitor.check() == []
        monitor.note_watermark(50)
        assert monitor.check() == []
        assert monitor.retained() == 0


    def test_interned_values_are_forgotten_with_their_records(self):
        """A long run of overwrites keeps one value per address: values
        are held by the slots that refer to them and by nothing else
        (there is no interning table to sweep), and a value that was
        folded over long ago is still a wrong read when it comes back."""
        monitor = LiveHistoryMonitor(shards=1)
        for step in range(400):
            monitor.feed_row(row([("r", "k", step - 1 if step else None),
                                  ("w", "k", step)],
                                 start_ts=step + 1, commit_ts=step + 2))
            monitor.note_watermark(step + 2)
        assert monitor.check() == []
        assert monitor.retained() == 0
        assert monitor._image == {monitor._addrs["k"]: 399}
        assert monitor._versions == {}
        monitor.feed_row(row([("w", "other", 0)], start_ts=500,
                             commit_ts=501))
        monitor.feed_row(row([("r", "k", 399)], start_ts=502))
        assert monitor.check() == []
        monitor.feed_row(row([("r", "k", 0)], start_ts=503))
        assert [v.rule for v in monitor.check()] != []


class TestArtifacts:
    def test_violation_dump_is_replayable(self, tmp_path):
        monitor = LiveHistoryMonitor(shards=1, dump_dir=tmp_path)
        monitor.feed_row(row([("w", "k", "a")], start_ts=1, commit_ts=2,
                             label="winner"))
        monitor.feed_row(row([("w", "k", "b")], start_ts=1, commit_ts=3,
                             label="loser"))
        assert monitor.check() != []
        assert len(monitor.dumps) == 1
        dump = monitor.dumps[0]
        rows = [json.loads(line) for line in
                dump.read_text(encoding="utf-8").splitlines()]
        assert {r["label"] for r in rows} == {"winner", "loser"}
        # the offline replay of the dump reproduces the finding
        replayed = check_rows(rows, shards=1)
        assert any(v.rule == "first-committer-wins" for v in replayed)
        summary = json.loads(
            dump.with_suffix(".violations.json").read_text())
        assert summary["violations"]

    def test_no_dump_without_violation(self, tmp_path):
        monitor = LiveHistoryMonitor(shards=1, dump_dir=tmp_path)
        monitor.feed_row(row([("w", "k", 1)], start_ts=1, commit_ts=2))
        assert monitor.check() == []
        assert monitor.dumps == []

    def test_check_rows_runs_full_pipeline(self):
        clean = [row([("w", "k", 1)], start_ts=1, commit_ts=2)]
        assert check_rows(clean, shards=1) == []
        broken = [row([("w", "k", 1)], start_ts=1, commit_ts=2),
                  row([("w", "k", 2)], start_ts=1, commit_ts=3)]
        assert check_rows(broken, shards=1) != []

    def test_offending_row_is_dumped_even_when_it_is_never_retained(
            self, tmp_path, capsys):
        """A read-only or aborted row leaves the index at once; the
        dump must still carry it, or the artifact replays clean."""
        monitor = LiveHistoryMonitor(shards=1, dump_dir=tmp_path)
        monitor.feed_row(row([("w", "k", "old")], start_ts=1, commit_ts=2))
        monitor.feed_row(row([("w", "k", "new")], start_ts=3, commit_ts=4))
        monitor.feed_row(row([("r", "k", "old")], start_ts=5,
                             label="stale-reader"))
        monitor.feed_row(row([("w", "k", 1)], outcome="abort", start_ts=6,
                             cause="cosmic-rays", label="bad-abort"))
        assert [v.rule for v in monitor.check()] == ["snapshot-read",
                                                     "abort-cause"]
        assert monitor.retained() == 2
        for dump, label in zip(monitor.dumps,
                               ("stale-reader", "bad-abort")):
            rows = [json.loads(line) for line in
                    dump.read_text(encoding="utf-8").splitlines()]
            assert label in {r["label"] for r in rows}
            assert store_cli(["check", str(dump), "--shards", "1"]) == 1
            capsys.readouterr()


# ----------------------------------------------------------------------
# the offline checker as the reference


def reference_findings(rows):
    """``check_history`` over the whole stream as one History.

    This is the batch design the monitor replaced, kept as its
    reference: every row of the stream is laid out in arrival order as
    begin / ops in op order / commit-or-abort events at the row's
    timestamps (nothing folded, nothing forgotten), keys and values are
    interned to integers, and every snapshot check runs over the lot —
    ``si-cycle`` too, though events laid out in arrival order make every
    derived edge point forward, so that rule cannot fire on a row stream.
    """
    addrs, values = {}, {}
    history = History(system="sitm-store", isolation="snapshot",
                      abort_causes=STORE_ABORT_CAUSES)
    events = history.events
    for session_row in rows:
        committed = session_row["outcome"] == "commit"
        record = TxnRecord(
            uid=session_row["uid"], thread_id=session_row["thread"],
            label=session_row["label"], begin_index=len(events),
            start_ts=session_row.get("start_ts"),
            commit_ts=session_row.get("commit_ts"),
            abort_cause=None if committed else session_row["cause"])
        who = (record.uid, record.thread_id, record.label)
        events.append(HistoryEvent(len(events), BEGIN, *who))
        for kind, _, key, value in session_row["store"]["ops"]:
            addr = addrs.setdefault(key, len(addrs) + 1)
            vid = 0 if value is None else values.setdefault(
                json.dumps(value, sort_keys=True), len(values) + 1)
            index = len(events)
            if kind == "r":
                events.append(HistoryEvent(index, READ, *who, addr, vid))
                record.reads.append((addr, vid, index))
            else:
                events.append(HistoryEvent(index, WRITE, *who, addr, vid))
                record.writes.append((addr, vid, index))
        if committed:
            record.commit_index = len(events)
        events.append(HistoryEvent(
            len(events), COMMIT if committed else ABORT, *who))
        history.transactions[record.uid] = record
    return {(v.rule, v.txns, v.addr) for v in check_history(history)}


def live_findings(events, shards):
    """The monitor's verdict on a stream of rows and watermarks."""
    monitor = LiveHistoryMonitor(shards=shards)
    for kind, what in events:
        if kind == "row":
            monitor.feed_row(what)
        else:
            monitor.note_watermark(what)
    return {(v.rule, v.txns, v.addr) for v in monitor.violations}


class _Txn:
    def __init__(self, uid, start_ts, snapshot):
        self.uid = uid
        self.start_ts = start_ts
        #: key -> (value, commit_ts), as committed at start_ts
        self.snapshot = snapshot
        self.writes = {}
        self.ops = []


class SimulatedStore:
    """A correct SI store on one clock that can be told to misbehave once.

    Emits what the real server feeds its monitor, in the order it would:
    one session row per finished transaction, then the store's
    watermark (oldest open snapshot, else the clock's present).  The
    clock, the snapshot taken at begin, first-committer-wins validation
    and atomic publish are the server's; each ``fault`` breaks exactly
    one of them.
    """

    KEYS_PER_SHARD = 3

    def __init__(self, shards):
        self.shards = shards
        self.clock = 0
        #: key -> (value, commit_ts)
        self.state = {}
        self.aborted_values = {}
        self.open = []
        self.events = []
        self.uids = 0

    def key(self, shard, which):
        return f"s{shard}-k{which}"

    def begin(self):
        self.uids += 1
        self.clock += 1
        txn = _Txn(self.uids, self.clock, dict(self.state))
        self.open.append(txn)
        return txn

    def read(self, txn, shard, key, lie=None):
        if key in txn.writes:
            value = txn.writes[key]
        else:
            value = txn.snapshot.get(key, (None, 0))[0]
        if lie is not None:
            value = lie
        txn.ops.append(["r", shard, key, value])
        return value

    def write(self, txn, shard, key):
        value = {"by": txn.uid, "n": len(txn.ops)}
        txn.writes[key] = value
        txn.ops.append(["w", shard, key, value])

    def conflicts(self, txn):
        return any(self.state.get(key, (None, 0))[1] > txn.start_ts
                   for key in txn.writes)

    def commit(self, txn, validate=True, report=None):
        """Finish ``txn``; ``report(times)`` may falsify its timestamps."""
        if validate and self.conflicts(txn):
            return self.abort(txn, "write-write")
        commit_ts = None
        if txn.writes:
            self.clock += 1
            commit_ts = self.clock
        for key, value in txn.writes.items():
            self.state[key] = (value, commit_ts)
        self._finish(txn, "commit", None, commit_ts, report)

    def abort(self, txn, cause):
        for key, value in txn.writes.items():
            self.aborted_values.setdefault(key, value)
        self._finish(txn, "abort", cause, None, None)

    def _finish(self, txn, outcome, cause, commit_ts, report):
        self.open.remove(txn)
        times = {"start_ts": txn.start_ts, "commit_ts": commit_ts}
        if report is not None:
            report(times)
        self.events.append(("row", {
            "uid": txn.uid, "thread": txn.uid, "label": f"t{txn.uid}",
            "outcome": outcome, "cause": cause,
            "end_cycle": len(self.events), **times,
            "store": {"ops": txn.ops}}))
        self.events.append(("wm", min([t.start_ts for t in self.open]
                                      + [self.clock])))

    @property
    def rows(self):
        return [what for kind, what in self.events if kind == "row"]


FAULTS = ("none", "stale-read", "aborted-read", "lost-fcw",
          "commit-not-after-start", "missing-start", "undeclared-abort",
          "late-version")
#: the rule each fault must trip (in both checkers)
EXPECTED_RULE = {
    "stale-read": "snapshot-read", "aborted-read": "snapshot-read",
    "lost-fcw": "first-committer-wins",
    "commit-not-after-start": "timestamps",
    "missing-start": "timestamps", "undeclared-abort": "abort-cause",
    "late-version": "snapshot-read"}


def synthetic_stream(fault, seed, steps=220):
    """A seeded stream with (at most) one injected fault.

    Returns ``(store, landed)``: ``landed`` is whether the fault ended
    up in a committed (or, for the abort cause, aborted) row — a stale
    read inside a transaction that then loses first-committer-wins is
    invisible to every checker.
    """
    rng = SplitRandom(seed, ("live-differential", fault))
    shards = rng.randrange(1, 4)
    store = SimulatedStore(shards)
    arm_at = rng.randrange(steps // 4, steps // 2)
    faulty = None  # the transaction carrying the injected fault
    for step in range(steps):
        armed = faulty is None and step >= arm_at
        if len(store.open) < 4 and rng.random() < 0.3:
            store.begin()
            continue
        if not store.open:
            continue
        txn = rng.choice(store.open)
        if len(txn.ops) < 6 and rng.random() < 0.7:
            shard = rng.randrange(shards)
            key = store.key(shard, rng.randrange(store.KEYS_PER_SHARD))
            if rng.random() < 0.35:
                store.write(txn, shard, key)
                continue
            lie = None
            if armed and key not in txn.writes:
                if fault == "stale-read" and key in txn.snapshot:
                    # the value the key held before any commit
                    lie = {"by": 0, "n": "never"}
                elif fault == "aborted-read":
                    lie = store.aborted_values.get(key)
            store.read(txn, shard, key, lie=lie)
            if lie is not None:
                faulty = txn
            continue
        if armed and fault == "undeclared-abort":
            faulty = txn
            store.abort(txn, "cosmic-rays")
        elif rng.random() < 0.1:
            store.abort(txn, rng.choice(("explicit", "timeout",
                                         "disconnect")))
        elif armed and fault == "lost-fcw" and store.conflicts(txn):
            faulty = txn
            store.commit(txn, validate=False)
        elif (armed and fault == "commit-not-after-start" and txn.writes
              and not store.conflicts(txn)):
            faulty = txn

            def report(times):
                times["start_ts"] = times["commit_ts"]
            store.commit(txn, report=report)
        elif (armed and fault == "missing-start"
              and not store.conflicts(txn)):
            faulty = txn

            def report(times):
                times["start_ts"] = None
            store.commit(txn, report=report)
        else:
            store.commit(txn)
    for txn in list(store.open):
        store.commit(txn)
    if fault == "late-version":
        faulty = _publish_into_the_past(store)
    if faulty is None:
        return store, False
    outcome = {r["uid"]: r["outcome"] for r in store.rows}[faulty.uid]
    return store, outcome == ("abort" if fault == "undeclared-abort"
                              else "commit")


def _publish_into_the_past(store):
    """A commit whose timestamp lands under a retained writer's snapshot.

    On a key nothing else touches: ``first`` writes it; ``late``
    begins; ``reader`` begins after that, reads the key (correctly,
    ``first``'s value) and commits a write elsewhere while ``late`` is
    still open — so the watermark cannot pass it and it stays retained;
    then ``late`` commits the key with ``commit_ts`` reported as the
    reader's ``start_ts``.  Whole-history replay now says the reader
    should have seen ``late``'s value.
    """
    key, elsewhere = "s0-fresh", "s0-elsewhere"
    first = store.begin()
    store.write(first, 0, key)
    store.commit(first)
    late = store.begin()
    reader = store.begin()
    store.read(reader, 0, key)
    store.write(reader, 0, elsewhere)
    store.commit(reader)
    store.write(late, 0, key)

    def report(times):
        times["commit_ts"] = reader.start_ts
    store.commit(late, report=report)
    return reader


class TestAgainstTheOfflineChecker:
    """Fed row by row with a trailing watermark, the monitor reports
    exactly what ``check_history`` reports on the whole stream."""

    @pytest.mark.parametrize("name", sorted(
        path.name for path in CORPUS.glob("*.jsonl")))
    def test_corpus_file(self, name):
        _, rows = load(name)
        events = [("row", r) for r in rows]
        assert live_findings(events, 2) == reference_findings(rows)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_synthetic_streams(self, fault):
        landed = 0
        for seed in range(30):
            store, hit = synthetic_stream(fault, seed)
            live = live_findings(store.events, store.shards)
            assert live == reference_findings(store.rows), (fault, seed)
            if fault == "none":
                assert live == set(), seed
            elif hit:
                landed += 1
                assert EXPECTED_RULE[fault] in {rule for rule, _, _
                                                in live}, (fault, seed)
        assert fault == "none" or landed >= 15, landed

    def test_the_streams_exercise_folding_and_conflicts(self):
        """The differential means little if nothing ever folds, overlaps
        or aborts in the generated streams."""
        store, _ = synthetic_stream("none", 0)
        monitor = LiveHistoryMonitor(shards=store.shards)
        peak = 0
        for kind, what in store.events:
            if kind == "row":
                monitor.feed_row(what)
                peak = max(peak, monitor.retained())
            else:
                monitor.note_watermark(what)
        causes = {r["cause"] for r in store.rows}
        assert "write-write" in causes and len(store.rows) > 30
        assert peak >= 2 and monitor.retained() == 0
        assert monitor._image


# ----------------------------------------------------------------------
# cost per row


def read_mostly_stream(rows, shards=4, keys=256, ops=8,
                       write_fraction=0.1, trail=8):
    """``store_read_mostly``-shaped rows, watermark ``trail`` rows back.

    Serial transactions (row ``i`` runs ``[10 i, 10 i + 5]``), values
    shared by identity between the write and the reads that observe it,
    as the in-process server shares them.
    """
    rng = SplitRandom(7, ("live-cost",))
    current = {}
    for i in range(rows):
        row_ops, writes = [], {}
        for op in range(ops):
            which = rng.randrange(keys)
            shard, key = which % shards, f"k{which}"
            if rng.random() < write_fraction:
                writes[key] = {"n": [i, op]}
                row_ops.append(["w", shard, key, writes[key]])
            else:
                row_ops.append(["r", shard, key,
                                writes.get(key, current.get(key))])
        current.update(writes)
        yield {
            "uid": i, "thread": 0, "label": f"t{i}", "outcome": "commit",
            "cause": None, "end_cycle": i, "start_ts": 10 * i,
            "commit_ts": 10 * i + 5 if writes else None,
            "store": {"ops": row_ops}}, 10 * max(0, i - trail)


class TestCostIsFlat:
    def test_calls_per_row_do_not_grow_with_the_stream(self):
        """Function calls (Python and C) per ``feed_row`` plus its
        ``note_watermark``: a count, so the same on every host.  The
        batch design paid ≈ 100 × its median on every 64th row."""
        monitor = LiveHistoryMonitor(shards=4)
        calls = [0]

        def count(frame, event, arg):
            if event in ("call", "c_call"):
                calls[0] += 1

        costs = []
        for session_row, watermark in read_mostly_stream(3000):
            calls[0] = 0
            sys.setprofile(count)
            try:
                monitor.feed_row(session_row)
                monitor.note_watermark(watermark)
            finally:
                sys.setprofile(None)
            costs.append(calls[0])
        assert monitor.violations == []
        assert monitor.rows_seen == 3000
        assert max(costs) <= 3 * median(costs), (max(costs),
                                                 median(costs))
        assert sum(costs[-500:]) <= sum(costs[:500])
        assert monitor.retained() <= 8
