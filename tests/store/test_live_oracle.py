"""Unit tests for the live SI monitor over hand-built session rows.

The server integration tests feed the monitor real traffic; these
tests pin its semantics row by row — what it flags, what it tolerates,
what it refuses to ingest, and how watermark folding bounds retention
without losing violations.
"""

import json

import pytest

from repro.common.errors import StoreError
from repro.oracle.live import (LiveHistoryMonitor, STORE_ABORT_CAUSES,
                               check_rows)

_UID = [0]


def row(ops, outcome="commit", start_ts=None, commit_ts=None, cause=None,
        shard=0, uid=None, label=None):
    """A minimal session row: ``ops`` is [(kind, key, value), ...]."""
    if uid is None:
        _UID[0] += 1
        uid = _UID[0]
    meta = {}
    if start_ts is not None:
        meta["start_ts"] = start_ts
    if commit_ts is not None:
        meta["commit_ts"] = commit_ts
    return {
        "uid": uid, "thread": uid, "label": label or f"t{uid}",
        "outcome": outcome, "cause": cause,
        "store": {
            "shards": {str(shard): meta},
            "ops": [[kind, shard, key, value]
                    for kind, key, value in ops],
        },
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

    def test_check_every_triggers_on_ingest(self):
        monitor = LiveHistoryMonitor(shards=1, check_every=2)
        assert monitor.feed_row(row([("w", "k", "a")], start_ts=1,
                                    commit_ts=2)) == []
        fresh = monitor.feed_row(row([("w", "k", "b")], start_ts=1,
                                     commit_ts=3))
        assert any(v.rule == "first-committer-wins" for v in fresh)


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
        monitor.note_watermark(0, 100)
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
        monitor.note_watermark(0, 50)
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
        monitor.note_watermark(0, 5)
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
        monitor.note_watermark(0, 5)
        assert monitor.check() == []
        monitor.note_watermark(0, 50)
        assert monitor.check() == []
        assert monitor.retained() == 0


    def test_interned_values_are_forgotten_with_their_records(self):
        """A long run of overwrites keeps a handful of values, and an
        evicted value that comes back never aliases a live one."""
        monitor = LiveHistoryMonitor(shards=2, check_every=16)
        for step in range(400):
            shard = step % 2
            monitor.feed_row(row([("r", "k", step - 2 if step > 1 else None),
                                  ("w", "k", step)], shard=shard,
                                 start_ts=step + 1, commit_ts=step + 2))
            monitor.note_watermark(shard, step + 2)
        assert monitor.check() == []
        assert monitor.retained() == 0
        # one live value per shard image; 400 ids were handed out
        assert len(monitor._value_ids) == 2
        assert monitor._last_value_id == 400
        # value 0 was evicted long ago: written again it gets a new id,
        # distinct from the images' — a reader claiming it is still
        # wrong, one reading the image is still right
        monitor.feed_row(row([("w", "other", 0)], start_ts=500,
                             commit_ts=501))
        assert monitor._value_ids["0"] == 401
        monitor.feed_row(row([("r", "k", 398)], start_ts=502))
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
