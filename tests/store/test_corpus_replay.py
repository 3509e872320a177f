"""Golden-corpus replay: recorded sessions re-check deterministically.

The JSONL files under ``tests/corpus/store/`` are real server
recordings (see ``make_corpus.py`` there for regeneration).  They pin
the wire-to-monitor row format: every row must stay span-schema valid,
clean recordings must replay quietly, the deliberately-broken
recording must keep tripping the first-committer-wins check, the
hand-built G1c pair (the live monitor has no cycle rule) must keep
surfacing as two snapshot-read violations, and the per-shard-pin
recording's fractured read as one.
"""

import json
import pathlib

import pytest

from repro.obs.export import validate_span_log
from repro.oracle.live import check_rows

CORPUS = pathlib.Path(__file__).parent.parent / "corpus" / "store"
SHARDS = 2  # every corpus run used 2 shards (make_corpus.py)

FILES = ("clean_sessions.jsonl", "fcw_abort.jsonl",
         "broken_no_fcw.jsonl", "g1c_pair.jsonl", "fractured_read.jsonl")


def load(name: str):
    text = (CORPUS / name).read_text(encoding="utf-8")
    return text, [json.loads(line) for line in text.splitlines() if line]


class TestCorpusShape:
    @pytest.mark.parametrize("name", FILES)
    def test_rows_are_span_schema_valid(self, name):
        text, rows = load(name)
        assert rows, f"{name} is empty"
        assert validate_span_log(text) == []

    @pytest.mark.parametrize("name", FILES)
    def test_rows_carry_the_store_section(self, name):
        _, rows = load(name)
        for row in rows:
            assert row["outcome"] in ("commit", "abort")
            store = row["store"]
            assert set(store) == {"ops"}
            for op in store["ops"]:
                kind, shard, key, _ = op
                assert kind in ("r", "w")
                assert 0 <= shard < SHARDS
                assert isinstance(key, str) and key

    def test_clean_corpus_contains_the_write_skew_pair(self):
        _, rows = load("clean_sessions.jsonl")
        labels = {row["label"] for row in rows}
        assert {"skew-a", "skew-b"} <= labels

    def test_fcw_corpus_records_the_loser(self):
        _, rows = load("fcw_abort.jsonl")
        outcomes = {row["label"]: row["outcome"] for row in rows}
        assert outcomes == {"fcw-a": "commit", "fcw-b": "abort"}
        losers = [row for row in rows if row["outcome"] == "abort"]
        assert losers[0]["cause"] == "write-write"


class TestReplay:
    def test_clean_sessions_replay_quietly(self):
        _, rows = load("clean_sessions.jsonl")
        assert check_rows(rows, shards=SHARDS) == []

    def test_legal_fcw_abort_replays_quietly(self):
        _, rows = load("fcw_abort.jsonl")
        assert check_rows(rows, shards=SHARDS) == []

    def test_broken_corpus_trips_first_committer_wins(self):
        _, rows = load("broken_no_fcw.jsonl")
        violations = check_rows(rows, shards=SHARDS)
        assert any(v.rule == "first-committer-wins" for v in violations)

    @pytest.mark.parametrize("order", (1, -1))
    def test_g1c_pair_is_caught_by_replay_on_both_uids(self, order):
        """Each read the other's write: no timestamp order admits it."""
        _, rows = load("g1c_pair.jsonl")
        violations = check_rows(rows[::order], shards=SHARDS)
        assert {(v.rule, v.txns) for v in violations} == {
            ("snapshot-read", (1,)), ("snapshot-read", (2,))}

    def test_fractured_read_is_caught_as_snapshot_read(self):
        """T read shard 0 before U's commit and shard 1 after it, under
        one start_ts: its shard-1 read is not what that snapshot holds."""
        _, rows = load("fractured_read.jsonl")
        reader = next(r for r in rows if r["label"] == "fracture-t")
        assert {op[1] for op in reader["store"]["ops"]} == {0, 1}
        violations = check_rows(rows, shards=SHARDS)
        assert [(v.rule, v.txns) for v in violations] == [
            ("snapshot-read", (reader["uid"],))]

    @pytest.mark.parametrize("name", FILES)
    def test_replay_is_deterministic(self, name):
        _, rows = load(name)
        first = [v.to_dict() for v in check_rows(rows, shards=SHARDS)]
        second = [v.to_dict() for v in check_rows(rows, shards=SHARDS)]
        assert first == second
