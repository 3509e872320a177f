"""Regenerate the golden store-session corpus from a live server.

Run from the repository root::

    PYTHONPATH=src python tests/corpus/store/make_corpus.py

Each JSONL file is the server's own ``record_path`` output (span-schema-
compatible session rows), so the corpus pins the real wire-to-monitor
format, not a hand-written imitation:

* ``clean_sessions.jsonl`` — a seeded Zipfian run plus a choreographed
  **write-skew** pair (A reads x/writes y, B reads y/writes x, both
  commit): legal under SI, so the checker must stay quiet;
* ``fcw_abort.jsonl`` — a same-key race where first-committer-wins
  aborts the second writer (a clean history containing a legal
  ``write-write`` abort);
* ``broken_no_fcw.jsonl`` — the same race with validation disabled:
  both commit, and the replay test asserts the checker flags
  ``first-committer-wins``;
* ``g1c_pair.jsonl`` — the one file no server wrote: two committed
  transactions that each read the other's write (uid 1 ``[1,3]`` reads
  y and writes x, uid 2 ``[2,4]`` reads x and writes y — Adya's G1c),
  laid out in the server's row format.  The live monitor has no cycle
  rule; the replay test asserts the pair is caught as ``snapshot-read``
  on both transactions;
* ``fractured_read.jsonl`` — the ``per-shard-pin`` broken server
  (:func:`repro.store.chaos.pin_per_shard`): T reads a key on shard 0,
  U commits it and a key on shard 1, then T reads shard 1 at a later
  per-shard pin and sees U's write there, while its row carries one
  ``start_ts``.  The replay test asserts it is caught as
  ``snapshot-read``.

All runs use 2 shards and fixed seeds.
"""

import asyncio
import json
import pathlib

from repro.obs.export import SPAN_SCHEMA_VERSION
from repro.store.chaos import fractured_read, pin_per_shard
from repro.store.loadgen import StoreClient, run_load
from repro.store.server import StoreServer
from repro.store.session import StoreConfig

HERE = pathlib.Path(__file__).parent
SHARDS = 2


async def _race(port: int, prefix: str) -> None:
    """Two clients racing a commit on the same key."""
    a = await StoreClient.connect(port)
    b = await StoreClient.connect(port)
    try:
        await a.begin(label=f"{prefix}-a")
        await b.begin(label=f"{prefix}-b")
        await a.read("contested")
        await b.read("contested")
        await a.write("contested", "from-a")
        await a.commit()
        await b.write("contested", "from-b")
        await b.commit()
    finally:
        a.close()
        b.close()


async def _write_skew(port: int) -> None:
    """A legal-under-SI write skew: disjoint write sets, crossed reads."""
    a = await StoreClient.connect(port)
    b = await StoreClient.connect(port)
    try:
        setup = await StoreClient.connect(port)
        await setup.begin(label="skew-setup")
        await setup.write("skew-x", 1)
        await setup.write("skew-y", 1)
        await setup.commit()
        setup.close()
        await a.begin(label="skew-a")
        await b.begin(label="skew-b")
        await a.read("skew-x")
        await b.read("skew-y")
        await a.write("skew-y", 0)
        await b.write("skew-x", 0)
        await a.commit()
        await b.commit()
    finally:
        a.close()
        b.close()


def _g1c_pair(name: str) -> None:
    """Two commits that each observed the other's write (hand-built)."""
    def row(uid, start_ts, commit_ts, read_key, read_value, write_key):
        return {
            "uid": uid, "thread": uid, "label": f"g1c-{uid}",
            "begin_cycle": uid, "end_cycle": uid + 2,
            "outcome": "commit", "cause": None, "retries": 0,
            "reads": 1, "writes": 1,
            "start_ts": start_ts, "commit_ts": commit_ts,
            "schema_version": SPAN_SCHEMA_VERSION,
            "store": {"ops": [["r", 0, read_key, read_value],
                              ["w", 0, write_key, f"from-{uid}"]]},
        }

    rows = [row(1, 1, 3, "g1c-y", "from-2", "g1c-x"),
            row(2, 2, 4, "g1c-x", "from-1", "g1c-y")]
    (HERE / name).write_text("".join(
        json.dumps(r, sort_keys=True) + "\n" for r in rows),
        encoding="utf-8")
    print(f"wrote {name}")


async def _make(name: str, scenario, validate_fcw: bool = True,
                break_server=None) -> None:
    config = StoreConfig(shards=SHARDS, seed=42,
                         validate_fcw=validate_fcw)
    server = StoreServer(config, record_path=HERE / name)
    if break_server is not None:
        break_server(server)
    port = await server.start()
    try:
        await scenario(port)
    finally:
        await server.stop()
    print(f"wrote {name}")


async def main() -> None:
    async def clean(port: int) -> None:
        await run_load(port, sessions=3, txns_per_session=8, keys=16,
                       seed=42)
        await _write_skew(port)

    await _make("clean_sessions.jsonl", clean)
    await _make("fcw_abort.jsonl", lambda port: _race(port, "fcw"))
    await _make("broken_no_fcw.jsonl",
                lambda port: _race(port, "broken"), validate_fcw=False)
    _g1c_pair("g1c_pair.jsonl")
    await _make("fractured_read.jsonl",
                lambda port: fractured_read(port, SHARDS),
                break_server=pin_per_shard)


if __name__ == "__main__":
    asyncio.run(main())
