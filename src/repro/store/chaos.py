"""Seeded chaos campaigns against a live in-process store server.

The simulator provokes its rare paths with :class:`~repro.faults.FaultPlan`;
the live store gets the same treatment one layer up, at the service
boundary.  A :class:`ChaosPlan` is the same idiom — a frozen, seeded,
JSON-round-trippable recipe, every site off by default — but its sites
are *service* faults (see :data:`CHAOS_SITES`): abrupt client
disconnects mid-transaction, slow-loris peers that trickle bytes,
shard stalls, forced shard crash/restart, and admission floods.

:func:`run_chaos_campaign` stands up a real :class:`StoreServer` on a
loopback socket with the live oracle monitor attached, drives it with
seeded Zipfian workers through the same :class:`StoreClient` real
callers use, fires the plan's faults at transaction-count triggers, and
then **proves recovery**: a post-campaign probe transaction must commit
on every shard (including any crashed one), every session must be GC'd,
the active-transaction table must drain to empty, and the GC watermark
must have advanced past its start on every shard that committed.
The report is JSON-safe and the chaos test asserts on it directly.

``broken=`` selects a monitor self-test (:data:`BROKEN_MODES`): a
deliberately broken server runs a choreography whose history is
*genuinely* non-SI, and the campaign passes only if the live monitor
flags it with the expected rule — proving the oracle wire-up would
catch a real isolation regression, not just that quiet runs stay quiet.
``no-fcw`` disables first-committer-wins validation and races two
writers on one key; ``per-shard-pin`` makes each shard read a
transaction at its own first-touch frontier, while the row still
reports the one snapshot, and lets a commit land between a
transaction's reads of two shards (a fractured read).
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, ProtocolError
from repro.common.rng import SplitRandom
from repro.oracle.live import LiveHistoryMonitor
from repro.store.loadgen import (StoreClient, ZipfKeys, _backoff,
                                 _count_failure)
from repro.store.server import StoreServer
from repro.store.session import StoreConfig, shard_of
from repro.store.shard import OK

__all__ = ["BROKEN_MODES", "CHAOS_SITES", "ChaosPlan",
           "run_chaos_campaign"]

#: monitor self-tests: broken mode -> the rule that must catch it
BROKEN_MODES = {"no-fcw": "first-committer-wins",
                "per-shard-pin": "snapshot-read"}


#: machine-readable registry of service-level injection sites
#: (rendered into the chaos-site table in ``docs/robustness.md``)
CHAOS_SITES = [
    {"site": "client-disconnect",
     "layer": "store/server.py:_Connection.connection_lost",
     "fields": "disconnect_rate",
     "effect": "drops the connection mid-transaction; the session GC "
               "must abort the open transaction and unregister its "
               "snapshot"},
    {"site": "slow-loris",
     "layer": "store/server.py:_Connection._check_deadline "
              "(per-connection read deadline)",
     "fields": "slow_loris_sessions, slow_loris_delay_ms",
     "effect": "peers trickle a partial frame; the server must "
               "disconnect them instead of holding a connection "
               "forever"},
    {"site": "shard-stall",
     "layer": "store/server.py:stall_shard/_stalled",
     "fields": "stall_shard, stall_ms, stall_after_txns",
     "effect": "reads and prepares on the shard wait until the stall "
               "is over, in arrival order; deadlines must convert the "
               "wait into structured TIMEOUTs, not hangs"},
    {"site": "shard-crash",
     "layer": "store/shard.py:crash_now (store/server.py:crash_shard)",
     "fields": "crash_shard, crash_after_txns",
     "effect": "forced crash/restart: volatile state is lost — open "
               "transactions that touched the shard abort with "
               "shard-crashed, and so do requests waiting on its "
               "stall — committed state survives with no rollback, "
               "the shard serves again"},
    {"site": "admission-flood",
     "layer": "store/server.py:_do_begin",
     "fields": "flood_sessions",
     "effect": "a burst of simultaneous transaction opens (a READ "
               "carrying each begin) past max_inflight; the excess must "
               "shed with structured OVERLOADED, never queue silently"},
]


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic recipe of service faults for one campaign.

    All sites default to *off*; a default-constructed plan only runs
    the background Zipfian load.  Frozen and JSON-round-trippable with
    a stable key set, like :class:`~repro.faults.FaultPlan`.
    """

    #: root seed for the workers' key/op/disconnect streams
    seed: int = 0

    # -- background load ------------------------------------------------
    #: concurrent closed-loop worker sessions
    sessions: int = 6
    #: logical transactions per worker
    txns_per_session: int = 25
    #: key-space size and Zipf skew of the working set
    keys: int = 48
    zipf_theta: float = 0.8
    #: fraction of operations that are writes
    write_fraction: float = 0.5
    #: operations per transaction
    ops_per_txn: int = 4

    # -- client-disconnect site -----------------------------------------
    #: probability a worker drops its connection mid-transaction
    disconnect_rate: float = 0.0

    # -- slow-loris site ------------------------------------------------
    #: peers that send a partial frame and stall (0 = site disabled)
    slow_loris_sessions: int = 0
    #: how long each loris stalls before probing, in milliseconds
    slow_loris_delay_ms: int = 500

    # -- shard-stall site -----------------------------------------------
    #: shard to stall (-1 = site disabled)
    stall_shard: int = -1
    #: injected sleep, in milliseconds
    stall_ms: int = 0
    #: completed transactions before the stall fires
    stall_after_txns: int = 0

    # -- shard-crash site -----------------------------------------------
    #: shard to force-crash (-1 = site disabled)
    crash_shard: int = -1
    #: completed transactions before the crash fires
    crash_after_txns: int = 0

    # -- admission-flood site -------------------------------------------
    #: simultaneous extra transaction opens at admission (0 = off)
    flood_sessions: int = 0

    def __post_init__(self) -> None:
        if self.sessions < 1 or self.txns_per_session < 1:
            raise ConfigError("chaos load must have >= 1 session/txn")
        if self.keys < 1 or self.ops_per_txn < 1:
            raise ConfigError("keys and ops_per_txn must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.disconnect_rate <= 1.0:
            raise ConfigError("disconnect_rate must be in [0, 1]")
        if self.zipf_theta < 0:
            raise ConfigError("zipf_theta must be >= 0")
        if self.slow_loris_sessions < 0 or self.slow_loris_delay_ms < 1:
            raise ConfigError("slow-loris fields out of range")
        if self.stall_shard < -1 or self.crash_shard < -1:
            raise ConfigError("shard indices must be >= -1")
        if self.stall_ms < 0 or self.stall_after_txns < 0 \
                or self.crash_after_txns < 0:
            raise ConfigError("stall/crash triggers must be >= 0")
        if self.flood_sessions < 0:
            raise ConfigError("flood_sessions must be >= 0")

    def active(self) -> bool:
        """True when at least one fault site is enabled."""
        return bool(self.disconnect_rate or self.slow_loris_sessions
                    or self.stall_shard >= 0 or self.crash_shard >= 0
                    or self.flood_sessions)

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (stable key set)."""
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        """Inverse of :meth:`to_dict` (tolerates missing keys)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


# ----------------------------------------------------------------------
# chaos actors


async def _chaos_worker(port: int, worker: int, plan: ChaosPlan,
                        zipf: ZipfKeys, stats: dict) -> None:
    """A closed-loop worker that sometimes yanks its own connection."""
    rng = SplitRandom(plan.seed, ("chaos", worker))
    client = await StoreClient.connect(port)
    try:
        for txn_index in range(plan.txns_per_session):
            for _attempt in range(8):
                await client.begin(label=f"chaos-{worker}-{txn_index}")
                if (plan.disconnect_rate
                        and rng.random() < plan.disconnect_rate):
                    # pin an open transaction with a READ, then yank the
                    # connection: the session GC must abort and unregister it
                    await client.read(zipf.pick(rng))
                    client.close()
                    stats["disconnects_injected"] += 1
                    await asyncio.sleep(0)
                    client = await StoreClient.connect(port)
                    break
                failed = None
                for _ in range(plan.ops_per_txn):
                    key = zipf.pick(rng)
                    if rng.random() < plan.write_fraction:
                        reply = await client.write(
                            key, {"w": worker, "t": txn_index})
                    else:
                        reply = await client.read(key)
                    if not reply.get("ok"):
                        failed = reply
                        break
                if failed is None:
                    failed = await client.commit()
                    if failed.get("ok"):
                        stats["commits"] += 1
                        break
                _count_failure(stats, failed)
                await _backoff(failed)
    finally:
        client.close()


async def _slow_loris(port: int, delay_ms: int, stats: dict) -> None:
    """Trickle a partial frame; count whether the server drops us."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(struct.pack(">I", 64)[:2])  # half a length header
        await writer.drain()
        await asyncio.sleep(delay_ms / 1000.0)
        writer.write(b"\x00")
        await writer.drain()
        probe = await asyncio.wait_for(reader.read(1), 5.0)
        if probe == b"":  # EOF: the server disconnected us
            stats["loris_dropped"] += 1
    except (ConnectionError, asyncio.TimeoutError):
        stats["loris_dropped"] += 1
    finally:
        writer.close()


async def _flood(port: int, peers: int, stats: dict) -> None:
    """Simultaneous first READs; count structured OVERLOADED sheds."""
    async def one() -> None:
        client = await StoreClient.connect(port)
        try:
            await client.begin(label="flood")
            response = await client.read("flood")
            if response.get("ok"):
                await client.abort()
            elif response.get("error") == "OVERLOADED":
                stats["flood_shed"] += 1
        finally:
            client.close()

    await asyncio.gather(*[one() for _ in range(peers)])


async def _trigger_at(monitor: LiveHistoryMonitor, after_txns: int,
                      action, timeout_s: float = 20.0) -> None:
    """Fire ``action()`` once ``after_txns`` transactions completed."""
    waited = 0.0
    while monitor.rows_seen < after_txns and waited < timeout_s:
        await asyncio.sleep(0.005)
        waited += 0.005
    action()


def _key_per_shard(prefix: str, shards: int) -> Dict[int, str]:
    """One key on each shard: shard id -> key."""
    chosen: Dict[int, str] = {}
    index = 0
    while len(chosen) < shards:
        key = f"{prefix}-{index}"
        index += 1
        chosen.setdefault(shard_of(key, shards), key)
    return chosen


async def _probe(port: int, server: StoreServer) -> bool:
    """Post-campaign liveness proof: one commit per shard, read back."""
    client = await StoreClient.connect(port)
    try:
        chosen = _key_per_shard("probe", server.config.shards)
        await client.begin(label="probe", deadline_ms=5_000)
        for sid in sorted(chosen):
            await client.write(chosen[sid], {"probe": sid})
        if not (await client.commit()).get("ok"):
            return False
        await client.begin(label="probe-read", deadline_ms=5_000)
        for sid in sorted(chosen):
            reply = await client.read(chosen[sid])
            if not reply.get("ok") or reply.get("value") != {"probe": sid}:
                return False
        return (await client.commit()).get("ok", False)
    finally:
        client.close()


async def _fcw_race(port: int) -> None:
    """The no-fcw self-test choreography: a genuine lost update.

    A and B snapshot the same key, then both commit different values to
    it with overlapping lifetimes.  Under first-committer-wins the
    second commit must abort; with validation disabled both commit, and
    the live monitor must flag it.
    """
    a = await StoreClient.connect(port)
    b = await StoreClient.connect(port)
    try:
        await a.begin(label="race-a")
        await b.begin(label="race-b")
        # both pin snapshots on the key's shard before either commits
        await a.read("contested")
        await b.read("contested")
        await a.write("contested", "from-a")
        assert (await a.commit()).get("ok")
        await b.write("contested", "from-b")
        await b.commit()  # must abort under FCW; commits when broken
    finally:
        a.close()
        b.close()


def pin_per_shard(server: StoreServer) -> None:
    """The ``per-shard-pin`` break: each shard reads a transaction at
    the store clock's present when the transaction first read there,
    not at its snapshot (the rows still report the snapshot)."""
    for shard in server.shards:
        pins: Dict[int, int] = {}  # txn uid -> where it reads this shard

        def read(txn, key, shard=shard, pins=pins):
            at = pins.setdefault(txn.uid, server.clock.now)
            line = shard.keys.get(key)
            data = (None if line is None
                    else shard.mvm.snapshot_read(line, at))
            return (OK, None if data is None else data[0])

        shard._do_read = read


async def fractured_read(port: int, shards: int) -> None:
    """The per-shard-pin choreography: T reads a key on shard 0, U
    commits that key and one on shard 1, then T reads shard 1.  At one
    snapshot T sees neither of U's writes; at a later per-shard pin it
    sees the second."""
    keys = _key_per_shard("fracture", shards)
    t = await StoreClient.connect(port)
    u = await StoreClient.connect(port)
    try:
        await t.begin(label="fracture-t")
        await t.read(keys[0])
        await u.begin(label="fracture-u")
        await u.write(keys[0], "from-u")
        await u.write(keys[1], "from-u")
        assert (await u.commit()).get("ok")
        await t.read(keys[1])
        await t.commit()
    finally:
        t.close()
        u.close()


# ----------------------------------------------------------------------
# the campaign


def _label_counters(snapshot: dict, name: str) -> Dict[str, float]:
    """Pull ``name{...}`` counter samples out of a metrics snapshot."""
    out: Dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        if key == name:
            out[""] = value
        elif key.startswith(name + "{"):
            out[key[len(name) + 1:-1]] = value
    return out


async def _campaign(plan: ChaosPlan, config: StoreConfig, broken: str,
                    out_dir: Optional[object]) -> dict:
    monitor = LiveHistoryMonitor(config.shards, dump_dir=out_dir)
    server = StoreServer(config, monitor=monitor)
    if broken == "per-shard-pin":
        pin_per_shard(server)
    port = await server.start()
    initial_watermarks = [shard.watermark for shard in server.shards]
    stats = {"commits": 0, "shed": 0, "disconnects_injected": 0,
             "loris_dropped": 0, "flood_shed": 0, "aborts": {}}
    try:
        if broken == "no-fcw":
            await _fcw_race(port)
        elif broken == "per-shard-pin":
            await fractured_read(port, config.shards)
        else:
            zipf = ZipfKeys(plan.keys, plan.zipf_theta)
            tasks = [
                asyncio.ensure_future(
                    _chaos_worker(port, worker, plan, zipf, stats))
                for worker in range(plan.sessions)]
            if plan.slow_loris_sessions:
                tasks.extend(asyncio.ensure_future(
                    _slow_loris(port, plan.slow_loris_delay_ms, stats))
                    for _ in range(plan.slow_loris_sessions))
            if plan.stall_shard >= 0 and plan.stall_ms:
                tasks.append(asyncio.ensure_future(_trigger_at(
                    monitor, plan.stall_after_txns,
                    lambda: server.stall_shard(plan.stall_shard,
                                               plan.stall_ms))))
            if plan.crash_shard >= 0:
                tasks.append(asyncio.ensure_future(_trigger_at(
                    monitor, plan.crash_after_txns,
                    lambda: server.crash_shard(plan.crash_shard))))
            if plan.flood_sessions:
                tasks.append(asyncio.ensure_future(
                    _flood(port, plan.flood_sessions, stats)))
            await asyncio.gather(*tasks)
        probe_ok = await _probe(port, server)
        # let the connections observe their EOFs and GC their sessions
        waited = 0.0
        while server.sessions and waited < 2.0:
            await asyncio.sleep(0.005)
            waited += 0.005
        snapshot = server.metrics.snapshot()
        sessions_leaked = len(server.sessions)
        active_txns = len(server.open_txns)
        pinned = sum(shard.pinned_transactions()
                     for shard in server.shards)
        watermark_advanced = all(
            shard.commits == 0 or shard.watermark > initial
            for shard, initial in zip(server.shards, initial_watermarks))
        violations = [v.to_dict() for v in monitor.violations]
        if broken:
            caught = any(v["rule"] == BROKEN_MODES[broken]
                         for v in violations)
            ok = caught and probe_ok
        else:
            caught = False
            ok = (not violations and probe_ok
                  and sessions_leaked == 0 and active_txns == 0
                  and pinned == 0 and watermark_advanced)
        return {
            "plan": plan.to_dict(),
            "config": config.to_dict(),
            "broken": broken,
            "commits": stats["commits"],
            "aborts": dict(sorted(stats["aborts"].items())),
            "shed": stats["shed"],
            "flood_shed": stats["flood_shed"],
            "disconnects_injected": stats["disconnects_injected"],
            "loris_dropped": stats["loris_dropped"],
            "server_aborts": _label_counters(
                snapshot, "store_txn_aborts_total"),
            "escalations": server.escalations,
            "rows_checked": monitor.rows_seen,
            "retained_rows": monitor.retained(),
            "sessions_leaked": sessions_leaked,
            "active_txns": active_txns,
            "pinned_txns": pinned,
            "watermark_advanced": watermark_advanced,
            "generations": [s.generation for s in server.shards],
            "shard_crashes": sum(s.crashes for s in server.shards),
            # requests that waited on a stall
            "shard_stalls": int(sum(_label_counters(
                snapshot, "store_stalled_requests_total").values())),
            "violations": violations,
            "violation_dumps": [str(p) for p in monitor.dumps],
            "probe_ok": probe_ok,
            "monitor_caught": caught,
            "ok": ok,
        }
    finally:
        await server.stop()


def run_chaos_campaign(plan: ChaosPlan,
                       config: Optional[StoreConfig] = None,
                       broken: str = "",
                       out_dir: Optional[object] = None) -> dict:
    """Run one seeded chaos campaign; returns the JSON-safe report.

    ``broken`` selects a deliberately-broken server mode for monitor
    self-tests (a key of :data:`BROKEN_MODES`); the report's ``ok`` then
    means *the monitor caught the planted violation*.  ``out_dir``
    receives replayable violation dumps when the monitor fires.
    """
    if broken and broken not in BROKEN_MODES:
        raise ConfigError(f"unknown broken mode {broken!r}")
    config = config or StoreConfig()
    if broken == "per-shard-pin" and config.shards < 2:
        raise ConfigError("broken mode per-shard-pin needs >= 2 shards")
    if broken == "no-fcw":
        config = dataclasses.replace(config, validate_fcw=False)
    try:
        return asyncio.run(_campaign(plan, config, broken, out_dir))
    except ProtocolError as exc:  # pragma: no cover - defensive
        raise ConfigError(f"chaos campaign wire failure: {exc}")
