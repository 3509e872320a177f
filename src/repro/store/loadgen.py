"""Closed-loop Zipfian load generation and the store bench artifact.

:class:`StoreClient` is the canonical wire client — framing, the
``BEGIN``/``READ``/``WRITE``/``COMMIT``/``ABORT`` verbs, and the retry
discipline the server's structured errors prescribe (honor
``retry_after_ms``, re-begin after ``ABORTED``/``OVERLOADED``/
``TIMEOUT``).  Both the bench (:func:`run_load`) and the chaos campaign
(:mod:`repro.store.chaos`) drive the server through it, so the client
loop the tests exercise is the one real callers would copy.  It is an
``asyncio.Protocol`` with one request in flight: ``request`` writes the
frame and awaits a future that ``data_received`` resolves with the
response, so a round trip wakes the calling task once and nothing else.

:class:`ZipfKeys` draws keys from a Zipf(``theta``) popularity ranking
— the standard KV-store skew knob (theta 0 = uniform; 0.99 ≈ YCSB) —
via a precomputed CDF and binary search, seeded per worker so runs
replay deterministically.

:func:`run_load` is a closed loop: each of ``sessions`` workers keeps
exactly one logical transaction in flight, retrying it until it commits
or its attempt budget is spent, then moves to the next.  The resulting
stats map onto the repo's BENCH artifact schema via
:func:`bench_artifact` (deterministic section: counts and rates under a
pinned seed; advisory section: wall clock and latency percentiles), so
``sitm-store bench`` artifacts validate against
:func:`repro.perf.bench.validate_artifact`.  Beside the transaction,
every ``READ``, ``WRITE`` and ``COMMIT`` round trip is timed
(``read_p50_ms`` ... ``commit_p99_ms``).
"""

from __future__ import annotations

import asyncio
import math
import time
from bisect import bisect_left
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, ProtocolError
from repro.common.rng import SplitRandom
from repro.store import protocol

__all__ = ["StoreClient", "ZipfKeys", "run_load", "bench_artifact"]

#: what :func:`run_load` times: the logical transaction, and each
#: round trip of the three operations inside one
LATENCIES = ("txn", "read", "write", "commit")


class ZipfKeys:
    """Seed-stable Zipfian key popularity over ``n`` keys."""

    def __init__(self, n: int, theta: float = 0.8, prefix: str = "key-"):
        if n < 1:
            raise ConfigError("ZipfKeys needs at least one key")
        if theta < 0:
            raise ConfigError("zipf theta must be >= 0")
        self.n = n
        self.theta = theta
        self.keys = [f"{prefix}{i:04d}" for i in range(n)]
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(1, n + 1):
            total += 1.0 / (rank ** theta)
            self._cdf.append(total)
        self._total = total

    def pick(self, rng: SplitRandom) -> str:
        """Draw one key; rank-1 keys are hottest."""
        point = rng.random() * self._total
        return self.keys[bisect_left(self._cdf, point)]


class StoreClient(asyncio.Protocol):
    """One wire connection to the store: a request, then its response."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._frames = protocol.FrameParser()
        #: resolved by the response to the request in flight
        self._response: Optional["asyncio.Future"] = None

    @classmethod
    async def connect(cls, port: int,
                      host: str = "127.0.0.1") -> "StoreClient":
        """Open a connection to a running store server."""
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port)
        return client

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        try:
            response = self._frames.next_frame()
        except ProtocolError as exc:
            self._transport.close()
            self._settle(exc)
        else:
            if response is not None:
                self._settle(response)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # what a stream read meeting EOF failed the pending request with
        self._settle(exc or asyncio.IncompleteReadError(b"", None))

    def _settle(self, outcome: object) -> None:
        """Hand the request in flight its response, or its failure."""
        waiter, self._response = self._response, None
        if waiter is None or waiter.done():
            return  # nothing in flight, or its caller gave up
        if isinstance(outcome, BaseException):
            waiter.set_exception(outcome)
        else:
            waiter.set_result(outcome)

    async def request(self, **fields) -> dict:
        """Send one request frame and await its response frame."""
        if self._transport.is_closing():
            raise ConnectionResetError("Connection lost")
        self._response = asyncio.get_running_loop().create_future()
        self._transport.write(protocol.encode_frame(fields))
        return await self._response

    async def begin(self, deadline_ms: Optional[int] = None,
                    label: Optional[str] = None) -> dict:
        """``BEGIN``; optional deadline override and monitor label."""
        fields: Dict[str, object] = {"op": "BEGIN"}
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        if label is not None:
            fields["label"] = label
        return await self.request(**fields)

    async def read(self, key: str) -> dict:
        """``READ key`` inside the open transaction."""
        return await self.request(op="READ", key=key)

    async def write(self, key: str, value: object) -> dict:
        """``WRITE key value`` (buffered until commit)."""
        return await self.request(op="WRITE", key=key, value=value)

    async def commit(self) -> dict:
        """``COMMIT`` the open transaction."""
        return await self.request(op="COMMIT")

    async def abort(self) -> dict:
        """``ABORT`` the open transaction."""
        return await self.request(op="ABORT")

    async def ping(self) -> dict:
        """Liveness probe; also returns shard generations."""
        return await self.request(op="PING")

    def close(self) -> None:
        """Drop the connection (the server GCs the session)."""
        self._transport.close()


async def _backoff(response: dict, cap_s: float = 0.1) -> None:
    """Honor the server's ``retry_after_ms`` hint (capped)."""
    hint = response.get("retry_after_ms")
    if isinstance(hint, (int, float)) and hint > 0:
        await asyncio.sleep(min(hint / 1000.0, cap_s))
    else:
        await asyncio.sleep(0)


async def _run_session(port: int, host: str, worker: int, txns: int,
                       zipf: ZipfKeys, write_fraction: float,
                       ops_per_txn: int, attempts_per_txn: int,
                       seed: int, stats: dict) -> None:
    """One closed-loop worker: ``txns`` logical transactions, serially."""
    rng = SplitRandom(seed, ("loadgen", worker))
    latency = stats["latency_s"]
    client = await StoreClient.connect(port, host)
    try:
        for txn_index in range(txns):
            started = time.monotonic()
            for attempt in range(attempts_per_txn):
                stats["attempts"] += 1
                response = await client.begin(
                    label=f"load-{worker}-{txn_index}")
                if not response.get("ok"):
                    stats["shed"] += 1
                    await _backoff(response)
                    continue
                failed = None
                for _ in range(ops_per_txn):
                    key = zipf.pick(rng)
                    sent = time.monotonic()
                    if rng.random() < write_fraction:
                        reply = await client.write(
                            key, {"w": worker, "t": txn_index,
                                  "r": rng.randrange(1 << 30)})
                        latency["write"].append(time.monotonic() - sent)
                    else:
                        reply = await client.read(key)
                        latency["read"].append(time.monotonic() - sent)
                    if not reply.get("ok"):
                        failed = reply
                        break
                if failed is None:
                    sent = time.monotonic()
                    failed = await client.commit()
                    now = time.monotonic()
                    latency["commit"].append(now - sent)
                    if failed.get("ok"):
                        stats["commits"] += 1
                        latency["txn"].append(now - started)
                        break
                cause = failed.get("cause") or \
                    failed.get("error", "unknown").lower()
                stats["aborts"][cause] = stats["aborts"].get(cause, 0) + 1
                await _backoff(failed)
            else:
                stats["exhausted"] += 1
    finally:
        client.close()


def _percentile_ms(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (seconds), in ms."""
    if not samples:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(samples)))
    return 1e3 * sorted(samples)[rank - 1]


async def run_load(port: int, host: str = "127.0.0.1", sessions: int = 4,
                   txns_per_session: int = 50, keys: int = 64,
                   zipf_theta: float = 0.8, write_fraction: float = 0.5,
                   ops_per_txn: int = 4, attempts_per_txn: int = 8,
                   seed: int = 0) -> dict:
    """Drive a running server with a closed Zipfian loop; return stats.

    ``txn_p50_ms``/``txn_p99_ms`` time each committed logical
    transaction from its first ``BEGIN`` to the ``COMMIT`` ack, retries
    and backoff included; ``read_*``/``write_*``/``commit_*`` time every
    round trip of that operation, whatever it answered.
    """
    zipf = ZipfKeys(keys, zipf_theta)
    stats = {"attempts": 0, "commits": 0, "shed": 0, "exhausted": 0,
             "aborts": {},
             "latency_s": {name: [] for name in LATENCIES}}
    started = time.monotonic()
    await asyncio.gather(*[
        _run_session(port, host, worker, txns_per_session, zipf,
                     write_fraction, ops_per_txn, attempts_per_txn,
                     seed, stats)
        for worker in range(sessions)])
    wall = time.monotonic() - started
    total_aborts = sum(stats["aborts"].values())
    latency = stats.pop("latency_s")
    for name, samples in latency.items():
        stats[f"{name}_p50_ms"] = _percentile_ms(samples, 50)
        stats[f"{name}_p99_ms"] = _percentile_ms(samples, 99)
    stats.update({
        "sessions": sessions,
        "txns_per_session": txns_per_session,
        "wall_clock_s": wall,
        "total_aborts": total_aborts,
        "throughput_txn_s": stats["commits"] / wall if wall else 0.0,
        "abort_rate": (total_aborts / stats["attempts"]
                       if stats["attempts"] else 0.0),
    })
    return stats


def bench_artifact(stats: dict, label: str = "store",
                   seed: int = 0) -> dict:
    """Map load stats onto the ``sitm-bench`` v1 artifact schema.

    One cell (``store/kv/t<sessions>``); the counts and rates are
    deterministic under a pinned seed and single-host serial timing is
    advisory, matching the schema's trust split.  ``makespan_cycles``
    carries elapsed microseconds — the store has no simulated clock, and
    ``validate_artifact`` requires the field of every cell.
    """
    from repro.harness.executor import code_fingerprint
    from repro.perf.bench import SCHEMA, SCHEMA_VERSION
    cell = {
        "throughput": stats["throughput_txn_s"],
        "throughput_rel_stddev": 0.0,
        "abort_rate": stats["abort_rate"],
        "abort_rate_stddev": 0.0,
        "commits": stats["commits"],
        "aborts": stats["total_aborts"],
        "makespan_cycles": int(stats["wall_clock_s"] * 1_000_000),
        "phase_shares": {},
    }
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "suite": "store-loadgen",
        "profile": f"zipf-{stats.get('sessions', 0)}x"
                   f"{stats.get('txns_per_session', 0)}",
        "seeds": 1,
        "code_fingerprint": code_fingerprint(),
        "deterministic": {
            f"store/kv/t{stats.get('sessions', 0)}": cell,
        },
        "advisory": {
            "wall_clock_s": round(stats["wall_clock_s"], 3),
            "cache_hit_rate": 0.0,
            **{f"{name}_{pct}_ms": round(stats[f"{name}_{pct}_ms"], 3)
               for name in LATENCIES for pct in ("p50", "p99")},
        },
    }
