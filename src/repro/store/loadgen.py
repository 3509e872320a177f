"""Closed-loop Zipfian load generation against the store.

:class:`StoreClient` is the canonical wire client — framing, the
``READ``/``COMMIT``/``ABORT`` verbs (a begin rides on the transaction's
first ``READ`` or ``COMMIT``, a write on the next one), and the retry
discipline the server's structured errors prescribe (honor
``retry_after_ms``, begin again after ``ABORTED``/``OVERLOADED``/
``TIMEOUT``).  Both the bench
(:func:`run_load`) and the chaos campaign (:mod:`repro.store.chaos`)
drive the server through it, so the client loop the tests exercise is
the one real callers would copy.  It is a
:class:`~repro.store.protocol.FrameReceiver` with one request in
flight: a request writes the frame and awaits a future that
``buffer_updated`` resolves with the response, so a round trip wakes
the calling task once and nothing else.

:class:`ZipfKeys` draws keys from a Zipf(``theta``) popularity ranking
— the standard KV-store skew knob (theta 0 = uniform; 0.99 ≈ YCSB) —
via a precomputed CDF and binary search, seeded per worker so runs
replay deterministically.

:func:`run_load` is a closed loop: each of ``sessions`` workers keeps
exactly one logical transaction in flight, retrying it until it commits
or its attempt budget is spent, then moves to the next.  It returns
counts and rates (deterministic under a pinned seed) beside the wall
clock and latency percentiles (which measure the host): the
transaction, and every ``READ`` and ``COMMIT`` round trip inside one
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

__all__ = ["StoreClient", "ZipfKeys", "run_load"]

#: what :func:`run_load` times: the logical transaction, and each READ
#: and COMMIT round trip inside one (a write makes none of its own)
LATENCIES = ("txn", "read", "commit")


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


class StoreClient(protocol.FrameReceiver):
    """One wire connection to the store: a request, then its response.

    A connection carries one request at a time: a request made while
    another is in flight raises ``RuntimeError`` and sends nothing (the
    server answers in order, so a second frame's response would reach
    the first caller).  Concurrent callers open a client each.
    """

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._frames = protocol.FrameParser()
        #: resolved by the response to the request in flight
        self._response: Optional["asyncio.Future"] = None
        #: fields of a begin no frame has carried yet (None: none)
        self._begin: Optional[Dict[str, object]] = None
        #: ``[key, value]`` writes made since the last READ or COMMIT
        self._writes: List[list] = []

    @classmethod
    async def connect(cls, port: int,
                      host: str = "127.0.0.1") -> "StoreClient":
        """Open a connection to a running store server."""
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port)
        return client

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()

    def buffer_updated(self, nbytes: int) -> None:
        frames = self._frames
        frames.buffer += frames.inbox[:nbytes]
        try:
            response = frames.next_frame()
        except ProtocolError as exc:
            self._transport.close()
            self._settle(exc)
            return
        if response is not None:
            waiter, self._response = self._response, None
            if waiter is not None and not waiter.done():
                waiter.set_result(response)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # what a stream read meeting EOF failed the pending request with
        self._settle(exc or asyncio.IncompleteReadError(b"", None))

    def _settle(self, failure: BaseException) -> None:
        """Fail the request in flight."""
        waiter, self._response = self._response, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(failure)

    def _send(self, frame: Dict[str, object],
              carry: bool = False) -> "asyncio.Future":
        """Write ``frame`` — with the unsent begin and writes, if
        ``carry`` — and return the future its response resolves."""
        if self._response is not None:
            raise RuntimeError(
                "StoreClient already has a request in flight; a "
                "connection carries one request at a time")
        if self._transport.is_closing():
            raise ConnectionResetError("Connection lost")
        if carry:
            if self._begin is not None:
                frame["begin"], self._begin = self._begin, None
            if self._writes:
                frame["writes"], self._writes = self._writes, []
        self._response = future = self._loop.create_future()
        self._transport.write(protocol.encode_frame(frame))
        return future

    async def request(self, **fields) -> dict:
        """Send one request frame and await its response frame."""
        return await self._send(fields)

    async def begin(self, deadline_ms: Optional[int] = None,
                    label: Optional[str] = None) -> dict:
        """Open a transaction; it sends nothing.  The next :meth:`read`
        or :meth:`commit` carries the begin, and that frame's outcome is
        the begin's.  A second call before then replaces it."""
        self._writes = []  # unsent: they died with their transaction
        fields: Dict[str, object] = {}
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        if label is not None:
            fields["label"] = label
        self._begin = fields
        return protocol.ok_response()

    async def read(self, key: str) -> dict:
        """``READ key`` inside the open transaction, with unsent writes."""
        return await self._send({"op": "READ", "key": key}, True)

    async def write(self, key: str, value: object) -> dict:
        """Buffer ``key = value``; it sends nothing.  The next :meth:`read`
        or :meth:`commit` carries it, and its response is the write's."""
        self._writes.append([key, value])
        return protocol.ok_response()

    async def commit(self) -> dict:
        """``COMMIT`` the open transaction with its unsent writes."""
        return await self._send({"op": "COMMIT"}, True)

    async def abort(self) -> dict:
        """``ABORT`` the open transaction, or, if it was never sent, drop it."""
        self._writes = []
        if self._begin is not None:
            self._begin = None
            return protocol.ok_response()
        return await self._send({"op": "ABORT"})

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


def _count_failure(stats: dict, reply: dict) -> None:
    """Count a failed attempt: admission's ``OVERLOADED`` has no
    ``cause`` and opened nothing, so it is ``shed``, not an abort."""
    cause = reply.get("cause")
    if cause is None and reply.get("error") == "OVERLOADED":
        stats["shed"] += 1
        return
    cause = cause or reply.get("error", "unknown").lower()
    stats["aborts"][cause] = stats["aborts"].get(cause, 0) + 1


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
                await client.begin(label=f"load-{worker}-{txn_index}")
                failed = None
                for _ in range(ops_per_txn):
                    key = zipf.pick(rng)
                    if rng.random() < write_fraction:
                        reply = await client.write(
                            key, {"w": worker, "t": txn_index,
                                  "r": rng.randrange(1 << 30)})
                    else:
                        sent = time.monotonic()
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
                _count_failure(stats, failed)
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
    transaction from its first ``begin()`` to the ``COMMIT`` ack, retries
    and backoff included; ``read_*``/``commit_*`` time every round trip
    of that operation, whatever it answered.
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
