"""The store workloads: ``store_read_mostly`` and ``store_contended``.

An in-process ``StoreServer`` (4 shards, ``LiveHistoryMonitor``
attached, as ``sitm-store bench``/``serve`` run it) is driven over real
loopback sockets by closed-loop sessions: each keeps one logical
transaction in flight and retries it — same operations, honouring the
server's ``retry_after_ms`` — until it commits or 32 attempts are spent.
Server, sessions and monitor share one thread and one event loop, so
every latency below includes the others' work; that is the deployment
``sitm-store bench`` measures too.

The clock starts after connect and warm-up.  Latencies are taken by the
load generator around its own requests, tracing or not.  A window is cut
into :data:`SLICES` slices of :data:`TICKS` ticks each, with the sessions
idle and the host clock (``perfbench.hostclock``) read between ticks;
every time is host-normalised by its own tick's readings, every number
is taken per slice and reported as the median over the slices, so a slow
spell of the host during part of a run does not move it.  Only the time
the one thread computes is rescaled: a session's ``retry_after_ms``
sleeps, and the spells in which every session sleeps at once, take as
long on a slow host as on a quick one and are carried over as measured.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import time
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from perfbench import tracing
from perfbench.hostclock import HostClock
from perfbench.stats import nearest_rank, supports

SHARDS = 4
SESSIONS = 2
WARMUP_TXNS = 500
#: slices a measuring window is cut into (a percentile is read per slice)
SLICES = 8
#: ticks per slice (the host clock is read between ticks: its speed
#: changes within a second, so 0.4-second ticks at the default length)
TICKS = 6
#: attempts before a logical transaction counts as failed.  The issue
#: said 8; on ``store_contended`` about one transaction in 600 000 loses
#: eight times running, and a benchmark operation must never fail
ATTEMPTS_PER_TXN = 32
PRELOAD_BATCH = 64
#: longest honoured backoff hint, seconds (as ``repro.store.loadgen``)
BACKOFF_CAP_S = 0.1
#: errors after which the same transaction is simply tried again
RETRYABLE = ("ABORTED", "OVERLOADED", "TIMEOUT")

SHAPES = {
    "store_read_mostly": dict(ops=8, write_fraction=0.1, keys=1024,
                              theta=0.5),
    "store_contended": dict(ops=4, write_fraction=0.5, keys=16,
                            theta=0.99),
}

IMPORTS = ("repro.store.server", "repro.store.loadgen",
           "repro.oracle.live")


@dataclasses.dataclass
class StorePlan:
    """The generated inputs of one run: the only thing ``--seed`` feeds."""

    ops: int
    write_fraction: float
    zipf: object
    #: key -> preloaded value
    preload: Dict[str, dict]
    #: one independent operation stream per session (plus the warm-up's)
    streams: List[object]
    server_seed: int


def build_plan(name: str, seed: int) -> StorePlan:
    from repro.common.rng import SplitRandom
    from repro.store.loadgen import ZipfKeys

    shape = SHAPES[name]
    zipf = ZipfKeys(shape["keys"], shape["theta"])
    root = SplitRandom(seed, ("perfbench", name))
    return StorePlan(
        ops=shape["ops"], write_fraction=shape["write_fraction"],
        zipf=zipf,
        preload={key: {"p": i} for i, key in enumerate(zipf.keys)},
        streams=[root.split("session", i) for i in range(SESSIONS)],
        server_seed=root.split("server").randrange(1 << 30))


def transactions(plan: StorePlan, session: int) -> Iterator[List[tuple]]:
    """Endless stream of logical transactions for one session.

    A write carries a nonce unique to (session, transaction, op), so the
    final read-back can tell whose write a key holds.
    """
    rng = plan.streams[session]
    index = 0
    while True:
        ops = []
        for op in range(plan.ops):
            key = plan.zipf.pick(rng)
            if rng.random() < plan.write_fraction:
                ops.append(("w", key, {"n": [session, index, op]}))
            else:
                ops.append(("r", key, None))
        yield ops
        index += 1


class LoadStats:
    """What the load generator saw during one window."""

    def __init__(self) -> None:
        self.logical = 0
        self.commits = 0
        self.attempts = 0
        self.aborts = 0
        self.exhausted = 0
        self.protocol_errors = 0
        self.round_trips = 0
        self.backoff_s = 0.0
        #: seconds in which every session slept at once: the thread idled
        self.idle_s = 0.0
        self.txn_s: List[float] = []
        #: per entry of ``txn_s``, the backoff it slept between attempts
        self.txn_backoff_s: List[float] = []
        self.read_s: List[float] = []
        self.commit_s: List[float] = []
        self.wall_s = 0.0
        #: ``wall_s`` as the clock read it, before :meth:`to_nominal`
        self.raw_wall_s = 0.0
        self.problems: List[str] = []

    @property
    def failed(self) -> int:
        return self.exhausted + self.protocol_errors

    def to_nominal(self, factor: float) -> None:
        """Rescale computing time by ``factor``, what a second of it in
        this window comes to at the host's nominal speed.  Sleeping does
        not slow with the host, so backoff and idle time stay as read."""
        self.wall_s = (self.wall_s - self.idle_s) * factor + self.idle_s
        self.txn_s[:] = [(seconds - slept) * factor + slept for seconds, slept
                         in zip(self.txn_s, self.txn_backoff_s)]
        for samples in (self.read_s, self.commit_s):
            samples[:] = [seconds * factor for seconds in samples]


def merged(parts: List[LoadStats]) -> LoadStats:
    """Consecutive windows as one window."""
    total = LoadStats()
    for name, value in vars(total).items():
        setattr(total, name, sum((getattr(part, name) for part in parts),
                                 type(value)()))
    return total


class Naps:
    """The sessions' backoff sleeps, and when they leave the thread idle."""

    def __init__(self, sessions: int, stats: LoadStats):
        self.awake = sessions
        self.stats = stats
        self.idle_since = 0.0

    def retire(self) -> None:
        """One session less computes (it sleeps, or it has finished)."""
        self.awake -= 1
        if not self.awake:
            self.idle_since = time.perf_counter()

    async def sleep(self, seconds: float) -> None:
        self.retire()
        await asyncio.sleep(seconds)
        if not self.awake:
            self.stats.idle_s += time.perf_counter() - self.idle_since
        self.awake += 1


async def run_session(client: object, stream: Iterator[List[tuple]],
                      stop: Callable[[int], bool], stats: LoadStats,
                      naps: Naps, acked: Dict[str, Set[str]]) -> None:
    """One closed-loop session; ``stop(done)`` is asked between txns."""
    clock = time.perf_counter
    done = 0
    while not stop(done):
        ops = next(stream)
        done += 1
        stats.logical += 1
        started = clock()
        slept = 0.0
        for _ in range(ATTEMPTS_PER_TXN):
            stats.attempts += 1
            stats.round_trips += 1
            reply = await client.begin()
            if reply.get("ok"):
                for kind, key, value in ops:
                    stats.round_trips += 1
                    sent = clock()
                    if kind == "r":
                        reply = await client.read(key)
                        if reply.get("ok"):
                            stats.read_s.append(clock() - sent)
                    else:
                        reply = await client.write(key, value)
                    if not reply.get("ok"):
                        break
                else:
                    stats.round_trips += 1
                    sent = clock()
                    reply = await client.commit()
                    if reply.get("ok"):
                        now = clock()
                        stats.commit_s.append(now - sent)
                        stats.txn_s.append(now - started)
                        stats.txn_backoff_s.append(slept)
                        stats.commits += 1
                        # the last write to a key in a txn is its value
                        for key, value in {k: v for kind, k, v in ops
                                           if kind == "w"}.items():
                            acked.setdefault(key, set()).add(repr(value))
                        break
            if reply.get("error") not in RETRYABLE:
                stats.protocol_errors += 1
                stats.problems.append(f"protocol error: {reply}")
                break
            stats.aborts += 1
            hint = reply.get("retry_after_ms")
            pause = (min(hint / 1000.0, BACKOFF_CAP_S)
                     if isinstance(hint, (int, float)) and hint > 0 else 0.0)
            stats.backoff_s += pause
            slept += pause
            await naps.sleep(pause)
        else:
            stats.exhausted += 1
            stats.problems.append(
                f"transaction gave up after {ATTEMPTS_PER_TXN} attempts")
    naps.retire()


class Deployment:
    """A started server with connected, warmed-up sessions."""

    def __init__(self, plan: StorePlan):
        self.plan = plan
        self.server = None
        self.monitor = None
        self.port = 0
        self.clients: List[object] = []
        self.host = HostClock()
        self.streams = [transactions(plan, i) for i in range(SESSIONS)]
        #: key -> values a COMMIT acknowledged (warm-up included)
        self.acked: Dict[str, Set[str]] = {}

    async def start(self) -> "Deployment":
        from repro.oracle.live import LiveHistoryMonitor
        from repro.store.loadgen import StoreClient
        from repro.store.server import StoreServer
        from repro.store.session import StoreConfig

        self.monitor = LiveHistoryMonitor(SHARDS)
        self.server = StoreServer(
            StoreConfig(shards=SHARDS, seed=self.plan.server_seed),
            monitor=self.monitor)
        self.port = await self.server.start()
        loader = await StoreClient.connect(self.port)
        items = list(self.plan.preload.items())
        for at in range(0, len(items), PRELOAD_BATCH):
            await loader.begin()
            for key, value in items[at:at + PRELOAD_BATCH]:
                await loader.write(key, value)
            reply = await loader.commit()
            if not reply.get("ok"):
                raise RuntimeError(f"preload failed: {reply}")
        loader.close()
        self.clients = [await StoreClient.connect(self.port)
                        for _ in range(SESSIONS)]
        await self.load(lambda done: done >= WARMUP_TXNS // SESSIONS)
        return self

    async def load(self, stop: Callable[[int], bool]) -> LoadStats:
        stats = LoadStats()
        naps = Naps(len(self.clients), stats)
        started = time.perf_counter()
        await asyncio.gather(*[
            run_session(client, stream, stop, stats, naps, self.acked)
            for client, stream in zip(self.clients, self.streams)])
        stats.wall_s = stats.raw_wall_s = time.perf_counter() - started
        return stats

    async def measure(self, seconds: float) -> List[LoadStats]:
        """A window of ``seconds`` as :data:`SLICES` host-normalised
        slices; the sessions idle while the host clock is read."""
        clock = time.perf_counter
        slices = []
        self.host.read()
        for _ in range(SLICES):
            ticks = []
            for _ in range(TICKS):
                deadline = clock() + seconds / (SLICES * TICKS)
                stats = await self.load(lambda done: clock() >= deadline)
                stats.to_nominal(self.host.nominal(1.0))
                ticks.append(stats)
            slices.append(merged(ticks))
        return slices

    async def stop(self) -> List[str]:
        """Read everything back, stop the server, report what is wrong."""
        from repro.store.loadgen import StoreClient
        for client in self.clients:
            client.close()
        problems = []
        reader = await StoreClient.connect(self.port)
        await reader.begin()
        for key, preloaded in self.plan.preload.items():
            reply = await reader.read(key)
            allowed = self.acked.get(key) or {repr(preloaded)}
            if not reply.get("ok") or repr(reply["value"]) not in allowed:
                problems.append(
                    f"read-back of {key}: {reply} is neither the preload "
                    f"nor an acknowledged write")
        await reader.commit()
        reader.close()
        await self.server.stop()
        problems += [f"monitor violation: {v.to_dict()}"
                     for v in self.monitor.violations]
        return problems


def tail_pct(count: int) -> int:
    """The highest of p99/p95/p90/p75/p50 that ``count`` samples support."""
    for pct in (99, 95, 90, 75):
        if supports(count, pct):
            return pct
    return 50


def end_to_end(deployment: Deployment,
               slices: List[LoadStats]) -> Tuple[dict, dict]:
    """(gated metrics, informational metrics) of an untraced window:
    the median over its slices of each slice's own value."""
    # by the average slice, so that a slow spell which thins one slice
    # does not change which percentile the run reports
    whole = merged(slices)
    pct = tail_pct(len(whole.txn_s) // len(slices))
    commit_pct = tail_pct(len(whole.commit_s) // len(slices))

    def rate(count: str) -> float:
        return median([getattr(s, count) / s.wall_s for s in slices])

    def latency_ms(samples: str, pct: int) -> float:
        return 1e3 * median([nearest_rank(getattr(s, samples), pct)
                             for s in slices])

    gated = {
        "txn_per_s": rate("commits"),
        "ops_per_s": rate("round_trips"),
        "request_p50_ms": latency_ms("txn_s", 50),
        "request_tail_ms": latency_ms("txn_s", pct),
    }
    info = {
        "request_tail_pct": (pct, "%"),
        "read_p50_ms": (latency_ms("read_s", 50), "ms"),
        "commit_p50_ms": (latency_ms("commit_s", 50), "ms"),
        f"commit_p{commit_pct}_ms": (latency_ms("commit_s", commit_pct),
                                     "ms"),
        "abort_rate": (whole.aborts / whole.attempts, "ratio"),
        # the oracle's cost grows with run length; the medians hide it
        "txn_per_s_first_slice": (slices[0].commits / slices[0].wall_s,
                                  "1/s"),
        "txn_per_s_last_slice": (slices[-1].commits / slices[-1].wall_s,
                                 "1/s"),
        "backoff_share": (whole.backoff_s / SESSIONS / whole.raw_wall_s,
                          "ratio"),
        "idle_share": (whole.idle_s / whole.raw_wall_s, "ratio"),
        "raw_txn_per_s": (whole.commits / whole.raw_wall_s, "1/s"),
        "host_slowdown": (deployment.host.slowdown(), "ratio"),
        "request_samples": (len(whole.txn_s), "count"),
        "read_samples": (len(whole.read_s), "count"),
        "window_s": (whole.raw_wall_s, "s"),
    }
    return gated, info


async def replay_protocol(frames: List[dict]) -> Tuple[float, float]:
    """(encode µs, decode µs) per frame over the run's own frames."""
    from repro.store import protocol
    clock = time.perf_counter
    start = clock()
    encoded = [protocol.encode_frame(frame) for frame in frames]
    encode_s = clock() - start
    reader = asyncio.StreamReader()
    reader.feed_data(b"".join(encoded))
    reader.feed_eof()
    start = clock()
    for _ in frames:
        await protocol.read_frame(reader)
    decode_s = clock() - start
    n = max(1, len(frames))
    return 1e6 * encode_s / n, 1e6 * decode_s / n


def per_layer(spans: tracing.SpanTracer, counters: tracing.StoreCounters,
              deployment: Deployment, stats: LoadStats,
              untraced: LoadStats, encode_us: float,
              decode_us: float) -> dict:
    wall = stats.raw_wall_s     # span times are as the clock read them
    commits = max(1, stats.commits)
    frames = spans.calls("store_protocol.encode")
    waits = [1e6 * s for s in counters.submit_to_done] or [0.0]
    out = {}
    for entry in tracing.MVM_ENTRY_POINTS + ("plain",):
        out[f"mvm.{entry}.calls"] = spans.calls(f"mvm.{entry}")
        out[f"mvm.{entry}.busy_s"] = spans.busy(f"mvm.{entry}")
    out["mvm.self_s"] = spans.self_time("mvm.")
    out["mvm.max_live_versions"] = max(
        shard.mvm.max_live_versions() for shard in deployment.server.shards)
    out["store_protocol.frames"] = frames
    out["store_protocol.bytes"] = counters.frame_bytes
    out["store_protocol.encode_us"] = encode_us
    out["store_protocol.decode_us"] = decode_us
    out["store_protocol.busy_share"] = (
        frames * (encode_us + decode_us) / 1e6 / wall)
    out["store_server.round_trips_per_txn"] = stats.round_trips / commits
    out["store_server.residual_share"] = (wall - spans.total_self()) / wall
    out["store_shard.submit.calls"] = spans.calls("store_shard.submit")
    out["store_shard.cmds_per_txn"] = (
        spans.calls("store_shard.submit") / commits)
    out["store_shard.submit_to_done_p50_us"] = median(waits)
    out["store_shard.submit_to_done_p99_us"] = nearest_rank(
        waits, tail_pct(len(waits)))
    out["store_shard.exec.busy_s"] = spans.busy("store_shard.exec")
    out["store_shard.apply.calls"] = spans.calls("store_shard.apply")
    out["store_shard.apply.busy_s"] = spans.busy("store_shard.apply")
    out["store_shard.self_s"] = spans.self_time("store_shard.")
    out["store_shard.shed"] = sum(
        shard.shed for shard in deployment.server.shards)
    out["oracle.feed_row.calls"] = spans.calls("oracle.feed_row")
    out["oracle.feed_row.busy_s"] = spans.busy("oracle.feed_row")
    out["oracle.check.calls"] = spans.calls("oracle.check")
    out["oracle.check.busy_s"] = spans.busy("oracle.check")
    out["oracle.check.max_ms"] = 1e3 * spans.span("oracle.check").max_s
    out["oracle.busy_share"] = spans.self_time("oracle.") / wall
    out["oracle.retained"] = deployment.monitor.retained()
    out["store_loadgen.attempts_per_txn"] = stats.attempts / commits
    out["store_loadgen.backoff_s"] = stats.backoff_s
    out["trace.wall_s"] = wall
    out["trace.unattributed_share"] = out["store_server.residual_share"]
    out["trace.overhead_ratio"] = (
        (untraced.commits / untraced.wall_s)
        / (stats.commits / stats.wall_s))
    return out


async def main(name: str, seed: int, seconds: float, trace: bool,
               setup_repeats: int) -> dict:
    clock = time.perf_counter
    host = HostClock()
    setup_samples = []
    problems: List[str] = []

    async def deploy() -> Deployment:
        host.read()
        start = clock()
        deployment = await Deployment(build_plan(name, seed)).start()
        setup_samples.append(host.nominal(clock() - start))
        return deployment

    for _ in range(setup_repeats - 1):
        problems += await (await deploy()).stop()
    window = seconds / 2 if trace else seconds
    deployment = await deploy()
    slices = await deployment.measure(window)
    problems += await deployment.stop()
    untraced = merged(slices)
    gated, info = end_to_end(deployment, slices)
    out = {
        "gated": gated,
        "info": info,
        "attempted": untraced.logical,
        "failed": untraced.failed,
        "per_layer": None,
    }
    problems += untraced.problems
    if trace:
        deployment = await deploy()
        spans = tracing.SpanTracer()
        counters = tracing.install_store(spans, deployment.server)
        try:
            traced = merged(await deployment.measure(window))
        finally:
            spans.uninstall()
        encode_us, decode_us = await replay_protocol(counters.frames)
        out["per_layer"] = per_layer(spans, counters, deployment, traced,
                                     untraced, encode_us, decode_us)
        problems += await deployment.stop()
        problems += traced.problems
        out["attempted"] += traced.logical
        out["failed"] += traced.failed
    out["setup_samples"] = setup_samples[:setup_repeats]
    out["imports"] = IMPORTS
    out["problems"] = problems
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: pathlib.Path, setup_repeats: int = 3) -> dict:
    return asyncio.run(main(name, seed, seconds, trace, setup_repeats))
