"""``sitm-store``: serve, benchmark, and chaos-test the live store.

Subcommands:

* ``serve`` — run the server on a host/port with the live oracle
  monitor attached and the Prometheus ``/metrics`` listener on a
  second port; ``--record`` persists every completed transaction as
  corpus-compatible JSONL.
* ``bench`` — stand up an in-process server, drive it with the
  closed-loop Zipfian load generator and print the stats as JSON;
  exits 1 if the live monitor saw any SI violation.
* ``chaos`` — run a seeded :class:`~repro.store.chaos.ChaosPlan`
  campaign and print its report; ``--broken no-fcw`` and ``--broken
  per-shard-pin`` run the monitor self-tests (exit 0 *only if* the
  planted violation was caught).
* ``check`` — replay a recorded session JSONL through the SI checker
  offline; exits 1 when violations are found.

Exit-code contract (shared with ``sitm-harness`` through
:func:`repro.common.errors.cli_exit_code`): **2** for configuration
errors, **1** for detected violations, a failed campaign or any other
library error (an error is one line on stderr), **0** for success.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
from typing import List, Optional

from repro.common.errors import ConfigError, cli_exit_code
from repro.oracle.live import LiveHistoryMonitor, check_rows
from repro.store.chaos import BROKEN_MODES, ChaosPlan, run_chaos_campaign
from repro.store.loadgen import run_load
from repro.store.server import StoreServer
from repro.store.session import StoreConfig

__all__ = ["main"]


def _store_config(args: argparse.Namespace) -> StoreConfig:
    kwargs = {}
    for field in ("shards", "max_inflight", "deadline_ms",
                  "idle_timeout_ms", "seed"):
        value = getattr(args, field, None)
        if value is not None:
            kwargs[field] = value
    return StoreConfig(**kwargs)


async def _serve(args: argparse.Namespace) -> int:
    config = _store_config(args)
    monitor = LiveHistoryMonitor(config.shards, dump_dir=args.dump_dir)
    server = StoreServer(config, monitor=monitor,
                         record_path=args.record)
    port = await server.start(args.host, args.port)
    metrics_port = await server.start_metrics(args.host,
                                              args.metrics_port)
    print(f"sitm-store serving on {args.host}:{port} "
          f"(metrics on :{metrics_port}, {config.shards} shards)")
    try:
        while True:
            await asyncio.sleep(3600)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await server.stop()
    return 1 if monitor.violations else 0


async def _bench(args: argparse.Namespace) -> int:
    config = _store_config(args)
    monitor = LiveHistoryMonitor(config.shards, dump_dir=args.dump_dir)
    server = StoreServer(config, monitor=monitor)
    port = await server.start()
    metrics_port = await server.start_metrics()
    try:
        stats = await run_load(
            port, sessions=args.sessions,
            txns_per_session=args.txns, keys=args.keys,
            zipf_theta=args.zipf_theta,
            write_fraction=args.write_fraction, seed=config.seed)
        if args.scrape:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", metrics_port)
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            body = raw.split(b"\r\n\r\n", 1)[-1]
            pathlib.Path(args.scrape).write_bytes(body)
    finally:
        await server.stop()
    stats["violations"] = [v.to_dict() for v in monitor.violations]
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 1 if monitor.violations else 0


def _chaos(args: argparse.Namespace) -> int:
    plan = ChaosPlan(
        seed=args.seed, sessions=args.sessions,
        txns_per_session=args.txns, keys=args.keys,
        disconnect_rate=args.disconnect_rate,
        slow_loris_sessions=args.loris,
        slow_loris_delay_ms=args.loris_delay_ms,
        stall_shard=args.stall_shard, stall_ms=args.stall_ms,
        crash_shard=args.crash_shard,
        crash_after_txns=args.crash_after,
        flood_sessions=args.flood)
    report = run_chaos_campaign(plan, _store_config(args),
                                broken=args.broken,
                                out_dir=args.dump_dir)
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


def _check(args: argparse.Namespace) -> int:
    path = pathlib.Path(args.path)
    try:
        rows = [json.loads(line) for line in
                path.read_text(encoding="utf-8").splitlines() if line]
    except OSError as exc:
        raise ConfigError(f"cannot read session log {path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"session log {path} is not JSONL: {exc}")
    violations = check_rows(rows, shards=args.shards)
    print(json.dumps({
        "rows": len(rows),
        "violations": [v.to_dict() for v in violations],
    }, indent=2, sort_keys=True))
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``sitm-store`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="sitm-store",
        description="fault-hardened transactional KV store on the "
                    "SI-TM multiversioned memory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shards", type=int, default=4)
        p.add_argument("--max-inflight", type=int, default=64,
                       dest="max_inflight")
        p.add_argument("--deadline-ms", type=int, default=2_000,
                       dest="deadline_ms")
        p.add_argument("--idle-timeout-ms", type=int, default=10_000,
                       dest="idle_timeout_ms")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dump-dir", default=None, dest="dump_dir",
                       help="directory for monitor violation dumps")

    serve = sub.add_parser("serve", help="run the store server")
    common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7400)
    serve.add_argument("--metrics-port", type=int, default=7401,
                       dest="metrics_port")
    serve.add_argument("--record", default=None,
                       help="JSONL path recording completed sessions")

    bench = sub.add_parser("bench", help="closed-loop Zipfian bench "
                                         "against an in-process server")
    common(bench)
    bench.add_argument("--sessions", type=int, default=4)
    bench.add_argument("--txns", type=int, default=50)
    bench.add_argument("--keys", type=int, default=64)
    bench.add_argument("--zipf-theta", type=float, default=0.8,
                       dest="zipf_theta")
    bench.add_argument("--write-fraction", type=float, default=0.5,
                       dest="write_fraction")
    bench.add_argument("--scrape", default=None,
                       help="write a /metrics scrape to this path")

    chaos = sub.add_parser("chaos", help="run a seeded chaos campaign")
    common(chaos)
    chaos.add_argument("--sessions", type=int, default=6)
    chaos.add_argument("--txns", type=int, default=25)
    chaos.add_argument("--keys", type=int, default=48)
    chaos.add_argument("--disconnect-rate", type=float, default=0.0,
                       dest="disconnect_rate")
    chaos.add_argument("--loris", type=int, default=0,
                       help="slow-loris peers to attach")
    chaos.add_argument("--loris-delay-ms", type=int, default=500,
                       dest="loris_delay_ms")
    chaos.add_argument("--stall-shard", type=int, default=-1,
                       dest="stall_shard")
    chaos.add_argument("--stall-ms", type=int, default=0,
                       dest="stall_ms")
    chaos.add_argument("--crash-shard", type=int, default=-1,
                       dest="crash_shard")
    chaos.add_argument("--crash-after", type=int, default=0,
                       dest="crash_after",
                       help="completed txns before the crash fires")
    chaos.add_argument("--flood", type=int, default=0,
                       help="simultaneous transaction opens")
    chaos.add_argument("--broken", default="",
                       choices=["", *BROKEN_MODES],
                       help="deliberately-broken mode for monitor "
                            "self-tests")
    chaos.add_argument("--report", default=None,
                       help="also write the report JSON to this path")

    check = sub.add_parser("check", help="replay a session JSONL "
                                         "through the SI checker")
    check.add_argument("path")
    check.add_argument("--shards", type=int, default=4)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"serve": lambda: asyncio.run(_serve(args)),
               "bench": lambda: asyncio.run(_bench(args)),
               "chaos": lambda: _chaos(args),
               "check": lambda: _check(args)}[args.command]
    return cli_exit_code("sitm-store", command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
