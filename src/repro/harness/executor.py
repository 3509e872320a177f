"""Parallel, memoizing execution layer for experiment grids.

The figure drivers declare :class:`~repro.harness.spec.ExperimentSpec`
grids; this module executes them:

* **Fan-out** — specs run across a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or
  inline (``jobs == 1``).  Specs and results cross the process boundary
  as JSON dicts, exercising the same serialization the cache uses, and
  the result map is assembled in submission order, so output is
  byte-identical whichever path ran — same seeds, same numbers, serial
  or parallel.
* **Memoization** — completed :class:`~repro.harness.runner.RunResult`
  records live in a content-addressed on-disk cache
  (``results/.cache/<key>.json``).  The key hashes the spec (including
  the config fingerprint) *and* a fingerprint of every ``repro/*.py``
  source file, so editing the simulator, a workload, or a config knob
  silently invalidates old entries.  ``cache=False`` disables the cache
  and ``refresh=True`` recomputes but re-stores (the CLI's
  ``--no-cache`` / ``--refresh`` escape hatches).

The executor keeps hit/miss/executed counters so callers can verify a
re-run was actually served from cache.

**Crash tolerance** — a grid must never die of one bad cell.  Worker
death (:class:`~concurrent.futures.process.BrokenProcessPool`), hung
specs (``timeout=SECS``, default off), and in-run exceptions are
caught per spec, retried up to :data:`Executor.MAX_ATTEMPTS` times,
and then quarantined as structured :class:`RunFailure` records in the
result map — callers render explicit FAILED cells and exit non-zero
instead of surfacing a mid-grid traceback.  After a pool death the
executor switches to *isolate mode* (one spec per fresh single-worker
pool) so the next crash is attributed to exactly the spec that caused
it.  :class:`~repro.common.errors.ConfigError` still propagates: a
misconfigured spec is the caller's bug, not a fault to survive.
Failures are never cached.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import queue as queue_module
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.common.errors import ConfigError
from repro.harness.runner import RunResult
from repro.harness.spec import ExperimentSpec

#: default cache location, relative to the repository root / CWD
DEFAULT_CACHE_DIR = pathlib.Path("results") / ".cache"
#: environment override for the cache location
CACHE_DIR_ENV = "SITM_CACHE_DIR"


def _result_summary(result: object) -> dict:
    """The progress fields a spec-done event carries (best effort)."""
    summary = {}
    for key in ("commits", "aborts", "abort_rate", "makespan_cycles"):
        value = getattr(result, key, None)
        if value is not None:
            summary[key] = value
    return summary


def _run_spec_payload(payload: dict) -> dict:
    """Worker entry point: spec dict in, result dict out.

    Module-level (picklable) and dict-typed so the pool never pickles
    harness objects — results take the exact JSON path the cache uses.
    Dispatches on the payload's ``kind`` discriminator; experiment
    payloads carry no ``kind`` key (their canonical form predates it).

    Publishes ``spec-start``/``spec-done`` live events through
    :mod:`repro.obs.live`; with no monitor attached the worker has no
    publisher installed and both are no-ops.
    """
    from repro.obs import live
    if payload.get("kind") == "fuzz":
        from repro.oracle.fuzz import FuzzSpec
        spec = FuzzSpec.from_dict(payload)
    else:
        spec = ExperimentSpec.from_dict(payload)
    live.publish({"event": "spec-start", "spec": str(spec)})
    result = spec.run()
    live.publish(dict(_result_summary(result),
                      event="spec-done", spec=str(spec)))
    return _result_payload(result)


def _result_payload(result) -> dict:
    """``result.to_dict()`` with a run's spans as rows
    (:func:`repro.obs.spans.span_rows`): what the result cache stores
    and a pool worker returns."""
    if getattr(result, "spans", None) is None:
        return result.to_dict()
    from repro.obs.spans import span_rows
    return dict(dataclasses.replace(result, spans=None).to_dict(),
                spans=span_rows(result.spans))


def _result_from_payload(spec, data: dict):
    """Inverse of :func:`_result_payload`."""
    rows = data.pop("spans", None)
    result = spec.result_from_dict(data)
    if rows is not None:
        from repro.obs.spans import spans_from_rows
        result.spans = spans_from_rows(rows)
    return result


def _monitor_init(event_queue) -> None:
    """Pool initializer: route a worker's live events to the parent.

    Installs the relay queue's ``put`` as the worker-process publisher
    so every :func:`repro.obs.live.publish` — window closes, alerts,
    spec lifecycle — streams back to the parent's campaign monitor.
    """
    from repro.obs import live
    live.set_publisher(event_queue.put)


class _MonitorRelay:
    """Parent-side event pipe: manager queue plus a drain thread.

    Workers ``put`` live events; the drain thread forwards them to the
    executor's monitor as they arrive, so the watch view updates while
    cells are still running.  ``close`` drains what is left and shuts
    the manager down; a dead worker mid-``put`` at worst loses its own
    last event, never the queue.
    """

    #: drain poll period (also bounds shutdown latency), seconds
    POLL_S = 0.05

    def __init__(self, emit: Callable[[dict], None]):
        import multiprocessing
        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._drain, args=(emit,),
            name="sitm-monitor-relay", daemon=True)
        self._thread.start()

    def _drain(self, emit: Callable[[dict], None]) -> None:
        while True:
            try:
                event = self.queue.get(timeout=self.POLL_S)
            except queue_module.Empty:
                if self._stop.is_set():
                    return
                continue
            except (EOFError, OSError):
                return  # manager torn down under us
            try:
                emit(event)
            except Exception:  # noqa: BLE001 - monitoring is best-effort
                pass

    def pool_kwargs(self) -> dict:
        """Constructor kwargs wiring a pool's workers to this relay."""
        return {"initializer": _monitor_init,
                "initargs": (self.queue,)}

    def close(self) -> None:
        """Stop the drain thread (after one final sweep) and clean up."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        try:
            self._manager.shutdown()
        except Exception:  # noqa: BLE001 - already-dead manager
            pass


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Hash of every ``.py`` source file in the ``repro`` package.

    Part of the cache key: any edit to the simulator, TM protocols,
    workloads, or harness invalidates all cached results, because a
    cached number is only trustworthy if the code that produced it is
    the code that would produce it now.  Computed once per process.
    """
    package_root = pathlib.Path(__file__).parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    """Content-addressed on-disk store of completed run results.

    One JSON file per ``(spec, code fingerprint)`` pair under ``root``;
    the filename is the combined hash, the payload carries the spec and
    fingerprint back for inspection and for paranoid load-time
    validation.  A result's spans are stored as rows
    (:func:`repro.obs.spans.span_rows`).
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        env = os.environ.get(CACHE_DIR_ENV)
        self.root = pathlib.Path(root or env or DEFAULT_CACHE_DIR)

    def key(self, spec: ExperimentSpec) -> str:
        """Cache key: spec hash x current code fingerprint."""
        digest = hashlib.sha256()
        digest.update(spec.canonical_json().encode("utf-8"))
        digest.update(b"\0")
        digest.update(code_fingerprint().encode("utf-8"))
        return digest.hexdigest()[:24]

    def path(self, spec: ExperimentSpec) -> pathlib.Path:
        """Cache file backing ``spec`` under the current code."""
        return self.root / f"{self.key(spec)}.json"

    def load(self, spec: ExperimentSpec) -> Optional[RunResult]:
        """Cached result for ``spec``, or ``None`` (missing/corrupt)."""
        path = self.path(spec)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if payload.get("fingerprint") != code_fingerprint():
            return None
        try:
            return _result_from_payload(spec, payload["result"])
        except (AttributeError, KeyError, TypeError):
            return None

    def store(self, spec: ExperimentSpec, result: RunResult) -> None:
        """Persist ``result`` atomically (rename over partial writes)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(spec)
        payload = {
            "spec": spec.to_dict(),
            "fingerprint": code_fingerprint(),
            "result": _result_payload(result),
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(path)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def stats(self) -> dict:
        """Entry count, total bytes, and how many match current code."""
        entries = list(self.root.glob("*.json")) if self.root.is_dir() \
            else []
        current = 0
        for path in entries:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if payload.get("fingerprint") == code_fingerprint():
                current += 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "current_code": current,
            "stale": len(entries) - current,
        }


@dataclass
class RunFailure:
    """Structured record of a spec the executor could not complete.

    Takes the place of a :class:`~repro.harness.runner.RunResult` in
    the result map, so grid drivers see every cell accounted for —
    succeeded or failed — and render explicit FAILED markers instead
    of crashing mid-report.  ``kind`` is ``"crash"`` (worker process
    died), ``"timeout"`` (no result within the per-spec budget), or
    ``"error"`` (the run raised).
    """

    spec: str
    spec_hash: str
    kind: str
    message: str
    attempts: int
    #: path of the crash flight-recorder artifact this cell left
    #: behind (``flight-<spec_hash>.json``), or None when the spec ran
    #: without telemetry / died before its first persist
    flight: Optional[str] = None

    #: discriminator mirrored by callers via ``getattr(r, "failed",
    #: False)`` so plain RunResults need no counterpart attribute
    failed = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunFailure":
        return cls(**data)


#: result-map value type: a completed run or its quarantine record
SpecOutcome = Union[RunResult, RunFailure]


class Executor:
    """Runs spec grids with parallelism, memoization, and quarantine.

    ``jobs=1`` executes inline; ``jobs=N`` fans out over a process
    pool; ``jobs=0`` means one job per CPU.  Counters (``hits``,
    ``misses``, ``executed``) accumulate across :meth:`run` calls so a
    CLI invocation can report its overall cache behaviour.

    ``timeout`` (seconds, pool mode only) bounds how long the executor
    waits for each spec's result; a spec that exceeds it has its pool
    killed and is retried in isolation.  Specs failing
    :data:`MAX_ATTEMPTS` times are quarantined as :class:`RunFailure`
    records, collected in ``self.failures``.
    """

    #: attempts per spec before quarantine (1 initial + 1 retry)
    MAX_ATTEMPTS = 2

    def __init__(self, jobs: int = 1, cache: bool = True,
                 refresh: bool = False,
                 cache_dir: Optional[os.PathLike] = None,
                 timeout: Optional[float] = None,
                 monitor: Optional[Callable[[dict], None]] = None):
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = one per CPU)")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.use_cache = cache
        self.refresh = refresh
        self.cache = ResultCache(cache_dir)
        self.timeout = timeout
        self.hits = 0
        self.misses = 0
        self.executed = 0
        self.failures: List[RunFailure] = []
        #: live-event sink (:class:`repro.obs.monitor.CampaignMonitor`
        #: or any callable); None — the default — publishes nothing
        #: and adds nothing to the execution path
        self.monitor = monitor

    def run(self, specs: Sequence[ExperimentSpec]
            ) -> Dict[ExperimentSpec, SpecOutcome]:
        """Execute ``specs``; returns a result map in input order.

        Duplicate specs are computed once.  Cache hits are served
        without touching the pool; misses are executed (in parallel
        when ``jobs > 1``) and stored back unless caching is off.
        Quarantined specs map to :class:`RunFailure` values (never
        cached — a failure is not a result).
        """
        ordered = list(dict.fromkeys(specs))
        self._emit({"event": "grid-start", "total": len(ordered)})
        results: Dict[ExperimentSpec, SpecOutcome] = {}
        pending: List[ExperimentSpec] = []
        for spec in ordered:
            cached = None
            if self.use_cache and not self.refresh:
                cached = self.cache.load(spec)
            if cached is not None:
                self.hits += 1
                results[spec] = cached
                self._emit({"event": "spec-cached", "spec": str(spec)})
            else:
                self.misses += 1
                pending.append(spec)
        for spec, result in zip(pending, self._execute(pending)):
            self.executed += 1
            if isinstance(result, RunFailure):
                self.failures.append(result)
                self._emit({"event": "spec-failed", "spec": result.spec,
                            "kind": result.kind,
                            "message": result.message,
                            "flight": result.flight})
            elif self.use_cache:
                self.cache.store(spec, result)
            results[spec] = result
        self._emit({"event": "grid-end", "total": len(ordered),
                    "failed": len([r for r in results.values()
                                   if getattr(r, "failed", False)])})
        return {spec: results[spec] for spec in ordered}

    def _emit(self, event: dict) -> None:
        """Hand one event to the monitor (never lets it break the grid)."""
        if self.monitor is None:
            return
        try:
            self.monitor(event)
        except Exception:  # noqa: BLE001 - monitoring is best-effort
            pass

    def _flight_artifact(self, spec: ExperimentSpec) -> Optional[str]:
        """Path of the flight artifact ``spec`` left behind, if any."""
        from repro.obs.flight import flight_path
        path = flight_path(spec.spec_hash())
        return str(path) if path.exists() else None

    def _execute(self, pending: Sequence[ExperimentSpec]
                 ) -> List[SpecOutcome]:
        if not pending:
            return []
        # process-level faults (crash/hang) SIGKILL or wedge whatever
        # process runs them: those specs must go to a sacrificial pool
        # worker even when the batch would otherwise execute inline
        sacrificial = any(getattr(spec, "faults", None) is not None
                          and spec.faults.needs_worker()
                          for spec in pending)
        if not sacrificial and (self.jobs == 1 or len(pending) == 1):
            if self.monitor is None:
                return [self._run_inline(spec) for spec in pending]
            # inline cells publish straight into the monitor: install
            # it as this process's live-event sink for the duration
            from repro.obs import live
            previous = live.set_publisher(self._emit)
            try:
                return [self._run_inline(spec) for spec in pending]
            finally:
                live.set_publisher(previous)
        return self._run_pool(pending)

    def _run_inline(self, spec: ExperimentSpec) -> SpecOutcome:
        """Guarded in-process execution with bounded retry.

        Inline mode cannot preempt a hung or crashing run (there is no
        worker to kill), so ``timeout`` and crash faults only apply in
        pool mode; in-run exceptions are still quarantined here.
        """
        last: Optional[BaseException] = None
        self._emit({"event": "spec-start", "spec": str(spec)})
        for _ in range(self.MAX_ATTEMPTS):
            try:
                result = spec.run()
            except ConfigError:
                raise  # a misconfigured spec is the caller's bug
            except Exception as exc:  # noqa: BLE001 - quarantine layer
                last = exc
            else:
                self._emit(dict(_result_summary(result),
                                event="spec-done", spec=str(spec)))
                return result
        return RunFailure(
            spec=str(spec), spec_hash=spec.spec_hash(), kind="error",
            message=f"{type(last).__name__}: {last}",
            attempts=self.MAX_ATTEMPTS,
            flight=self._flight_artifact(spec))

    def _run_pool(self, pending: Sequence[ExperimentSpec]
                  ) -> List[SpecOutcome]:
        """Pool execution with crash/timeout recovery.

        Healthy path: one pool, all specs submitted, results collected
        in submission order (byte-identical to inline).  When a worker
        dies or a result times out, the spec whose future surfaced the
        fault is charged an attempt, every uncollected spec is
        requeued uncharged, and the executor drops to *isolate mode* —
        one spec per fresh single-worker pool — so subsequent faults
        are attributed to exactly the spec that caused them.  Each
        loop iteration charges at least one attempt, and attempts are
        capped per spec, so the loop always terminates.
        """
        outcomes: Dict[ExperimentSpec, SpecOutcome] = {}
        attempts: Dict[ExperimentSpec, int] = {s: 0 for s in pending}
        queue: List[ExperimentSpec] = list(pending)
        isolate = False
        relay = (_MonitorRelay(self._emit) if self.monitor is not None
                 else None)
        pool_kwargs = relay.pool_kwargs() if relay is not None else {}
        try:
            while queue:
                if isolate:
                    batch, queue = [queue[0]], queue[1:]
                else:
                    batch, queue = queue, []
                workers = 1 if isolate else min(self.jobs, len(batch))
                pool = concurrent.futures.ProcessPoolExecutor(
                    workers, **pool_kwargs)
                requeue: List[ExperimentSpec] = []
                dead = False
                try:
                    futures = [(s, pool.submit(_run_spec_payload,
                                               s.to_dict()))
                               for s in batch]
                    for spec, future in futures:
                        if dead:
                            requeue.append(spec)
                            continue
                        try:
                            payload = future.result(timeout=self.timeout)
                        except concurrent.futures.TimeoutError:
                            self._kill_workers(pool)
                            dead = isolate = True
                            attempts[spec] += 1
                            self._settle(spec, attempts[spec], "timeout",
                                         f"no result within "
                                         f"{self.timeout}s",
                                         outcomes, requeue)
                        except BrokenProcessPool:
                            dead = isolate = True
                            attempts[spec] += 1
                            self._settle(spec, attempts[spec], "crash",
                                         "worker process died mid-run",
                                         outcomes, requeue)
                        except ConfigError:
                            raise  # a misconfigured spec: caller's bug
                        except Exception as exc:  # noqa: BLE001
                            attempts[spec] += 1
                            self._settle(spec, attempts[spec], "error",
                                         f"{type(exc).__name__}: {exc}",
                                         outcomes, requeue)
                        else:
                            outcomes[spec] = _result_from_payload(spec,
                                                                  payload)
                finally:
                    pool.shutdown(wait=not dead, cancel_futures=True)
                queue = requeue + queue
        finally:
            if relay is not None:
                relay.close()
        return [outcomes[spec] for spec in pending]

    def _settle(self, spec: ExperimentSpec, attempts: int, kind: str,
                message: str, outcomes: Dict[ExperimentSpec, SpecOutcome],
                requeue: List[ExperimentSpec]) -> None:
        """Requeue a failed spec, or quarantine it at the attempt cap."""
        if attempts >= self.MAX_ATTEMPTS:
            outcomes[spec] = RunFailure(
                spec=str(spec), spec_hash=spec.spec_hash(), kind=kind,
                message=message, attempts=attempts,
                flight=self._flight_artifact(spec))
        else:
            requeue.append(spec)

    @staticmethod
    def _kill_workers(pool: concurrent.futures.ProcessPoolExecutor
                      ) -> None:
        """Forcibly terminate a pool's workers (a hung worker would
        otherwise keep ``shutdown`` — and the grid — waiting forever)."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already-dead worker
                pass

    def counters(self) -> dict:
        """Snapshot of the executor's bookkeeping for reports."""
        total = self.hits + self.misses
        return {
            "jobs": self.jobs,
            "runs": total,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "executed": self.executed,
            "failures": len(self.failures),
            "hit_rate": self.hits / total if total else 0.0,
        }


def serial_executor() -> Executor:
    """The library default: inline execution, no cache side effects."""
    return Executor(jobs=1, cache=False)
