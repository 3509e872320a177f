"""Online telemetry: windowed time-series sampling and anomaly alerts.

Everything the observability stack records elsewhere (metrics, spans,
profiles, provenance) is post-hoc — collected during a run and only
inspectable after it ends.  This module is the *online* layer:

* :class:`TimeSeriesSampler` is an engine tracer that buckets the
  run's signals (throughput, abort rate by cause, begin stalls,
  backoff/commit-wait cycles, MVM version-list occupancy, escalations)
  into fixed-width windows of **virtual cycle time**.  Window
  aggregates are exact and mergeable (counters plus the power-of-two
  histograms of :mod:`repro.obs.metrics`), so per-shard series combine
  into one without re-running anything.
* Each closed window is evaluated by an :class:`AnomalyDetector`
  (EWMA/threshold rules: :class:`AbortSpike`, :class:`StarvationStall`,
  :class:`LivelockSuspected`, :class:`VersionGrowth`) whose alerts
  flow into the exported series and the live event stream.
* A process-wide **publisher** hook (:func:`set_publisher` /
  :func:`publish`) streams window and alert events to whoever is
  listening — the executor's campaign monitor
  (:mod:`repro.obs.monitor`) in the parent process, or a
  multiprocessing queue when the run executes in a pool worker.
  Publishing is fire-and-forget: a broken listener never perturbs or
  kills a run.

Windows close *online* against a *watermark*: the minimum last-seen
clock over still-running threads.  The engine always advances the
thread with the smallest clock, so no event can ever arrive for a
window below the watermark — the rows streamed mid-run are final, and
identical to the end-of-run export.

Zero-overhead contract: nothing in this module is constructed unless a
run enables telemetry (``run_once(telemetry=True)``); the
poisoned-constructor audit in ``benchmarks/test_telemetry_overhead.py``
covers :class:`TimeSeriesSampler`.
"""

from __future__ import annotations

import heapq
import json
from typing import Callable, Dict, List, Optional

from repro.common.errors import CAUSE_VALUES, AbortCause
from repro.obs.metrics import histogram_dict
from repro.obs.spans import _merge_histogram_dicts
from repro.sim.engine import Tracer
from repro.tm.api import Txn

__all__ = [
    "TIMESERIES_SCHEMA_VERSION", "DEFAULT_WINDOW_CYCLES",
    "TimeSeriesSampler", "AnomalyDetector", "AlertRule", "AbortSpike",
    "StarvationStall", "LivelockSuspected", "VersionGrowth",
    "merge_window_rows", "merge_windows", "merge_timeseries",
    "timeseries_to_jsonl", "load_timeseries_jsonl",
    "validate_timeseries", "TimeSeriesWriter",
    "set_publisher", "publisher", "publish",
    "set_context", "context",
]

#: time-series schema version, stamped on every exported header row
TIMESERIES_SCHEMA_VERSION = 1

#: default window width in simulated cycles — wide enough that a
#: typical quick-profile run yields tens-to-hundreds of windows, narrow
#: enough that the anomaly rules see dynamics, not endpoints
DEFAULT_WINDOW_CYCLES = 10_000


# ----------------------------------------------------------------------
# live event publishing (process-wide, fire-and-forget)

_publisher: Optional[Callable[[dict], None]] = None
_context: Optional[str] = None


def set_publisher(fn: Optional[Callable[[dict], None]]):
    """Install the process-wide live-event sink; returns the old one.

    In the harness parent this is the campaign monitor; in a pool
    worker the executor's initializer installs ``queue.put`` so events
    stream back over the process boundary.  ``None`` disables
    publishing (the default).
    """
    global _publisher
    old = _publisher
    _publisher = fn
    return old


def publisher() -> Optional[Callable[[dict], None]]:
    """The currently installed live-event sink (None = disabled)."""
    return _publisher


def set_context(ctx: Optional[str]):
    """Set the spec identity stamped onto published events; returns old."""
    global _context
    old = _context
    _context = ctx
    return old


def context() -> Optional[str]:
    """The current spec identity (None outside a harness spec run)."""
    return _context


def publish(event: dict) -> None:
    """Send one event to the live sink, if any.

    Stamps the current spec context under ``"spec"`` (unless already
    present) and swallows every listener error: monitoring must never
    perturb, slow down differently, or kill the run being monitored.
    """
    sink = _publisher
    if sink is None:
        return
    if _context is not None and "spec" not in event:
        event = dict(event, spec=_context)
    try:
        sink(event)
    except Exception:  # noqa: BLE001 - monitoring is best-effort
        pass


# ----------------------------------------------------------------------
# window aggregates


class _Window:
    """Mutable aggregate of one virtual-time window (internal)."""

    __slots__ = ("begins", "commits", "aborts", "causes", "begin_stalls",
                 "stall_cycles", "backoff_cycles", "commit_wait_cycles",
                 "escalations", "wasted_cycles", "span_cycles", "versions")

    def __init__(self) -> None:
        self.begins = 0
        self.commits = 0
        self.aborts = 0
        self.causes: Dict[str, int] = {}
        self.begin_stalls = 0
        self.stall_cycles = 0
        self.backoff_cycles = 0
        self.commit_wait_cycles = 0
        self.escalations = 0
        self.wasted_cycles = 0
        #: attempt durations and sampled occupancies, bucketed by _row
        self.span_cycles: List[int] = []
        self.versions: List[int] = []


#: integer counter fields of a window row, summed on merge
_WINDOW_COUNTERS = ("begins", "commits", "aborts", "begin_stalls",
                    "stall_cycles", "backoff_cycles",
                    "commit_wait_cycles", "escalations", "wasted_cycles")
#: histogram-valued fields of a window row, merged bucket-wise
_WINDOW_HISTOGRAMS = ("span_cycles", "versions")


def _abort_rate(commits: int, aborts: int) -> float:
    attempts = commits + aborts
    return aborts / attempts if attempts else 0.0


class TimeSeriesSampler(Tracer):
    """Engine tracer bucketing run signals into virtual-time windows.

    A passive observer: it reads thread clocks and run statistics off
    the engine (handed over via ``attach_engine``, the same duck-typed
    hook :class:`~repro.obs.spans.SpanRecorder` uses) and never mutates
    simulation state, so the schedule — and every statistic and RNG
    draw — is identical with or without the sampler in the tracer slot.

    Exactness: every begin/commit/abort/stall event lands in exactly
    one window (the window containing the owning thread's clock at the
    event), so window counters sum to the run totals; backoff and
    commit-wait cycles are charged as per-thread deltas of the
    ``RunStats`` counters the TM systems already maintain.  Closed
    windows are immutable — the watermark (minimum clock over running
    threads) guarantees no late events — which is what makes streaming
    them mid-run sound.
    """

    def __init__(self, window_cycles: int = DEFAULT_WINDOW_CYCLES,
                 detector: Optional["AnomalyDetector"] = None,
                 flight=None):
        if window_cycles <= 0:
            raise ValueError(
                f"window_cycles must be positive, got {window_cycles}")
        self.window_cycles = window_cycles
        self.detector = detector if detector is not None \
            else AnomalyDetector()
        #: flight recorder fed each closed window (None = no recorder)
        self.flight = flight
        self.alerts: List[dict] = []
        self._engine = None
        self._windows: Dict[int, _Window] = {}
        #: window index -> its row, made when the window closed
        self._rows: Dict[int, dict] = {}
        #: next window index to close (everything below is closed)
        self._closed_upto = 0
        #: per-thread last-seen clock (the watermark inputs)
        self._thread_clock: Dict[int, int] = {}
        #: one ``(clock, thread_id)`` entry per thread not yet seen done
        #: (None until the first event); an entry's clock may lag the
        #: thread's last-seen clock (clocks only rise, so a lagging entry
        #: sorts no later than it should)
        self._clock_heap: Optional[List[tuple]] = None
        #: the running thread whose last-seen clock is the watermark
        #: (None until the first event, and once every thread is done)
        self._holder: Optional[int] = None
        #: per-thread clock at the open attempt's begin
        self._open: Dict[int, int] = {}
        #: per-thread last-harvested backoff/commit-wait totals
        self._last_backoff: Dict[int, int] = {}
        self._last_wait: Dict[int, int] = {}
        self._last_escalations = 0
        self._finished = False

    def attach_engine(self, engine) -> None:
        """Called by the engine so the sampler can read clocks/stats."""
        self._engine = engine

    # -- event plumbing --------------------------------------------------
    #
    # Each hook finds its thread's clock and window itself, and calls
    # _advance_watermark only when the event may move the watermark:
    # from the holder, or once the holder is done.  Clocks only rise, so
    # an event from any other thread cannot lower the minimum the
    # holder still pins.

    def _advance_watermark(self, threads) -> None:
        """Find the new holder: its clock moved or its thread finished.

        Once the top entry is neither lagging (refreshed) nor done
        (dropped) it is the lowest ``(clock, thread_id)``: every other
        entry sorts after it and lags its thread, if at all, from below.
        """
        heap = self._clock_heap
        clocks = self._thread_clock
        if heap is None:
            # the first event: seed every thread at its current clock so
            # an early event from a fast thread cannot advance the
            # watermark past a thread that has not produced one yet
            for thread in threads:
                clocks[thread.thread_id] = thread.clock
            heap = self._clock_heap = [(thread.clock, thread.thread_id)
                                       for thread in threads]
            heapq.heapify(heap)
        while heap:
            clock, tid = heap[0]
            if threads[tid].done:
                heapq.heappop(heap)
            elif clocks[tid] != clock:
                heapq.heapreplace(heap, (clocks[tid], tid))
            else:
                break
        if not heap:
            self._holder = None
            return
        watermark, self._holder = heap[0]
        # window W is fully past once every running thread's clock is
        # at or beyond its end — no future event can land inside it
        target = watermark // self.window_cycles
        while self._closed_upto < target:
            self._close(self._closed_upto)
            self._closed_upto += 1

    # -- tracer hooks ----------------------------------------------------

    def on_begin(self, txn: Txn) -> None:
        tid = txn.thread_id
        threads = self._engine.threads
        clock = threads[tid].clock
        self._open[tid] = clock
        index = clock // self.window_cycles
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        window.begins += 1
        self._thread_clock[tid] = clock
        holder = self._holder
        if holder is None or holder == tid or threads[holder].done:
            self._advance_watermark(threads)

    def on_stall(self, thread_id: int, cycles: int) -> None:
        threads = self._engine.threads
        clock = threads[thread_id].clock
        index = clock // self.window_cycles
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        window.begin_stalls += 1
        window.stall_cycles += cycles
        self._thread_clock[thread_id] = clock
        holder = self._holder
        if holder is None or holder == thread_id or threads[holder].done:
            self._advance_watermark(threads)

    def on_abort(self, txn: Txn, cause: Optional[AbortCause] = None,
                 ) -> None:
        """Window an attempt's end: an abort of ``cause``, or without
        one a commit (``on_commit`` is this method)."""
        tid = txn.thread_id
        engine = self._engine
        threads = engine.threads
        clock = threads[tid].clock
        index = clock // self.window_cycles
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        begun = self._open.pop(tid, None)
        if cause is None:
            window.commits += 1
            name = None
        else:
            window.aborts += 1
            name = CAUSE_VALUES[cause]
            window.causes[name] = window.causes.get(name, 0) + 1
        if begun is not None:
            duration = clock - begun
            window.span_cycles.append(duration)
            if name is not None:
                window.wasted_cycles += duration
        # the RunStats counters' growth since this thread's last
        # attempt: its backoff and commit-wait cycles, and escalations
        tstats = engine.stats.threads[tid]
        backoff = tstats.backoff_cycles
        delta = backoff - self._last_backoff.get(tid, 0)
        if delta:
            window.backoff_cycles += delta
            self._last_backoff[tid] = backoff
        wait = tstats.commit_wait_cycles
        delta = wait - self._last_wait.get(tid, 0)
        if delta:
            window.commit_wait_cycles += delta
            self._last_wait[tid] = wait
        escalations = engine.stats.escalations
        if escalations != self._last_escalations:
            window.escalations += escalations - self._last_escalations
            self._last_escalations = escalations
        if self.flight is not None and begun is not None:
            self.flight.note_span({
                "thread": tid, "label": txn.label,
                "outcome": "commit" if name is None else "abort",
                "cause": name, "end_cycle": clock, "cycles": duration})
        self._thread_clock[tid] = clock
        holder = self._holder
        if holder is None or holder == tid or threads[holder].done:
            self._advance_watermark(threads)

    on_commit = on_abort

    # -- window closing --------------------------------------------------

    def _row(self, index: int) -> dict:
        """Canonical JSON-safe row for window ``index``."""
        window = self._windows.get(index)
        if window is None:
            window = _Window()
        width = self.window_cycles
        return {
            "kind": "window",
            "window": index,
            "start_cycle": index * width,
            "end_cycle": (index + 1) * width,
            "begins": window.begins,
            "commits": window.commits,
            "aborts": window.aborts,
            "abort_rate": _abort_rate(window.commits, window.aborts),
            "causes": {k: window.causes[k]
                       for k in sorted(window.causes)},
            "begin_stalls": window.begin_stalls,
            "stall_cycles": window.stall_cycles,
            "backoff_cycles": window.backoff_cycles,
            "commit_wait_cycles": window.commit_wait_cycles,
            "escalations": window.escalations,
            "wasted_cycles": window.wasted_cycles,
            "span_cycles": histogram_dict(window.span_cycles),
            "versions": histogram_dict(window.versions),
        }

    def _close(self, index: int) -> None:
        """Finalize window ``index``: sample gauges, alert, stream."""
        engine = self._engine
        if engine is not None:
            # version-list occupancy, sampled once per window close (a
            # full occupancy scan per event would be prohibitive)
            window = self._windows.get(index)
            if window is None:
                window = self._windows[index] = _Window()
            window.versions.append(engine.machine.mvm.max_live_versions())
        # a closed window is final: export reuses its row
        row = self._rows[index] = self._row(index)
        for alert in self.detector.observe(row):
            self.alerts.append(alert)
            if self.flight is not None:
                self.flight.note_alert(alert)
            publish(dict(alert, event="alert"))
        if self.flight is not None:
            self.flight.note_window(row)
        publish(dict(row, event="window"))

    def finish(self) -> None:
        """Close every remaining window (idempotent; run end or death)."""
        if self._finished:
            return
        self._finished = True
        last = max(self._windows, default=self._closed_upto - 1)
        while self._closed_upto <= last:
            self._close(self._closed_upto)
            self._closed_upto += 1

    def export(self) -> dict:
        """The canonical, mergeable time-series document for this run."""
        self.finish()
        rows = [self._rows[index] for index in sorted(self._windows)]
        return {
            "schema_version": TIMESERIES_SCHEMA_VERSION,
            "window_cycles": self.window_cycles,
            "windows": rows,
            "alerts": list(self.alerts),
            "totals": {
                "begins": sum(r["begins"] for r in rows),
                "commits": sum(r["commits"] for r in rows),
                "aborts": sum(r["aborts"] for r in rows),
                "begin_stalls": sum(r["begin_stalls"] for r in rows),
                "escalations": sum(r["escalations"] for r in rows),
                "wasted_cycles": sum(r["wasted_cycles"] for r in rows),
            },
        }


# ----------------------------------------------------------------------
# merging (exact, associative, order-independent)


def merge_window_rows(a: dict, b: dict) -> dict:
    """Merge two window rows of the same index into one exact aggregate."""
    if a["window"] != b["window"]:
        raise ValueError(f"cannot merge window {a['window']} "
                         f"with window {b['window']}")
    merged = {"kind": "window", "window": a["window"],
              "start_cycle": a["start_cycle"],
              "end_cycle": a["end_cycle"]}
    for key in _WINDOW_COUNTERS:
        merged[key] = a[key] + b[key]
    merged["abort_rate"] = _abort_rate(merged["commits"],
                                       merged["aborts"])
    causes = dict(a["causes"])
    for cause, count in b["causes"].items():
        causes[cause] = causes.get(cause, 0) + count
    merged["causes"] = {k: causes[k] for k in sorted(causes)}
    for key in _WINDOW_HISTOGRAMS:
        merged[key] = _merge_histogram_dicts(a.get(key), b.get(key))
    # canonical key order, independent of merge direction
    return {key: merged[key] for key in _row_key_order(merged)}


def _row_key_order(row: dict) -> List[str]:
    order = ["kind", "window", "start_cycle", "end_cycle", "begins",
             "commits", "aborts", "abort_rate", "causes", "begin_stalls",
             "stall_cycles", "backoff_cycles", "commit_wait_cycles",
             "escalations", "wasted_cycles", "span_cycles", "versions"]
    return [key for key in order if key in row]


def merge_windows(a: List[dict], b: List[dict]) -> List[dict]:
    """Merge two window-row lists by index (union of windows)."""
    by_index: Dict[int, dict] = {row["window"]: row for row in a}
    for row in b:
        present = by_index.get(row["window"])
        by_index[row["window"]] = (row if present is None
                                   else merge_window_rows(present, row))
    return [by_index[index] for index in sorted(by_index)]


def merge_timeseries(a: dict, b: dict) -> dict:
    """Merge two :meth:`TimeSeriesSampler.export` documents.

    Exact and mergeable by construction — counters sum, histograms
    merge bucket-wise — so the operation is associative and
    order-independent (``tests/obs/test_live.py`` pins both with a
    hypothesis property).  Alerts concatenate in (window, rule) order;
    they are observations, not aggregates.
    """
    if a["window_cycles"] != b["window_cycles"]:
        raise ValueError("cannot merge series with different window "
                         f"widths ({a['window_cycles']} vs "
                         f"{b['window_cycles']})")
    windows = merge_windows(a["windows"], b["windows"])
    alerts = sorted(a["alerts"] + b["alerts"],
                    key=lambda alert: (alert["window"], alert["rule"],
                                       alert["detail"]))
    totals: Dict[str, int] = {}
    for key in sorted(set(a["totals"]) | set(b["totals"])):
        totals[key] = a["totals"].get(key, 0) + b["totals"].get(key, 0)
    return {
        "schema_version": max(a["schema_version"], b["schema_version"]),
        "window_cycles": a["window_cycles"],
        "windows": windows,
        "alerts": alerts,
        "totals": totals,
    }


# ----------------------------------------------------------------------
# anomaly detection


class AlertRule:
    """Base class of one online anomaly rule.

    ``observe`` sees every closed window row in order and returns an
    alert dict when the rule fires, else None.  Rules fire on rising
    edges only — a persisting condition raises one alert per episode,
    not one per window.
    """

    name = "AlertRule"

    def observe(self, row: dict) -> Optional[dict]:  # noqa: D102
        raise NotImplementedError

    def _alert(self, row: dict, detail: str, value: float) -> dict:
        return {"kind": "alert", "rule": self.name,
                "window": row["window"], "detail": detail,
                "value": value}


class AbortSpike(AlertRule):
    """Abort rate jumped well above its smoothed history.

    Fires when a window's abort rate exceeds both an absolute floor
    and ``factor`` times the EWMA of preceding windows, with enough
    aborts to matter.  The first window only seeds the EWMA.
    """

    name = "AbortSpike"

    def __init__(self, alpha: float = 0.3, factor: float = 3.0,
                 min_rate: float = 0.5, min_aborts: int = 8):
        self.alpha = alpha
        self.factor = factor
        self.min_rate = min_rate
        self.min_aborts = min_aborts
        self._ewma: Optional[float] = None
        self._hot = False

    def observe(self, row: dict) -> Optional[dict]:
        rate = row["abort_rate"]
        alert = None
        spiking = (self._ewma is not None
                   and row["aborts"] >= self.min_aborts
                   and rate >= max(self.min_rate,
                                   self.factor * self._ewma))
        if spiking and not self._hot:
            alert = self._alert(
                row, f"abort rate {rate:.2f} vs EWMA "
                     f"{self._ewma:.2f} ({row['aborts']} aborts)",
                rate)
        self._hot = spiking
        if self._ewma is None:
            self._ewma = rate
        else:
            self._ewma += self.alpha * (rate - self._ewma)
        return alert


class StarvationStall(AlertRule):
    """Begins keep stalling while nothing commits.

    Fires after ``windows`` consecutive windows with zero commits and
    at least one begin stall each — the signature of a stalled
    Δ-protocol, an overflow drain that never ends, or an escalation
    queue that cannot acquire the token.
    """

    name = "StarvationStall"

    def __init__(self, windows: int = 3):
        self.windows = windows
        self._streak = 0

    def observe(self, row: dict) -> Optional[dict]:
        if row["commits"] == 0 and row["begin_stalls"] > 0:
            self._streak += 1
            if self._streak == self.windows:
                return self._alert(
                    row, f"no commits for {self._streak} windows with "
                         f"begin stalls in every one", float(self._streak))
        else:
            self._streak = 0
        return None


class LivelockSuspected(AlertRule):
    """Transactions keep aborting but nothing ever commits.

    Fires after ``windows`` consecutive commit-free windows that still
    saw aborts (``min_aborts`` total) — work is being attempted and
    thrown away, the livelock signature the retry policy's escalation
    exists to break.
    """

    name = "LivelockSuspected"

    def __init__(self, windows: int = 4, min_aborts: int = 8):
        self.windows = windows
        self.min_aborts = min_aborts
        self._streak = 0
        self._streak_aborts = 0
        self._fired = False

    def observe(self, row: dict) -> Optional[dict]:
        if row["commits"] == 0 and row["aborts"] > 0:
            self._streak += 1
            self._streak_aborts += row["aborts"]
            if (not self._fired and self._streak >= self.windows
                    and self._streak_aborts >= self.min_aborts):
                self._fired = True
                return self._alert(
                    row, f"{self._streak_aborts} aborts and 0 commits "
                         f"over {self._streak} windows",
                    float(self._streak_aborts))
        elif row["commits"] > 0:
            self._streak = 0
            self._streak_aborts = 0
            self._fired = False
        return None


class VersionGrowth(AlertRule):
    """MVM version-list occupancy is growing past its history.

    Fires when the sampled per-window occupancy maximum exceeds both
    ``min_versions`` and ``factor`` times its EWMA — version lists
    outgrowing what coalescing reclaims, the memory-pressure signature
    of section 4.4's overflow machinery falling behind.
    """

    name = "VersionGrowth"

    def __init__(self, alpha: float = 0.3, factor: float = 2.0,
                 min_versions: int = 8):
        self.alpha = alpha
        self.factor = factor
        self.min_versions = min_versions
        self._ewma: Optional[float] = None
        self._hot = False

    def observe(self, row: dict) -> Optional[dict]:
        histogram = row.get("versions")
        if not histogram or histogram["max"] is None:
            return None
        occupancy = histogram["max"]
        alert = None
        growing = (self._ewma is not None
                   and occupancy >= self.min_versions
                   and occupancy >= self.factor * self._ewma)
        if growing and not self._hot:
            alert = self._alert(
                row, f"version-list occupancy {occupancy} vs EWMA "
                     f"{self._ewma:.1f}", float(occupancy))
        self._hot = growing
        if self._ewma is None:
            self._ewma = float(occupancy)
        else:
            self._ewma += self.alpha * (occupancy - self._ewma)
        return alert


class AnomalyDetector:
    """Evaluates a pipeline of alert rules on every closed window."""

    def __init__(self, rules: Optional[List[AlertRule]] = None):
        self.rules = rules if rules is not None else [
            AbortSpike(), StarvationStall(), LivelockSuspected(),
            VersionGrowth()]

    def observe(self, row: dict) -> List[dict]:
        """Alerts fired by this window (usually empty)."""
        alerts = []
        for rule in self.rules:
            alert = rule.observe(row)
            if alert is not None:
                alerts.append(alert)
        return alerts


# ----------------------------------------------------------------------
# JSONL export, streaming sink, and the schema checker


def timeseries_to_jsonl(export: dict,
                        extra: Optional[dict] = None) -> str:
    """Serialise an exported series as JSON Lines.

    One header row, then one row per window, then one per alert —
    the on-disk form ``docs/timeseries-schema.md`` documents and
    :func:`validate_timeseries` checks.  ``extra`` keys are merged
    into every line (the harness stamps the spec string).
    """
    header = {"kind": "header",
              "schema_version": export["schema_version"],
              "window_cycles": export["window_cycles"],
              "totals": export["totals"]}
    rows = [header] + list(export["windows"]) + list(export["alerts"])
    lines = []
    for row in rows:
        if extra:
            row = dict(row, **extra)
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def load_timeseries_jsonl(text: str) -> dict:
    """Inverse of :func:`timeseries_to_jsonl` (tolerates streamed logs).

    Returns ``{"headers": [...], "windows": [...], "alerts": [...]}``;
    a single-run document has exactly one header, a streamed watch
    artifact one per monitored spec.
    """
    headers: List[dict] = []
    windows: List[dict] = []
    alerts: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        kind = row.get("kind")
        if kind == "header":
            headers.append(row)
        elif kind == "window":
            windows.append(row)
        elif kind == "alert":
            alerts.append(row)
    return {"headers": headers, "windows": windows, "alerts": alerts}


#: required integer fields of a window row (all non-negative)
_WINDOW_INT_KEYS = ("window", "start_cycle", "end_cycle") \
    + _WINDOW_COUNTERS


def _check_histogram(value, line_number: int, key: str,
                     problems: List[str]) -> None:
    if value is None:
        return
    if not isinstance(value, dict):
        problems.append(f"line {line_number}: {key!r} must be a "
                        f"histogram object or null")
        return
    for field in ("buckets", "count", "sum", "min", "max"):
        if field not in value:
            problems.append(
                f"line {line_number}: {key!r} missing {field!r}")


def validate_timeseries(text: str) -> List[str]:
    """Check a time-series JSONL document against the pinned schema.

    Returns human-readable problems (empty = valid).  Accepts both
    single-run exports and streamed watch artifacts: extra keys (the
    spec stamp) are tolerated, multiple headers are legal, and rows
    may interleave across specs.
    """
    problems: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {number}: not JSON ({exc})")
            continue
        if not isinstance(row, dict):
            problems.append(f"line {number}: not an object")
            continue
        kind = row.get("kind")
        if kind == "header":
            version = row.get("schema_version")
            if not isinstance(version, int) or isinstance(version, bool) \
                    or not 1 <= version <= TIMESERIES_SCHEMA_VERSION:
                problems.append(
                    f"line {number}: bad schema_version "
                    f"{version!r}")
            width = row.get("window_cycles")
            if width is not None and (not isinstance(width, int)
                                      or isinstance(width, bool)
                                      or width <= 0):
                problems.append(
                    f"line {number}: window_cycles must be a positive "
                    f"int or null, got {width!r}")
        elif kind == "window":
            for key in _WINDOW_INT_KEYS:
                value = row.get(key)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < 0:
                    problems.append(
                        f"line {number}: {key!r} must be a "
                        f"non-negative int, got {value!r}")
            rate = row.get("abort_rate")
            if not isinstance(rate, (int, float)) \
                    or isinstance(rate, bool) or not 0.0 <= rate <= 1.0:
                problems.append(
                    f"line {number}: abort_rate must be in [0, 1], "
                    f"got {rate!r}")
            causes = row.get("causes")
            if not isinstance(causes, dict) or any(
                    not isinstance(k, str) or not isinstance(v, int)
                    or isinstance(v, bool) for k, v in causes.items()):
                problems.append(
                    f"line {number}: causes must map cause -> count")
            if isinstance(row.get("start_cycle"), int) \
                    and isinstance(row.get("end_cycle"), int) \
                    and row["end_cycle"] <= row["start_cycle"]:
                problems.append(
                    f"line {number}: end_cycle must exceed start_cycle")
            for key in _WINDOW_HISTOGRAMS:
                _check_histogram(row.get(key), number, key, problems)
        elif kind == "alert":
            if not isinstance(row.get("rule"), str):
                problems.append(f"line {number}: alert missing 'rule'")
            if not isinstance(row.get("window"), int) \
                    or isinstance(row.get("window"), bool):
                problems.append(f"line {number}: alert missing 'window'")
            if not isinstance(row.get("detail"), str):
                problems.append(f"line {number}: alert missing 'detail'")
        else:
            problems.append(f"line {number}: unknown kind {kind!r}")
    return problems


class TimeSeriesWriter:
    """Streaming JSONL sink for live window/alert events.

    Install alongside the campaign monitor (the CLI's ``watch
    --series-out``) to persist the live stream as a valid time-series
    artifact: one header per monitored spec (written on that spec's
    first window), then window and alert rows as they arrive.
    """

    def __init__(self, path):
        self.path = path
        self._handle = None
        self._specs_seen: set = set()
        self.rows_written = 0

    def __call__(self, event: dict) -> None:
        kind = event.get("event")
        if kind not in ("window", "alert"):
            return
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        spec = event.get("spec")
        if kind == "window" and spec not in self._specs_seen:
            self._specs_seen.add(spec)
            header = {"kind": "header",
                      "schema_version": TIMESERIES_SCHEMA_VERSION,
                      "window_cycles": (event["end_cycle"]
                                        - event["start_cycle"])}
            if spec is not None:
                header["spec"] = spec
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
            self.rows_written += 1
        row = {key: value for key, value in event.items()
               if key != "event"}
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        self.rows_written += 1
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the artifact (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
