"""Live campaign monitoring: the watch view and progress lines.

The executor publishes structured events while a grid or fuzz campaign
runs — ``grid-start``, ``spec-cached``, ``spec-start``,
``spec-done``, ``spec-failed``, plus the per-window ``window``/``alert``
stream from :mod:`repro.obs.live` (relayed over a multiprocessing
queue when cells run in pool workers).  :class:`CampaignMonitor`
consumes that stream and renders it two ways:

* ``style="line"`` — a periodic one-line status (done/running/cached/
  failed counts, throughput, ETA) suited to non-TTY CI logs; this is
  what ``--progress`` wires to stderr and ``watch --headless`` to
  stdout.
* ``style="screen"`` — a redrawn per-cell table (state, commits,
  abort-rate sparkline, alerts) for an interactive ``sitm-harness
  watch``.

The monitor is a passive consumer: it never blocks the executor (all
event handling is wrapped by the publisher's fire-and-forget contract)
and it is thread-safe, because pool events arrive on a drain thread
while cache-hit events arrive on the caller's thread.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

__all__ = ["CampaignMonitor", "sparkline", "SPARK_BLOCKS"]

#: eighth-block ramp used for abort-rate sparklines
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], lo: float = 0.0,
              hi: float = 1.0) -> str:
    """Render ``values`` (clamped to [lo, hi]) as block characters."""
    if hi <= lo:
        raise ValueError("sparkline needs hi > lo")
    chars = []
    span = hi - lo
    top = len(SPARK_BLOCKS) - 1
    for value in values:
        fraction = (min(max(value, lo), hi) - lo) / span
        chars.append(SPARK_BLOCKS[round(fraction * top)])
    return "".join(chars)


class _Cell:
    """Mutable monitoring state of one spec (internal)."""

    __slots__ = ("state", "commits", "aborts", "rates", "windows",
                 "alerts", "started", "elapsed", "kind", "flight",
                 "makespan")

    #: sparkline length: the most recent windows shown per cell
    RATE_POINTS = 24

    def __init__(self) -> None:
        self.state = "pending"
        self.commits = 0
        self.aborts = 0
        self.rates: List[float] = []
        self.windows = 0
        self.alerts = 0
        self.started: Optional[float] = None
        self.elapsed: Optional[float] = None
        self.kind: Optional[str] = None
        self.flight: Optional[str] = None
        self.makespan: Optional[int] = None


class CampaignMonitor:
    """Aggregates live campaign events into a renderable view.

    Install as an :class:`~repro.harness.executor.Executor`'s
    ``monitor`` (it is callable); events referencing specs the monitor
    has not seen create cells on the fly, so it works for grids whose
    size it only learns from the ``grid-start`` event — or never.
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, total: int = 0, stream=None, style: str = "line",
                 interval: float = 1.0, prefix: str = "[watch]",
                 clock=time.monotonic):
        if style not in ("line", "screen"):
            raise ValueError(f"unknown monitor style {style!r}")
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.total = total
        self.stream = stream
        self.style = style
        self.interval = interval
        self.prefix = prefix
        self.clock = clock
        self.cells: Dict[str, _Cell] = {}
        self.alerts: List[dict] = []
        self.events_seen = 0
        self._lock = threading.Lock()
        self._started = clock()
        self._last_print = -float("inf")

    # -- event intake ----------------------------------------------------

    def __call__(self, event: dict) -> None:
        self.handle(event)

    def _cell(self, event: dict) -> _Cell:
        spec = event.get("spec") or "<unknown>"
        cell = self.cells.get(spec)
        if cell is None:
            cell = self.cells[spec] = _Cell()
        return cell

    def handle(self, event: dict) -> None:
        """Consume one campaign event (thread-safe)."""
        if not isinstance(event, dict):
            return
        with self._lock:
            self.events_seen += 1
            kind = event.get("event")
            now = self.clock()
            if kind == "grid-start":
                self.total = max(self.total, event.get("total", 0))
            elif kind == "grid-end":
                pass  # forced terminal status line, nothing to record
            elif kind == "spec-cached":
                self._cell(event).state = "cached"
            elif kind == "spec-start":
                cell = self._cell(event)
                cell.state = "running"
                cell.started = now
            elif kind == "spec-done":
                cell = self._cell(event)
                cell.state = "done"
                cell.commits = event.get("commits") or cell.commits
                cell.aborts = event.get("aborts") or cell.aborts
                cell.makespan = event.get("makespan_cycles")
                if cell.started is not None:
                    cell.elapsed = now - cell.started
            elif kind == "spec-failed":
                cell = self._cell(event)
                cell.state = "failed"
                cell.kind = event.get("kind")
                cell.flight = event.get("flight")
                if cell.started is not None:
                    cell.elapsed = now - cell.started
            elif kind == "window":
                cell = self._cell(event)
                cell.state = "running"
                cell.windows += 1
                cell.commits += event.get("commits", 0)
                cell.aborts += event.get("aborts", 0)
                cell.rates.append(event.get("abort_rate", 0.0))
                del cell.rates[:-_Cell.RATE_POINTS]
            elif kind == "alert":
                self.alerts.append(event)
                self._cell(event).alerts += 1
            else:
                return
            self._maybe_print(kind, now)

    # -- derived state ---------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Cell counts by state (pending inferred from ``total``)."""
        counts = {"done": 0, "running": 0, "cached": 0, "failed": 0}
        for cell in self.cells.values():
            if cell.state in counts:
                counts[cell.state] += 1
        seen = sum(counts.values())
        counts["pending"] = max(self.total - seen, 0)
        return counts

    def eta_seconds(self) -> Optional[float]:
        """Rough time remaining, from the mean executed-cell duration."""
        durations = [cell.elapsed for cell in self.cells.values()
                     if cell.elapsed is not None]
        if not durations:
            return None
        counts = self.counts()
        remaining = counts["pending"] + counts["running"]
        if remaining == 0:
            return 0.0
        return remaining * (sum(durations) / len(durations))

    def status_line(self) -> str:
        """One-line campaign status (the --progress / headless form)."""
        counts = self.counts()
        commits = sum(cell.commits for cell in self.cells.values())
        parts = [f"{self.prefix} done {counts['done']}"
                 + (f"/{self.total}" if self.total else ""),
                 f"running {counts['running']}",
                 f"cached {counts['cached']}",
                 f"failed {counts['failed']}"]
        line = " ".join(parts) + f" | {commits} commits"
        if self.alerts:
            line += f" | {len(self.alerts)} alert(s)"
        eta = self.eta_seconds()
        if eta is not None and counts["pending"] + counts["running"]:
            line += f" | eta ~{eta:.0f}s"
        return line

    def render(self) -> str:
        """The full per-cell watch view (table + alerts + status)."""
        lines = [f"{self.prefix} campaign: "
                 f"{len(self.cells)} cell(s) seen"
                 + (f" of {self.total}" if self.total else "")]
        width = max((len(spec) for spec in self.cells), default=4)
        header = (f"  {'spec':<{width}}  {'state':<7}  {'commits':>8}  "
                  f"{'aborts':>7}  {'abort rate':<{_Cell.RATE_POINTS}}"
                  f"  alerts")
        lines.append(header)
        for spec in sorted(self.cells):
            cell = self.cells[spec]
            spark = sparkline(cell.rates) if cell.rates else "-"
            marker = cell.state
            if cell.state == "failed" and cell.kind:
                marker = f"failed:{cell.kind}"
            lines.append(
                f"  {spec:<{width}}  {marker:<7}  {cell.commits:>8}  "
                f"{cell.aborts:>7}  {spark:<{_Cell.RATE_POINTS}}  "
                f"{cell.alerts or '-':>6}")
            if cell.flight:
                lines.append(f"  {'':<{width}}  flight: {cell.flight}")
        for alert in self.alerts[-8:]:
            lines.append(f"  ALERT {alert.get('rule')} @ window "
                         f"{alert.get('window')} [{alert.get('spec')}]: "
                         f"{alert.get('detail')}")
        lines.append(self.status_line())
        return "\n".join(lines)

    # -- output ----------------------------------------------------------

    #: events that always force a line out, bypassing the rate limit —
    #: state transitions and alerts are too rare and too load-bearing
    #: to drop on the floor of an interval window
    _FORCED = ("spec-failed", "alert", "grid-start", "grid-end")

    def _maybe_print(self, kind: Optional[str], now: float) -> None:
        if self.stream is None:
            return
        forced = kind in self._FORCED
        if not forced and now - self._last_print < self.interval:
            return
        if not forced and kind == "window":
            # windows are the high-rate event; only the interval decides
            pass
        self._last_print = now
        try:
            if self.style == "screen":
                # home + clear-to-end redraw (no flicker-prone full clear)
                self.stream.write("\x1b[H\x1b[2J" + self.render() + "\n")
            else:
                self.stream.write(self.status_line() + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self.stream = None  # broken pipe / closed file: go silent
