"""Crash flight recorder: a run's final moments, persisted on death.

A quarantined grid cell (crash, watchdog, timeout) used to die with no
record of what it was doing — the executor reports *that* it failed,
never *why*.  :class:`FlightRecorder` fixes that with the aviation
trick: a bounded ring of the most recent window aggregates and span
summaries (fed by :class:`repro.obs.live.TimeSeriesSampler`), persisted
to ``flight-<spec-digest>.json`` on a fixed cadence so the artifact
survives even a ``SIGKILL`` that never unwinds Python.  On a clean
finish the artifact is discarded; on any death — ``SimulationError``
(including the engine watchdog), per-spec timeout, or a
``BrokenProcessPool`` worker crash — the last persisted state remains
on disk and the executor attaches its path to the
:class:`~repro.harness.executor.RunFailure` cell.

The artifact location honours ``$SITM_FLIGHT_DIR`` (defaulting to
``results/flight``), mirroring the cache/fuzz/bench directory
conventions.  Writes are atomic (tmp + rename) so a crash mid-persist
leaves the previous snapshot, never a torn file.

Zero-overhead contract: a recorder exists only when a telemetry run
supplies a flight path (the harness spec layer does; bare ``run_once``
does not), and the poisoned-constructor audit in
``benchmarks/test_telemetry_overhead.py`` proves disabled runs never
construct one.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import List, Optional

__all__ = ["FLIGHT_SCHEMA_VERSION", "FLIGHT_DIR_ENV",
           "DEFAULT_FLIGHT_DIR", "flight_dir", "flight_path",
           "FlightRecorder", "load_flight", "validate_flight"]

#: flight-artifact schema version, stamped on every document
FLIGHT_SCHEMA_VERSION = 1
#: default artifact location, relative to the repository root / CWD
DEFAULT_FLIGHT_DIR = pathlib.Path("results") / "flight"
#: environment override for the artifact location
FLIGHT_DIR_ENV = "SITM_FLIGHT_DIR"


def flight_dir() -> pathlib.Path:
    """The flight-artifact directory ($SITM_FLIGHT_DIR or the default)."""
    env = os.environ.get(FLIGHT_DIR_ENV)
    return pathlib.Path(env) if env else DEFAULT_FLIGHT_DIR


def flight_path(digest: str) -> pathlib.Path:
    """Artifact path for a spec digest: ``flight-<digest>.json``."""
    return flight_dir() / f"flight-{digest}.json"


class FlightRecorder:
    """Bounded ring of recent telemetry, persisted across a crash.

    ``note_window``/``note_alert``/``note_span`` are fed by the
    sampler; the recorder keeps the last ``window_ring`` windows and
    ``span_ring`` span summaries (older entries fall off), plus running
    totals over *everything* it ever saw, so a post-mortem can tell
    "died at window 400 of a long run" from "died instantly".

    Persistence cadence: the initial :meth:`start` write (which also
    creates the artifact's directory) plus one atomic rewrite every
    ``persist_every`` closed windows — frequent enough that the
    artifact trails the crash by a bounded number of windows, rare
    enough to stay off the per-event hot path entirely.  A window row
    is JSON-encoded once, when it is ringed, and every persist splices
    the encoded rows into its document.
    """

    def __init__(self, path: os.PathLike, context: Optional[str] = None,
                 window_ring: int = 32, span_ring: int = 64,
                 persist_every: int = 4):
        if window_ring <= 0 or span_ring <= 0 or persist_every <= 0:
            raise ValueError("flight recorder rings and cadence must "
                             "be positive")
        self.path = pathlib.Path(path)
        #: spec identity this run executes (None for bare runs)
        self.context = context
        self.windows: deque = deque(maxlen=window_ring)
        #: ``windows``, each row as the artifact text holds it
        self._window_texts: deque = deque(maxlen=window_ring)
        self.spans: deque = deque(maxlen=span_ring)
        self.alerts: deque = deque(maxlen=window_ring)
        self.totals = {"windows": 0, "spans": 0, "alerts": 0,
                       "commits": 0, "aborts": 0}
        self.persist_every = persist_every
        self._since_persist = 0
        self._dumped = False

    # -- feeding (called by the sampler) ---------------------------------

    def note_window(self, row: dict) -> None:
        """Ring one closed window aggregate; persist on cadence."""
        self.windows.append(row)
        self._window_texts.append(json.dumps(row, sort_keys=True))
        self.totals["windows"] += 1
        self.totals["commits"] += row["commits"]
        self.totals["aborts"] += row["aborts"]
        self._since_persist += 1
        if self._since_persist >= self.persist_every:
            self.persist()

    def note_alert(self, alert: dict) -> None:
        """Ring one anomaly alert (kept alongside the windows)."""
        self.alerts.append(alert)
        self.totals["alerts"] += 1

    def note_span(self, summary: dict) -> None:
        """Ring one closed-span summary (no persist: spans are hot)."""
        self.spans.append(summary)
        self.totals["spans"] += 1

    # -- persistence -----------------------------------------------------

    def snapshot(self, status: str = "running",
                 reason: Optional[str] = None) -> dict:
        """The JSON document a persist writes (also the test surface)."""
        return {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "status": status,
            "reason": reason,
            "context": self.context,
            "totals": dict(self.totals),
            "windows": list(self.windows),
            "alerts": list(self.alerts),
            "recent_spans": list(self.spans),
        }

    def start(self) -> None:
        """Create the artifact's directory and write the initial
        snapshot immediately.

        A worker can be SIGKILLed before its first window closes; the
        start snapshot guarantees even that death leaves an artifact
        naming the spec that was running.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.persist()

    def persist(self, status: str = "running",
                reason: Optional[str] = None) -> None:
        """Atomically (re)write the artifact with the current rings.

        The text is ``json.dumps(self.snapshot(status, reason),
        sort_keys=True)``, byte for byte, spliced from the window rows
        encoded as they were ringed.
        """
        document = self.snapshot(status=status, reason=reason)
        del document["windows"]
        head = json.dumps(document, sort_keys=True)
        # "windows" sorts after every other key: the document's last
        text = (head[:-1] + ', "windows": ['
                + ", ".join(self._window_texts) + "]}")
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(self.path)
        self._since_persist = 0

    def dump(self, reason: str) -> pathlib.Path:
        """Final write on death: mark the artifact crashed (idempotent)."""
        if not self._dumped:
            self._dumped = True
            self.persist(status="crashed", reason=reason)
        return self.path

    def discard(self) -> None:
        """Remove the artifact after a clean finish (no crash = no wreck)."""
        try:
            self.path.unlink()
        except OSError:
            pass


def load_flight(path: os.PathLike) -> dict:
    """Read one flight artifact back as its JSON document."""
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def validate_flight(document: dict) -> List[str]:
    """Check a flight document's shape; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["flight document is not an object"]
    version = document.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) \
            or not 1 <= version <= FLIGHT_SCHEMA_VERSION:
        problems.append(f"bad schema_version {version!r}")
    if document.get("status") not in ("running", "crashed"):
        problems.append(f"bad status {document.get('status')!r}")
    if document.get("status") == "crashed" \
            and not isinstance(document.get("reason"), str):
        problems.append("crashed artifact missing its reason")
    context = document.get("context")
    if context is not None and not isinstance(context, str):
        problems.append("context must be a string or null")
    totals = document.get("totals")
    if not isinstance(totals, dict) or any(
            not isinstance(v, int) or isinstance(v, bool) or v < 0
            for v in totals.values()):
        problems.append("totals must map name -> non-negative int")
    for key in ("windows", "alerts", "recent_spans"):
        value = document.get(key)
        if not isinstance(value, list) or any(
                not isinstance(item, dict) for item in value):
            problems.append(f"{key!r} must be a list of objects")
    if isinstance(totals, dict) and isinstance(document.get("windows"),
                                               list):
        if totals.get("windows", 0) < len(document["windows"]):
            problems.append("totals.windows below the ringed count")
    return problems
