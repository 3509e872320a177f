"""Telemetry exporters: JSONL span logs, Chrome trace events, ASCII Gantt.

Three formats, three audiences:

* **JSONL** — one span per line, trivially greppable/streamable, the
  format persisted next to fuzzer repros so a shrunk failure's
  execution can be re-read without re-running anything;
* **Chrome trace events** — the ``traceEvents`` JSON consumed by
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: each
  run is a *process*, each simulated thread a *track*, each
  transaction attempt a duration slice (``ph: "X"``) colored by
  outcome, with cause/retry/footprint details in ``args``;
* **ASCII Gantt** (:func:`render_timeline`) — the same tracks drawn in
  a terminal: under 2PL you can watch a long reader get shot repeatedly
  by writers (runs of ``x``) and retried, while under SI-TM the same
  rows are solid committed ``#`` spans.

Time unit: one simulated cycle is exported as one microsecond
(Perfetto's native slice unit), so a 20k-cycle transaction renders as
a 20ms slice — absolute numbers read directly off the ruler.
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# spans imports the engine; the store takes SPAN_SCHEMA_VERSION from here
if TYPE_CHECKING:
    from repro.obs.spans import Span

__all__ = ["spans_to_jsonl", "load_spans_jsonl", "chrome_trace",
           "chrome_trace_events", "write_chrome_trace",
           "render_timeline", "aborted_fraction", "summary_by_label",
           "validate_span_log", "SPAN_SCHEMA_VERSION"]

#: span-log JSONL schema version, stamped on every exported line.
#: Version history:
#:
#: * (absent) / 1 — the pre-provenance schema: the thirteen core keys,
#:   always present, ``None`` where unknown;
#: * 2 — adds the optional ``killer_tid``/``killer_uid``/
#:   ``killer_label``/``killer_ts`` provenance fields, present only on
#:   aborts whose backend identified the killer.  Core keys unchanged,
#:   so version-1 logs (including the fuzzer's persisted
#:   ``repro-*.spans.jsonl`` artifacts) still load.
SPAN_SCHEMA_VERSION = 2

#: Chrome trace color names by span outcome (rendered by the trace UIs)
_OUTCOME_COLORS = {
    "commit": "good",
    "abort": "terrible",
    "open": "grey",
}


def spans_to_jsonl(spans: Sequence[Span],
                   extra: Optional[Dict[str, object]] = None) -> str:
    """Serialise spans as JSON Lines (one span dict per line).

    ``extra`` keys are merged into every line — the fuzzer uses this to
    stamp each span with the backend it ran under.
    """
    lines = []
    for span in spans:
        row = span.to_dict()
        row["schema_version"] = SPAN_SCHEMA_VERSION
        if extra:
            row.update(extra)
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def load_spans_jsonl(text: str) -> List[Span]:
    """Inverse of :func:`spans_to_jsonl` (extra keys are ignored)."""
    from repro.obs.spans import Span

    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


#: required span-log keys and the types their non-None values must have
_REQUIRED_SPAN_KEYS = {"uid": int, "thread": int, "label": str,
                       "begin_cycle": int}
_OPTIONAL_SPAN_KEYS = {"end_cycle": int, "outcome": str, "cause": str,
                       "retries": int, "reads": int, "writes": int,
                       "start_ts": int, "commit_ts": int,
                       "conflict_line": int, "schema_version": int,
                       "killer_tid": int, "killer_uid": int,
                       "killer_label": str, "killer_ts": int}
_VALID_OUTCOMES = {"commit", "abort", "open"}


def validate_span_log(text: str) -> List[str]:
    """Check a span-log JSONL document against the pinned schema.

    Returns a list of human-readable problems (empty = valid).  Both
    schema versions are accepted: version-1 logs simply have no
    ``schema_version`` or killer keys.  This is the contract the
    ROADMAP's trace-replay workload will consume, so it is deliberately
    strict about types and outcome values but tolerant of extra keys
    (the fuzzer stamps ``system``/``schedule`` onto every line).
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
        for key, kind in _REQUIRED_SPAN_KEYS.items():
            if key not in row:
                problems.append(f"line {number}: missing {key!r}")
            elif not isinstance(row[key], kind) \
                    or isinstance(row[key], bool):
                problems.append(
                    f"line {number}: {key!r} must be {kind.__name__}, "
                    f"got {row[key]!r}")
        for key, kind in _OPTIONAL_SPAN_KEYS.items():
            value = row.get(key)
            if value is not None and (not isinstance(value, kind)
                                      or isinstance(value, bool)):
                problems.append(
                    f"line {number}: {key!r} must be {kind.__name__} "
                    f"or null, got {value!r}")
        outcome = row.get("outcome")
        if outcome is not None and outcome not in _VALID_OUTCOMES:
            problems.append(
                f"line {number}: unknown outcome {outcome!r}")
        version = row.get("schema_version")
        if isinstance(version, int) and not isinstance(version, bool) \
                and not 1 <= version <= SPAN_SCHEMA_VERSION:
            problems.append(
                f"line {number}: unsupported schema_version {version}")
        killer_keys = [k for k in ("killer_tid", "killer_uid")
                       if row.get(k) is not None]
        if killer_keys and row.get("outcome") != "abort":
            problems.append(
                f"line {number}: killer fields on a non-abort span")
    return problems


def chrome_trace_events(spans: Sequence[Span], pid: int = 0,
                        process_name: Optional[str] = None) -> List[dict]:
    """Trace events for one run: thread tracks + one slice per span."""
    events: List[dict] = []
    if process_name is not None:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": process_name}})
    for tid in sorted({span.thread_id for span in spans}):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": f"thread {tid}"}})
    for span in spans:
        name = span.label
        if span.outcome == "abort":
            name = f"{span.label} ✗{span.cause or ''}"
        events.append({
            "name": name,
            "cat": span.outcome,
            "ph": "X",
            "ts": span.begin_cycle,
            "dur": max(0, span.duration),
            "pid": pid,
            "tid": span.thread_id,
            "cname": _OUTCOME_COLORS.get(span.outcome, "grey"),
            "args": {
                "outcome": span.outcome,
                "cause": span.cause,
                "retries": span.retries,
                "reads": span.reads,
                "writes": span.writes,
                "start_ts": span.start_ts,
                "commit_ts": span.commit_ts,
            },
        })
    return events


def chrome_trace(runs: Sequence[Tuple[str, Sequence[Span]]]) -> dict:
    """A complete Chrome trace document: one process per run.

    ``runs`` is a sequence of ``(name, spans)`` pairs; the name becomes
    the Perfetto process label (e.g. the experiment spec string).
    """
    events: List[dict] = []
    for pid, (name, spans) in enumerate(runs):
        events.extend(chrome_trace_events(spans, pid=pid,
                                          process_name=name))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "1 simulated cycle = 1us",
                      "producer": "repro.obs"},
    }


def write_chrome_trace(path, trace: dict) -> pathlib.Path:
    """Write a trace document as deterministic (sorted-key) JSON."""
    target = pathlib.Path(path)
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trace, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target


def _closed(spans: Sequence[Span]) -> List[Span]:
    return [span for span in spans if span.end_cycle is not None]


def aborted_fraction(spans: Sequence[Span]) -> float:
    """Fraction of closed attempts that aborted."""
    closed = _closed(spans)
    if not closed:
        return 0.0
    return sum(1 for s in closed if s.outcome == "abort") / len(closed)


def summary_by_label(spans: Sequence[Span]) -> Dict[str, Dict[str, int]]:
    """Per-label attempt counts and cycle totals over closed spans."""
    out: Dict[str, Dict[str, int]] = {}
    for span in _closed(spans):
        entry = out.setdefault(span.label, {
            "commits": 0, "aborts": 0, "cycles": 0})
        entry["commits" if span.outcome == "commit" else "aborts"] += 1
        entry["cycles"] += span.duration
    return out


def render_timeline(spans: Sequence[Span], width: int = 80) -> str:
    """ASCII Gantt: one row per thread, ``#`` committed, ``x`` aborted.

    Later attempts overwrite earlier ones in shared columns, so dense
    retry storms show as runs of ``x``.
    """
    closed = _closed(spans)
    if not closed:
        return "(no transactions recorded)"
    makespan = max(1, max(span.end_cycle for span in closed))
    threads = sorted({span.thread_id for span in closed})
    rows = {tid: [" "] * width for tid in threads}
    # aborts first, so a commit sharing a column wins it
    for span in sorted(closed, key=lambda s: s.outcome == "commit"):
        lo = min(width - 1, span.begin_cycle * width // makespan)
        hi = min(width - 1,
                 max(lo, (span.end_cycle * width - 1) // makespan))
        mark = "#" if span.outcome == "commit" else "x"
        row = rows[span.thread_id]
        for col in range(lo, hi + 1):
            row[col] = mark
    lines = [f"cycles 0..{makespan}  (#=committed span, x=aborted attempt)"]
    for tid in threads:
        lines.append(f"T{tid:<3d}|{''.join(rows[tid])}|")
    return "\n".join(lines)
