"""Conflict provenance: who killed whom, and what the aborts cost.

The span layer records *that* an attempt aborted; the backends now also
record *who doomed it* (``Span.killer_*``, stamped by every
conflict-detection site).  This module turns those per-attempt facts
into the run-level blame artifacts:

* the **killer→victim conflict graph** — directed edges between source
  sites (transaction labels), weighted by abort count and wasted
  cycles, exportable as canonical JSON or Graphviz DOT;
* the **wasted-work ledger** — every aborted attempt's cycles charged
  to its ``(killer site, victim site)`` pair, so "which conflict pair
  burns the machine" is a sorted Pareto table rather than a guess;
* the **abort classification** — each abort is *decisive* (the killer
  went on to commit: a true conflict, someone had to die),
  *cascading* (the killer itself later aborted: wasted work killing
  other work), or *self-inflicted* (capacity, overflow, injected
  faults, explicit aborts: no other transaction involved).  Killers
  whose own span is missing or still open classify as *unresolved*
  (streamed-out reservoirs can drop commit spans).

Everything here is pure post-processing over spans — no engine or
backend hooks, zero run-time overhead — and deterministic: identical
spans produce byte-identical reports.

The ledger's conservation contract: the sum of every edge's wasted
cycles equals the sum of abort-span durations, and the per-victim-
thread breakdown reconciles *exactly* with the profiler's independent
begin/abort clock-delta tally
(:meth:`repro.obs.profile.CycleProfiler.check_conservation`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.spans import Span

__all__ = ["DECISIVE", "CASCADING", "SELF_INFLICTED", "UNRESOLVED",
           "ABORT_CLASSES", "SELF_SITE", "classify_abort",
           "ProvenanceReport", "build_provenance", "merge_provenance",
           "blame_table", "record_provenance_metrics"]

#: the killer committed — a true conflict resolved in the killer's favor
DECISIVE = "decisive"
#: the killer itself later aborted — wasted work killed other work
CASCADING = "cascading"
#: no other transaction involved (capacity, overflow, faults, explicit)
SELF_INFLICTED = "self_inflicted"
#: a killer was named but its own fate is unknown (span open or
#: sampled out of a streamed log)
UNRESOLVED = "unresolved"
ABORT_CLASSES = (DECISIVE, CASCADING, SELF_INFLICTED, UNRESOLVED)

#: killer-site label used for aborts with no killer transaction
SELF_SITE = "(self)"

#: provenance-report JSON schema version
PROVENANCE_SCHEMA_VERSION = 1


def classify_abort(span: Span,
                   outcome_by_uid: Dict[int, str]) -> str:
    """Classify one abort span given every span's final outcome."""
    if span.killer_uid is None and span.killer_tid is None:
        return SELF_INFLICTED
    outcome = (outcome_by_uid.get(span.killer_uid)
               if span.killer_uid is not None else None)
    if outcome == "commit":
        return DECISIVE
    if outcome == "abort":
        return CASCADING
    return UNRESOLVED


def _classified_aborts(spans: Sequence[Span]) -> List[Tuple[Span, str]]:
    """Every abort among ``spans``, in order, with its classification."""
    outcome_by_uid = {span.uid: span.outcome for span in spans}
    return [(span, classify_abort(span, outcome_by_uid))
            for span in spans if span.outcome == "abort"]


class ProvenanceReport:
    """Aggregated killer→victim graph + wasted-work ledger for one run.

    Build with :func:`build_provenance`.  ``edges`` maps
    ``(killer_site, victim_site)`` to a mutable aggregate dict with
    ``aborts``, ``wasted_cycles``, per-class and per-cause counts;
    self-inflicted aborts charge the :data:`SELF_SITE` pseudo-site.
    """

    def __init__(self) -> None:
        self.total_spans = 0
        self.commits = 0
        self.aborts = 0
        self.wasted_cycles = 0
        #: victim thread -> wasted cycles (reconciles with the profiler)
        self.wasted_by_thread: Dict[int, int] = {}
        #: abort classification -> count
        self.by_class: Dict[str, int] = {}
        #: (killer_site, victim_site) -> aggregate
        self.edges: Dict[Tuple[str, str], Dict[str, object]] = {}

    # -- views -----------------------------------------------------------

    def pareto(self) -> List[dict]:
        """Ledger rows sorted by wasted cycles (descending), with the
        cumulative share column that makes the Pareto structure legible:
        the first rows are where fixing contention pays."""
        rows = []
        for (killer, victim), edge in self.edges.items():
            rows.append({
                "killer": killer, "victim": victim,
                "aborts": edge["aborts"],
                "wasted_cycles": edge["wasted_cycles"],
                "classes": dict(sorted(edge["classes"].items())),
                "causes": dict(sorted(edge["causes"].items())),
            })
        rows.sort(key=lambda r: (-r["wasted_cycles"], -r["aborts"],
                                 r["killer"], r["victim"]))
        running = 0
        for row in rows:
            running += row["wasted_cycles"]
            row["share"] = (row["wasted_cycles"] / self.wasted_cycles
                            if self.wasted_cycles else 0.0)
            row["cumulative_share"] = (running / self.wasted_cycles
                                       if self.wasted_cycles else 0.0)
        return rows

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (sorted, versioned, deterministic)."""
        return {
            "schema_version": PROVENANCE_SCHEMA_VERSION,
            "total_spans": self.total_spans,
            "commits": self.commits,
            "aborts": self.aborts,
            "wasted_cycles": self.wasted_cycles,
            "wasted_by_thread": {
                str(tid): cycles for tid, cycles
                in sorted(self.wasted_by_thread.items())},
            "by_class": {cls: self.by_class.get(cls, 0)
                         for cls in ABORT_CLASSES},
            "edges": self.pareto(),
        }

    def to_json(self) -> str:
        """Canonical JSON document (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the killer→victim conflict graph.

        Sites become nodes; each edge carries its abort count and
        wasted cycles, with pen width scaled by wasted-cycle share so
        the dominant conflict pair is visually obvious.  Deterministic
        output: nodes and edges are emitted in sorted order.
        """
        lines = ["digraph conflicts {",
                 "  rankdir=LR;",
                 "  node [shape=box, fontname=\"monospace\"];"]
        sites = sorted({site for pair in self.edges for site in pair})
        for site in sites:
            shape = ", style=dashed" if site == SELF_SITE else ""
            lines.append(f"  \"{site}\" [label=\"{site}\"{shape}];")
        for (killer, victim) in sorted(self.edges):
            edge = self.edges[(killer, victim)]
            share = (edge["wasted_cycles"] / self.wasted_cycles
                     if self.wasted_cycles else 0.0)
            width = 1.0 + 5.0 * share
            label = (f"{edge['aborts']} aborts\\n"
                     f"{edge['wasted_cycles']} cycles")
            lines.append(
                f"  \"{killer}\" -> \"{victim}\" "
                f"[label=\"{label}\", penwidth={width:.2f}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_provenance(spans: Sequence[Span],
                     aborts: Optional[List[Tuple[Span, str]]] = None,
                     ) -> ProvenanceReport:
    """Aggregate spans (one run's, or merged) into a blame report.

    Each abort's cycles are charged to its ``(killer site, victim
    site)`` edge and to its thread; self-inflicted aborts charge the
    :data:`SELF_SITE` pseudo-site.  ``aborts`` is the spans'
    :func:`_classified_aborts`, when the caller already has it.
    """
    if aborts is None:
        aborts = _classified_aborts(spans)
    report = ProvenanceReport()
    report.total_spans = len(spans)
    report.commits = [span.outcome for span in spans].count("commit")
    report.aborts = len(aborts)
    by_thread = report.wasted_by_thread
    by_class = report.by_class
    for span, classification in aborts:
        # an abort span is closed, so its duration is end - begin
        wasted = span.end_cycle - span.begin_cycle
        report.wasted_cycles += wasted
        by_thread[span.thread_id] = by_thread.get(span.thread_id, 0) + wasted
        by_class[classification] = by_class.get(classification, 0) + 1
        killer_site = (SELF_SITE if classification == SELF_INFLICTED
                       else span.killer_label or SELF_SITE)
        edge = report.edges.get((killer_site, span.label))
        if edge is None:
            edge = report.edges[(killer_site, span.label)] = {
                "aborts": 0, "wasted_cycles": 0,
                "classes": {}, "causes": {}}
        edge["aborts"] += 1
        edge["wasted_cycles"] += wasted
        classes = edge["classes"]
        classes[classification] = classes.get(classification, 0) + 1
        cause = span.cause or "unknown"
        causes = edge["causes"]
        causes[cause] = causes.get(cause, 0) + 1
    for cls in ABORT_CLASSES:
        by_class.setdefault(cls, 0)
    return report


def merge_provenance(reports: Sequence[ProvenanceReport],
                     ) -> ProvenanceReport:
    """Merge per-run reports into one (edges and totals sum).

    Classification must happen per run first — span uids restart at 0
    every run, so the killer→outcome lookup is only meaningful within
    one run's spans — after which the site-level aggregates are freely
    mergeable, like the histogram aggregates in
    :func:`repro.obs.spans.merge_span_aggregates`.
    """
    merged = ProvenanceReport()
    for report in reports:
        merged.total_spans += report.total_spans
        merged.commits += report.commits
        merged.aborts += report.aborts
        merged.wasted_cycles += report.wasted_cycles
        for tid, cycles in report.wasted_by_thread.items():
            merged.wasted_by_thread[tid] = \
                merged.wasted_by_thread.get(tid, 0) + cycles
        for cls, count in report.by_class.items():
            merged.by_class[cls] = merged.by_class.get(cls, 0) + count
        for pair, edge in report.edges.items():
            target = merged.edges.get(pair)
            if target is None:
                target = merged.edges[pair] = {
                    "aborts": 0, "wasted_cycles": 0,
                    "classes": {}, "causes": {}}
            target["aborts"] += edge["aborts"]
            target["wasted_cycles"] += edge["wasted_cycles"]
            for key in ("classes", "causes"):
                for name, count in edge[key].items():
                    target[key][name] = target[key].get(name, 0) + count
    for cls in ABORT_CLASSES:
        merged.by_class.setdefault(cls, 0)
    return merged


def blame_table(report: ProvenanceReport, top: Optional[int] = None) -> str:
    """Render the wasted-work Pareto ledger as a fixed-width table."""
    rows = report.pareto()
    if top is not None:
        rows = rows[:top]
    header = (f"{'killer':<20} {'victim':<20} {'aborts':>7} "
              f"{'wasted':>12} {'share':>7} {'cum':>7}  classes")
    lines = [header, "-" * len(header)]
    for row in rows:
        classes = ",".join(f"{cls}={count}" for cls, count
                           in sorted(row["classes"].items()))
        lines.append(
            f"{row['killer']:<20} {row['victim']:<20} "
            f"{row['aborts']:>7} {row['wasted_cycles']:>12} "
            f"{row['share']:>6.1%} {row['cumulative_share']:>6.1%}  "
            f"{classes}")
    lines.append("-" * len(header))
    lines.append(
        f"{report.aborts} aborts / {report.total_spans} spans, "
        f"{report.wasted_cycles} wasted cycles "
        f"(decisive={report.by_class.get(DECISIVE, 0)}, "
        f"cascading={report.by_class.get(CASCADING, 0)}, "
        f"self_inflicted={report.by_class.get(SELF_INFLICTED, 0)}, "
        f"unresolved={report.by_class.get(UNRESOLVED, 0)})")
    return "\n".join(lines) + "\n"


def record_provenance_metrics(registry, system: str,
                              spans: Sequence[Span]) -> ProvenanceReport:
    """Fold span provenance into the metrics registry's counters.

    Emits ``tm_wasted_cycles_total{system,cause}`` (aborted attempts'
    cycles by abort cause) and ``tm_aborts_by_outcome_total``
    ``{system,outcome}`` (the decisive/cascading/self_inflicted/
    unresolved classification).  Runs end-of-run — a killer's fate is
    unknowable while its span is still open — so the hot path pays
    nothing.  Returns the built report for further use.
    """
    aborts = _classified_aborts(spans)
    for span, classification in aborts:
        registry.inc("tm_wasted_cycles_total",
                     span.end_cycle - span.begin_cycle,
                     system=system, cause=span.cause or "unknown")
        registry.inc("tm_aborts_by_outcome_total", 1, system=system,
                     outcome=classification)
    return build_provenance(spans, aborts)
