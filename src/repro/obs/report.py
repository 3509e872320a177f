"""Text reports over telemetry: abort attribution and version occupancy.

The paper's analysis questions, answerable from one telemetered run:

* *why* did attempts abort (Figures 1/6/7's cause breakdown), per
  transaction label, with the cycles each cause burned —
  :func:`abort_attribution`;
* *which lines* those conflicts concentrate on, and whether MVM
  coalescing is absorbing the hot lines — :func:`conflict_heatmap`;
* *where the cycles went*, phase by phase, from the cycle profiler —
  :func:`phase_table`;
* *how deep* did version lists grow under coalescing/GC (section 4.4,
  Table 2's occupancy concern) — :func:`version_occupancy`;
* everything else the registry collected — :func:`metrics_table`.

All render with :func:`repro.common.table.format_table` so the
output diffs cleanly alongside the figure tables.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.common.table import format_table
from repro.obs.spans import Span

__all__ = ["abort_attribution", "conflict_heatmap", "phase_table",
           "version_occupancy", "metrics_table"]


def abort_attribution(spans: Sequence[Span]) -> str:
    """Per-label breakdown of attempts, aborts by cause, and cycles lost.

    ``wasted kcycles`` is the summed duration of aborted attempts — the
    re-execution cost that makes high abort rates expensive (the
    quantity Figure 8's makespans pay for).
    """
    labels = sorted({span.label for span in spans})
    rows: List[List[object]] = []
    for label in labels:
        mine = [s for s in spans if s.label == label]
        aborted = [s for s in mine if s.outcome == "abort"]
        causes = Counter(s.cause for s in aborted)
        wasted = sum(s.duration for s in aborted)
        rows.append([
            label,
            len(mine),
            sum(1 for s in mine if s.outcome == "commit"),
            len(aborted),
            max((s.retries for s in mine), default=0),
            f"{wasted / 1000.0:.1f}",
            " ".join(f"{cause}:{n}"
                     for cause, n in sorted(causes.items())) or "-",
        ])
    return format_table(
        ["label", "attempts", "commits", "aborts", "max retry",
         "wasted kcycles", "causes"],
        rows, title="Abort attribution")


def conflict_heatmap(spans: Sequence[Span],
                     profile_snapshot: Optional[dict] = None,
                     top: int = 20) -> str:
    """Per-line conflict heatmap: where aborts concentrate, and why.

    Groups aborted spans by the memory line their fatal conflict was
    detected on (``Span.conflict_line``, stamped by the detecting
    backend), ranking lines by the cycles wasted re-executing work they
    killed.  With a profiler snapshot attached, each line is joined
    with the source sites writing it and the MVM's per-line
    install/coalesce/GC counts — answering whether coalescing is
    absorbing the hottest lines (section 4.4) or the conflicts are
    genuine write-write contention.
    """
    by_line: Dict[int, List[Span]] = {}
    unattributed: List[Span] = []
    for span in spans:
        if span.outcome != "abort":
            continue
        if span.conflict_line is None:
            unattributed.append(span)
        else:
            by_line.setdefault(span.conflict_line, []).append(span)
    if not by_line and not unattributed:
        return "Conflict heatmap: no aborts observed"
    prof = profile_snapshot or {}
    line_sites = prof.get("line_sites", {})
    mvm = prof.get("mvm_events", {})
    ranked = sorted(by_line.items(),
                    key=lambda kv: (-sum(s.duration for s in kv[1]),
                                    kv[0]))
    rows: List[List[object]] = []
    for line, killed in ranked[:top]:
        causes = Counter(s.cause for s in killed)
        key = str(line)
        installs = mvm.get("install", {}).get(key, 0)
        coalesced = mvm.get("coalesce", {}).get(key, 0)
        sites = line_sites.get(key, {})
        top_site = max(sites.items(), key=lambda kv: (kv[1], kv[0]),
                       default=("-", 0))[0]
        rows.append([
            f"{line:#x}",
            len(killed),
            " ".join(f"{cause}:{n}"
                     for cause, n in sorted(causes.items())),
            f"{sum(s.duration for s in killed) / 1000.0:.1f}",
            installs,
            f"{100.0 * coalesced / installs:.0f}%" if installs else "-",
            top_site,
        ])
    table = format_table(
        ["line", "aborts", "causes", "wasted kcycles", "installs",
         "coalesced", "hottest writer site"],
        rows, title="Conflict heatmap")
    notes = []
    if len(ranked) > top:
        notes.append(f"({len(ranked) - top} cooler lines not shown)")
    if unattributed:
        notes.append(f"{len(unattributed)} abort(s) without a single "
                     f"conflicting line (overflow/range causes)")
    return table + ("\n" + "\n".join(notes) if notes else "")


def phase_table(profile_snapshot: dict) -> str:
    """Cycle-attribution table from a profiler snapshot.

    One row per top-level phase (summed over threads) with its share of
    all charged cycles; sub-phases render indented beneath their
    parent, the unattributed remainder implicit.  Shares sum to 100%
    because the profiler conserves cycles.
    """
    phase_totals: Dict[str, int] = {}
    sub_totals: Dict[str, Dict[str, int]] = {}
    for phases in profile_snapshot.get("threads", {}).values():
        for phase, entry in phases.items():
            phase_totals[phase] = phase_totals.get(phase, 0) \
                + entry["cycles"]
            for sub, cycles in entry.get("sub", {}).items():
                subs = sub_totals.setdefault(phase, {})
                subs[sub] = subs.get(sub, 0) + cycles
    grand = sum(phase_totals.values())
    if not grand:
        return "Cycle attribution: no cycles recorded"
    rows: List[List[object]] = []
    for phase, cycles in sorted(phase_totals.items(),
                                key=lambda kv: (-kv[1], kv[0])):
        rows.append([phase, cycles, f"{100.0 * cycles / grand:.1f}"])
        for sub, sub_cycles in sorted(sub_totals.get(phase, {}).items(),
                                      key=lambda kv: (-kv[1], kv[0])):
            rows.append([f"  {phase}.{sub}", sub_cycles,
                         f"{100.0 * sub_cycles / grand:.1f}"])
    table = format_table(["phase", "cycles", "% of total"], rows,
                         title="Cycle attribution")
    return table + f"\ntotal charged cycles: {grand}"


def version_occupancy(snapshot: dict) -> str:
    """Version-list occupancy distribution from a metrics snapshot.

    Reads the ``mvm_version_list_length`` histogram the controller
    feeds at every install: how long lists actually get is the
    empirical check on the paper's claim that 4 versions suffice
    (Table 2 / section 4.4).
    """
    hist = snapshot.get("histograms", {}).get("mvm_version_list_length")
    if not hist or not hist.get("count"):
        return "Version occupancy: no installs observed"
    rows = [[f"<= {bound}", count,
             f"{100.0 * count / hist['count']:.1f}"]
            for bound, count in sorted(hist["buckets"].items(),
                                       key=lambda kv: int(kv[0]))]
    counters = snapshot.get("counters", {})
    table = format_table(
        ["list length", "installs", "% of installs"], rows,
        title="Version-list occupancy at install")
    summary = (f"installs={hist['count']} max={hist['max']} "
               f"coalesced={counters.get('mvm_versions_coalesced', 0)} "
               f"collected={counters.get('mvm_versions_collected', 0)}")
    return table + "\n" + summary


def metrics_table(snapshot: dict,
                  prefix: Optional[str] = None) -> str:
    """Flat table of every counter and gauge in a snapshot.

    Histograms are summarised as ``count/sum/max``; pass ``prefix`` to
    restrict to one metric family (e.g. ``"mvm_"``).
    """
    rows: List[List[object]] = []
    for key, value in snapshot.get("counters", {}).items():
        if prefix is None or key.startswith(prefix):
            rows.append([key, "counter", value])
    for key, value in snapshot.get("gauges", {}).items():
        if prefix is None or key.startswith(prefix):
            rows.append([key, "gauge",
                         f"{value:.3f}" if isinstance(value, float)
                         else value])
    for key, hist in snapshot.get("histograms", {}).items():
        if prefix is None or key.startswith(prefix):
            rows.append([key, "histogram",
                         f"count={hist['count']} sum={hist['sum']} "
                         f"max={hist['max']}"])
    rows.sort(key=lambda row: str(row[0]))
    return format_table(["metric", "kind", "value"], rows,
                        title="Run metrics")
