"""Machine-readable experiment exports (CSV and JSON).

The text tables are for humans; plotting scripts and CI dashboards want
rows.  These helpers flatten the experiment drivers' structured results
into plain dict-rows, serialise them, and back the CLI's ``--csv``/
``--json`` options.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Sequence

from repro.harness.experiments import (
    CAPACITY_CAUSES,
    CapacityCell,
    Figure1Row,
    Figure7Cell,
    Figure8Series,
    ScheduleOutcome,
)


def figure1_rows(rows: Sequence[Figure1Row]) -> List[dict]:
    """Flatten Figure 1 results.

    Provenance columns follow the omitted-when-None convention: rows
    built without span telemetry flatten to exactly the historical
    four-key shape.
    """
    out = []
    for r in rows:
        row = {"workload": r.workload,
               "read_write_pct": round(r.read_write_pct, 2),
               "write_write_pct": round(r.write_write_pct, 2),
               "aborts_per_run": round(r.total_aborts, 2)}
        if r.decisive_pct is not None:
            row["decisive_pct"] = round(r.decisive_pct, 2)
            row["cascading_pct"] = round(r.cascading_pct, 2)
            row["self_inflicted_pct"] = round(r.self_inflicted_pct, 2)
            row["wasted_cycles_per_run"] = round(r.wasted_cycles, 2)
        out.append(row)
    return out


def figure7_rows(cells: Sequence[Figure7Cell]) -> List[dict]:
    """Flatten Figure 7 results: one row per (workload, threads, system)."""
    out = []
    for cell in cells:
        for system, aborts in cell.aborts.items():
            relative = cell.relative.get(system)
            rel_stddev = cell.rel_stddev.get(system)
            out.append({
                "workload": cell.workload,
                "threads": cell.threads,
                "system": system,
                "aborts": round(aborts, 2),
                "relative_to_2pl": (round(relative, 6)
                                    if relative is not None else ""),
                "throughput_rel_stddev": (round(rel_stddev, 6)
                                          if rel_stddev is not None else ""),
                "backoff_cycles": round(cell.backoff.get(system, 0.0), 2),
                "commit_wait_cycles": round(
                    cell.commit_wait.get(system, 0.0), 2),
            })
    return out


def figure8_rows(series: Sequence[Figure8Series]) -> List[dict]:
    """Flatten Figure 8 results: one row per (workload, system, threads)."""
    out = []
    for entry in series:
        stddevs = entry.rel_stddev or [None] * len(entry.threads)
        backoffs = entry.backoff or [0.0] * len(entry.threads)
        waits = entry.commit_wait or [0.0] * len(entry.threads)
        for threads, speedup, stddev, backoff, wait in zip(
                entry.threads, entry.speedup, stddevs, backoffs, waits):
            out.append({"workload": entry.workload,
                        "system": entry.system,
                        "threads": threads,
                        "speedup": round(speedup, 4),
                        "throughput_rel_stddev": (round(stddev, 6)
                                                  if stddev is not None
                                                  else ""),
                        "backoff_cycles": round(backoff, 2),
                        "commit_wait_cycles": round(wait, 2)})
    return out


def capacity_rows(cells: Sequence[CapacityCell]) -> List[dict]:
    """Flatten the capacity sweep: one row per (workload, system, limit).

    ``limit`` 0 denotes the unbounded baseline; the per-cause columns
    split the capacity aborts by their declared cause so plots can
    distinguish read-set, write-set and version-buffer pressure.
    """
    out = []
    for cell in cells:
        row = {"workload": cell.workload,
               "system": cell.system,
               "limit": cell.limit,
               "commits": round(cell.commits, 2),
               "aborts": round(cell.aborts, 2),
               "abort_rate": round(cell.abort_rate, 6),
               "capacity_aborts": round(cell.capacity_aborts, 2),
               "throughput": round(cell.throughput, 6),
               "failed": cell.failed}
        for cause in CAPACITY_CAUSES:
            row[cause] = round(cell.capacity_causes.get(cause, 0.0), 2)
        out.append(row)
    return out


def schedule_rows(outcomes: Sequence[ScheduleOutcome]) -> List[dict]:
    """Flatten Figure 2/6 outcomes."""
    return [{"system": o.system,
             "committed": " ".join(o.committed),
             "aborted": " ".join(o.aborted),
             "causes": " ".join(f"{k}:{v}"
                                for k, v in o.abort_causes.items())}
            for o in outcomes]


def to_csv(rows: Sequence[Dict[str, object]]) -> str:
    """Serialise dict-rows as CSV (columns from the first row)."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def to_json(rows: Sequence[Dict[str, object]]) -> str:
    """Serialise dict-rows as pretty JSON."""
    return json.dumps(list(rows), indent=2, sort_keys=True) + "\n"
