"""Command-line harness: regenerate every figure and table of the paper.

Usage::

    sitm-harness fig1  [--profile quick] [--threads 16] [--seeds 3]
    sitm-harness fig2
    sitm-harness fig6
    sitm-harness fig7  [--profile quick] [--seeds 3] [--jobs 4]
    sitm-harness fig8  [--profile quick] [--seeds 3] [--jobs 4]
    sitm-harness table1
    sitm-harness table2 [--profile quick]
    sitm-harness capacity [--profile quick] [--threads 8] [--seeds 3]
    sitm-harness overheads
    sitm-harness claims
    sitm-harness cache [--stats | --clear]
    sitm-harness fuzz  [--backend all] [--schedules N] [--seed S] [--jobs 4]
                       [--faults]
    sitm-harness faults [--list | --no-escalation] [--seeds 3] [--jobs 4]
    sitm-harness trace   [--experiment figure7] [--backend sitm]
                         [--out trace.json]
    sitm-harness metrics [--experiment rbtree] [--backend sitm]
                         [--format text|prom]
    sitm-harness watch   [--experiment rbtree] [--backend sitm]
                         [--seeds 2] [--jobs 2] [--headless]
                         [--series-out series.jsonl] [--crash-cell]
    sitm-harness blame   [--experiment rbtree] [--backend sitm]
                         [--top N] [--dot graph.dot] [--json blame.json]
    sitm-harness profile [--experiment rbtree] [--backend sitm]
                         [--stacks stacks.txt]
    sitm-harness all   [--profile test]

``--profile`` selects the workload scaling profile (see
:mod:`repro.workloads.base`); ``full`` is closest to the paper but slow in
pure Python.  ``--seeds`` sets independent seeds per cell: the default 3
keeps quick runs fast, the paper's protocol averages 5 (``--seeds 5``).

``claims`` runs the paper's headline claims at one pinned configuration
(:mod:`repro.harness.claims`) whatever the flags say, and exits 1 when
any claim fails.

Grid commands (fig1/fig7/fig8/table2/claims) execute through the
parallel, memoizing executor: ``--jobs N`` fans simulations out over N
worker processes (``--jobs 0`` = one per CPU), and completed runs are
cached content-addressed under ``results/.cache`` so a re-run is served
from disk.  ``--no-cache`` disables the cache, ``--refresh`` recomputes
and overwrites it, and ``sitm-harness cache --stats/--clear`` inspects
or empties it.  Results are byte-identical serial, parallel, or cached.

Live monitoring: ``sitm-harness watch`` runs a telemetry grid under
the campaign monitor (per-cell state, abort-rate sparklines, alerts,
ETA; ``--headless`` for line-mode output, ``--series-out`` to persist
the streamed time series, ``--crash-cell`` to add one deliberately
crashing cell and exercise the flight recorder), and every grid
command accepts ``--progress`` for periodic one-line status on stderr.
See ``docs/observability.md`` ("Live monitoring") and
``docs/timeseries-schema.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.config import table1_dict
from repro.common.errors import ConfigError
from repro.harness import experiments
from repro.harness import claims
from repro.harness import export
from repro.harness.executor import Executor, ResultCache
from repro.harness.report import (format_rel_stddev, format_relative,
                                  format_series, format_table, line_chart)
from repro.harness.runner import DEFAULT_SEEDS, PAPER_SEEDS


def _fig1(args) -> str:
    rows = experiments.figure1(args.profile, args.threads, args.seeds,
                               executor=args.executor)
    _export(args, export.figure1_rows(rows))

    def pct(value) -> str:
        return "-" if value is None else f"{value:.1f}"

    return format_table(
        ["benchmark", "read-write %", "write-write %", "aborts/run",
         "decisive %", "cascading %", "self %", "wasted kc/run"],
        [[r.workload, f"{r.read_write_pct:.1f}", f"{r.write_write_pct:.1f}",
          f"{r.total_aborts:.0f}", pct(r.decisive_pct),
          pct(r.cascading_pct), pct(r.self_inflicted_pct),
          "-" if r.wasted_cycles is None
          else f"{r.wasted_cycles / 1000.0:.1f}"] for r in rows],
        title="Figure 1: abort causes under 2PL")


def _export(args, rows) -> None:
    """Write machine-readable rows when --csv/--json were given."""
    if getattr(args, "csv", None):
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(export.to_csv(rows))
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(export.to_json(rows))


def _schedule_table(outcomes, title: str) -> str:
    return format_table(
        ["system", "committed", "aborted", "causes"],
        [[o.system, " ".join(o.committed) or "-",
          " ".join(o.aborted) or "-",
          " ".join(f"{k}:{v}" for k, v in o.abort_causes.items()) or "-"]
         for o in outcomes],
        title=title)


def _fig2(args) -> str:
    return _schedule_table(experiments.figure2(),
                           "Figure 2: example schedule outcomes")


def _fig6(args) -> str:
    return _schedule_table(experiments.figure6(),
                           "Figure 6: temporal cyclic dependency")


def _fig7(args) -> str:
    systems = args.systems or list(experiments.FIGURE_SYSTEMS)
    if "2PL" not in systems:
        systems = ["2PL"] + systems
    cells = experiments.figure7(args.profile, seeds=args.seeds,
                                workloads=args.workloads, systems=systems,
                                executor=args.executor)
    _export(args, export.figure7_rows(cells))
    headers = (["benchmark", "threads"] + systems
               + [f"{s}/2PL" for s in systems if s != "2PL"]
               + ["max sd", "backoff(2PL) kc", "wait(2PL) kc"])
    rows = []
    for c in cells:
        row = [c.workload, c.threads]
        row += ["FAILED" if c.failed.get(s) else f"{c.aborts[s]:.0f}"
                for s in systems]
        row += [format_relative(c.relative[s]) for s in systems
                if s != "2PL"]
        row.append(format_rel_stddev(
            max(c.rel_stddev.values()) if c.rel_stddev else None))
        row.append(f"{c.backoff.get('2PL', 0.0) / 1000.0:.1f}")
        row.append(f"{c.commit_wait.get('2PL', 0.0) / 1000.0:.1f}")
        rows.append(row)
    return format_table(headers, rows,
                        title="Figure 7: aborts relative to 2PL")


def _fig8(args) -> str:
    series = experiments.figure8(args.profile, seeds=args.seeds,
                                 workloads=args.workloads,
                                 systems=args.systems,
                                 executor=args.executor)
    _export(args, export.figure8_rows(series))
    lines = ["Figure 8: speedup over one thread"]
    for s in series:
        line = format_series(f"{s.workload:10s} {s.system:6s}",
                             s.threads, s.speedup, s.rel_stddev)
        if s.backoff and s.commit_wait:
            # contention cost at the widest point of the curve: where
            # backoff and commit-token queueing eat the speedup
            line += (f"  [backoff {s.backoff[-1] / 1000.0:.1f}kc"
                     f" wait {s.commit_wait[-1] / 1000.0:.1f}kc"
                     f" @t{s.threads[-1]}]")
        lines.append(line)
    if args.chart:
        by_workload = {}
        for s in series:
            by_workload.setdefault(s.workload, {})[s.system] = s.speedup
        for workload, curves in by_workload.items():
            lines.append("")
            lines.append(line_chart(curves, series[0].threads,
                                    title=f"{workload} speedup"))
    return "\n".join(lines)


def _table1(args) -> str:
    return format_table(["parameter", "value"],
                        [[k, v] for k, v in table1_dict().items()],
                        title="Table 1: simulated architecture")


def _table2(args) -> str:
    results = experiments.table2(args.profile, workloads=args.workloads,
                                 executor=args.executor)
    headers = ["version"] + list(results)
    depth_rows = {}
    for name, rows in results.items():
        for row in rows:
            depth_rows.setdefault(row["version"], {})[name] = row["accesses"]
    table_rows = [[version] + [cells.get(name, 0) for name in results]
                  for version, cells in depth_rows.items()]
    return format_table(headers, table_rows,
                        title="Table 2: accesses per MVM version (unbounded)")


def _claims(args) -> str:
    results = claims.check_claims(executor=args.executor)
    args._failed = not claims.all_passed(results)
    return claims.render(results)


def _capacity(args) -> str:
    """``sitm-harness capacity``: abort rate vs. capacity curves."""
    cells = experiments.capacity(args.profile, threads=args.threads,
                                 seeds=args.seeds,
                                 workloads=args.workloads,
                                 systems=args.systems,
                                 executor=args.executor)
    _export(args, export.capacity_rows(cells))
    table_rows = []
    for c in cells:
        causes = " ".join(f"{k.split('-')[0]}:{v:.0f}"
                          for k, v in c.capacity_causes.items() if v)
        table_rows.append([
            c.workload, c.system, c.limit if c.limit else "inf",
            "FAILED" if c.failed else f"{c.abort_rate:.3f}",
            f"{c.capacity_aborts:.0f}", causes or "-"])
    lines = [format_table(
        ["benchmark", "system", "limit", "abort rate", "capacity aborts",
         "by cause"],
        table_rows,
        title="Capacity sweep: abort rate vs. read/write-set bound")]
    levels: List[int] = []
    for c in cells:
        if c.limit not in levels:
            levels.append(c.limit)
    by_workload = {}
    for c in cells:
        by_workload.setdefault(c.workload, {}).setdefault(
            c.system, []).append(c.abort_rate)
    for workload, curves in by_workload.items():
        lines.append("")
        lines.append(line_chart(
            curves, levels,
            title=f"{workload}: abort rate vs. capacity "
                  f"(x = set limit in lines, 0 = unbounded)"))
    return "\n".join(lines)


def _overheads(args) -> str:
    rows = experiments.overheads()
    return format_table(
        ["bundle", "overhead @4 versions %", "worst case %",
         "bandwidth best case %"],
        [[r["bundle_lines"], f"{r['overhead_full_versions_pct']:.1f}",
          f"{r['overhead_worst_case_pct']:.1f}",
          f"{r['bandwidth_best_case_pct']:.1f}"] for r in rows],
        title="Section 3.2: MVM overhead model")


def _fuzz(args) -> str:
    from repro.oracle.fuzz import fuzz_batch, schedule_violations
    from repro.oracle.shrink import load_repro
    from repro.tm import SYSTEMS
    systems = (list(SYSTEMS) if args.backend == "all" else [args.backend])
    if args.replay:
        payload = load_repro(args.replay)
        replay_systems = payload.get("systems") or systems
        violations = schedule_violations(
            payload["schedule"], replay_systems,
            seed=payload.get("seed", args.seed),
            broken=payload.get("broken") or args.broken)
        args._failed = bool(violations)
        lines = [f"replayed {args.replay} under "
                 f"{' '.join(replay_systems)}: "
                 f"{len(violations)} violation(s)"]
        lines += [f"  {v}" for v in violations]
        if payload.get("span_log"):
            lines.append(f"span log: {payload['span_log']} "
                         f"(next to the repro)")
        if args.trace_out:
            lines.append(_replay_trace(args, payload, replay_systems))
        return "\n".join(lines)
    config_patch = None
    if args.faults:
        from repro.faults import adversarial_plan
        from repro.sim.retry import RetryPolicy
        config_patch = {
            "faults": adversarial_plan(args.seed).to_dict(),
            "retry": RetryPolicy(attempt_budget=4, stall_budget=16,
                                 starvation_age_cycles=50_000).to_dict(),
        }
    report = fuzz_batch(
        args.executor, systems, args.schedules, seed=args.seed,
        threads=args.fuzz_threads, txns=args.fuzz_txns,
        cells=args.fuzz_cells, ops=args.fuzz_ops, broken=args.broken,
        out_dir=args.fuzz_out, config_patch=config_patch)
    args._failed = not report.clean
    table = format_table(
        ["system", "schedules", "committed", "aborted", "violations"],
        [[system, row["schedules"], row["committed"], row["aborted"],
          row["violations"]]
         for system, row in report.per_system.items()],
        title=f"Isolation fuzz: {args.schedules} schedules, seed "
              f"{args.seed}" + (f", broken={args.broken}"
                                if args.broken else "")
              + (", adversarial faults" if args.faults else ""))
    if report.clean:
        return table + "\nNO ISOLATION VIOLATIONS"
    lines = [table, f"{len(report.violations)} VIOLATION(S):"]
    for system, index, violation in report.violations[:20]:
        lines.append(f"  schedule {index} [{system}] "
                     f"{violation['rule']}: {violation['detail']}")
    if len(report.violations) > 20:
        lines.append(f"  ... and {len(report.violations) - 20} more")
    if report.repro_path:
        lines.append(f"minimal repro persisted: {report.repro_path}")
    return "\n".join(lines)


def _faults(args) -> str:
    """``sitm-harness faults``: list injectable sites or run the pinned
    adversarial campaign through the isolation oracle."""
    from repro.faults import FAULT_SITES
    from repro.oracle.fuzz import fault_campaign
    from repro.tm import SYSTEMS
    if args.list:
        return format_table(
            ["site", "layer", "plan fields", "effect"],
            [[site["site"], site["layer"], site["fields"], site["effect"]]
             for site in FAULT_SITES],
            title="Injectable fault sites (FaultPlan)")
    systems = (list(SYSTEMS) if args.backend == "all" else [args.backend])
    seeds = list(range(args.seeds))
    report = fault_campaign(args.executor, systems, seeds=seeds,
                            escalation=not args.no_escalation,
                            out_dir=args.fuzz_out)
    args._failed = not report.clean
    mode = ("escalation DISABLED (expect no-progress)"
            if args.no_escalation else "escalation enabled")
    table = format_table(
        ["system", "schedules", "committed", "aborted", "violations"],
        [[system, row["schedules"], row["committed"], row["aborted"],
          row["violations"]]
         for system, row in report.per_system.items()],
        title=f"Adversarial fault campaign: {len(seeds)} seed(s) x "
              f"{len(systems)} backend(s), {mode}")
    if report.clean:
        return (table + "\nALL RUNS TERMINATED, NO ISOLATION VIOLATIONS"
                "\n(version-cap squeeze + timestamp overflow + stall "
                "storms + abort bursts + gc pauses)")
    lines = [table, f"{len(report.violations)} VIOLATION(S):"]
    for system, index, violation in report.violations[:20]:
        lines.append(f"  schedule {index} [{system}] "
                     f"{violation['rule']}: {violation['detail']}")
    if len(report.violations) > 20:
        lines.append(f"  ... and {len(report.violations) - 20} more")
    if report.repro_path:
        lines.append(f"minimal repro persisted: {report.repro_path}")
    return "\n".join(lines)


def _replay_trace(args, payload, replay_systems) -> str:
    """Re-run a repro with span telemetry and emit its Chrome trace."""
    from repro.common.errors import SimulationError
    from repro.obs import SpanRecorder, chrome_trace, write_chrome_trace
    from repro.oracle.fuzz import run_schedule
    runs = []
    name = payload["schedule"].get("name", "repro")
    for system in replay_systems:
        recorder = SpanRecorder()
        try:
            run_schedule(payload["schedule"], system,
                         seed=payload.get("seed", args.seed),
                         broken=payload.get("broken") or args.broken,
                         tracer=recorder)
        except SimulationError:
            pass  # livelocked runs still leave their partial spans
        runs.append((f"{name} [{system}]", recorder.spans))
    target = write_chrome_trace(args.trace_out, chrome_trace(runs))
    return f"Chrome trace written: {target}"


def _trace_results(args, profiling: bool = False):
    """Run the telemetry specs for --experiment and return (specs, results)."""
    system = args.backend if args.backend != "all" else "SI-TM"
    specs = experiments.trace_specs(
        args.experiment, system=system, threads=args.threads,
        seed=args.seed or 1, profile=args.profile,
        workloads=args.workloads, profiling=profiling)
    return specs, args.executor.run(specs)


def _trace(args) -> str:
    from repro.obs import Span, chrome_trace, write_chrome_trace
    specs, results = _trace_results(args)
    runs = [(str(spec),
             [Span.from_dict(row) for row in results[spec].spans or []])
            for spec in specs]
    trace = chrome_trace(runs)
    target = write_chrome_trace(args.out or "trace.json", trace)
    # --out names the trace file itself, not a text report copy
    args.out = None
    slices = sum(1 for e in trace["traceEvents"] if e["ph"] == "X")
    lines = [f"Chrome trace written: {target}",
             f"  runs (processes): {len(runs)}",
             f"  transaction slices: {slices}",
             "  open in https://ui.perfetto.dev or chrome://tracing"]
    for name, spans in runs:
        commits = sum(1 for s in spans if s.outcome == "commit")
        aborts = sum(1 for s in spans if s.outcome == "abort")
        lines.append(f"  {name}: {len(spans)} spans "
                     f"({commits} commit / {aborts} abort)")
    return "\n".join(lines)


def _metrics(args) -> str:
    from repro.obs import (Span, abort_attribution, metrics_table,
                           version_occupancy)
    if args.format == "prom":
        return _metrics_prom(args)
    specs, results = _trace_results(args)
    sections = []
    for spec in specs:
        result = results[spec]
        spans = [Span.from_dict(row) for row in result.spans or []]
        sections.append("\n".join([
            f"=== {spec} ===",
            abort_attribution(spans),
            "",
            version_occupancy(result.metrics or {}),
            "",
            metrics_table(result.metrics or {}),
        ]))
    return "\n\n".join(sections)


def _metrics_prom(args) -> str:
    """``sitm-harness metrics --format prom``: text exposition.

    A Prometheus exposition is one flat sample namespace, so it must
    come from exactly one run — ``--experiment <workload>`` (a figure
    name would emit duplicate metric families).
    """
    from repro.obs import prometheus_exposition
    specs, results = _trace_results(args)
    if len(specs) != 1:
        raise ConfigError(
            "--format prom needs exactly one run; pass --experiment "
            "<workload> (a figure name expands to "
            f"{len(specs)} workloads)")
    result = results[specs[0]]
    if getattr(result, "failed", False):
        raise ConfigError(f"telemetry run failed: {result.message}")
    # exposition only: no table wrapper, scrape-ready on stdout
    return prometheus_exposition(result.metrics or {}).rstrip("\n")


def _blame(args) -> str:
    """``sitm-harness blame``: killer→victim abort attribution.

    Runs the same telemetry specs as ``trace``/``metrics``, builds the
    conflict-provenance report for each, and renders the wasted-work
    Pareto ledger.  ``--dot``/``--json`` export the merged
    killer→victim graph for Graphviz / machine consumption.
    """
    import json as json_module
    from repro.obs import (Span, blame_table, build_provenance,
                           merge_provenance)
    specs, results = _trace_results(args)
    sections = []
    reports = []
    for spec in specs:
        spans = [Span.from_dict(row) for row in results[spec].spans or []]
        report = build_provenance(spans)
        reports.append(report)
        sections.append(f"=== {spec} ===\n"
                        + blame_table(report, top=args.top))
    merged = merge_provenance(reports)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(merged.to_dot())
        sections.append(f"conflict graph (DOT) written: {args.dot}")
    if args.json:
        document = {"runs": {str(spec): report.to_dict()
                             for spec, report in zip(specs, reports)},
                    "merged": merged.to_dict()}
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json_module.dumps(document, sort_keys=True,
                                           indent=2) + "\n")
        sections.append(f"provenance report (JSON) written: {args.json}")
        # --json names the provenance export, not a figure-row dump
        args.json = None
    return "\n\n".join(sections)


def _profile(args) -> str:
    from repro.obs import (Span, collapsed_stacks, conflict_heatmap,
                           phase_table)
    specs, results = _trace_results(args, profiling=True)
    sections = []
    stacks = []
    for spec in specs:
        result = results[spec]
        spans = [Span.from_dict(row) for row in result.spans or []]
        snapshot = result.phases or {}
        sections.append("\n".join([
            f"=== {spec} ===",
            phase_table(snapshot),
            "",
            conflict_heatmap(spans, snapshot),
        ]))
        if args.stacks:
            stacks.append(collapsed_stacks(snapshot, root=str(spec)))
    report = "\n\n".join(sections)
    if args.stacks:
        # each block already ends with a newline (one line per stack)
        with open(args.stacks, "w", encoding="utf-8") as handle:
            handle.write("".join(stacks))
        report += (f"\n\ncollapsed stacks written: {args.stacks} "
                   f"(render with flamegraph.pl or speedscope)")
    return report


def _watch(args) -> str:
    """``sitm-harness watch``: run a telemetry grid under live view.

    Builds the watch specs (telemetry on, so every cell streams window
    aggregates, alerts and lifecycle events), wires a
    :class:`~repro.obs.monitor.CampaignMonitor` — plus an optional
    ``--series-out`` JSONL sink — into the executor, and runs.  The
    live view goes to stdout while the grid executes (full-screen when
    interactive, status lines under ``--headless``/redirection); the
    returned report is the final rendered view.
    """
    from repro.obs import CampaignMonitor, TimeSeriesWriter
    system = args.backend if args.backend != "all" else "SI-TM"
    specs = experiments.watch_specs(
        args.experiment, system=system, threads=args.threads,
        seeds=args.seeds, profile=args.profile,
        workloads=args.workloads)
    if args.crash_cell:
        import dataclasses
        from repro.faults import FaultPlan
        # one deliberately doomed cell (SIGKILL at its 5th begin) on a
        # reserved seed: demonstrates quarantine + the flight recorder;
        # the invocation exits non-zero like any grid with failures
        specs = specs + [dataclasses.replace(
            specs[0], seed=97, faults=FaultPlan(crash_at_begin=5))]
        if args.executor.jobs == 1:
            # the executor already routes crash faults to a sacrificial
            # worker; two workers keep the healthy cells flowing while
            # the doomed one dies
            args.executor.jobs = 2
    headless = args.headless or not sys.stdout.isatty()
    monitor = CampaignMonitor(
        total=len(specs), stream=sys.stdout,
        style="line" if headless else "screen",
        interval=1.0 if headless else 0.25)
    writer = (TimeSeriesWriter(args.series_out)
              if args.series_out else None)

    def sink(event: dict) -> None:
        if writer is not None:
            writer(event)
        monitor.handle(event)

    args.executor.monitor = sink
    try:
        args.executor.run(specs)
    finally:
        if writer is not None:
            writer.close()
        monitor.stream = None  # the final view goes via the report path
    lines = [monitor.render()]
    if writer is not None:
        lines.append(f"time series written: {args.series_out} "
                     f"({writer.rows_written} rows)")
    return "\n".join(lines)


def _cache(args) -> str:
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        return f"cache cleared: {removed} entries removed from {cache.root}"
    stats = cache.stats()
    return format_table(
        ["property", "value"],
        [["location", stats["root"]],
         ["entries", stats["entries"]],
         ["size (KB)", stats["bytes"] // 1024],
         ["current code", stats["current_code"]],
         ["stale (old code)", stats["stale"]]],
        title="Experiment result cache")


#: case-insensitive backend spellings -> canonical system names, so the
#: CLI accepts `--backend sitm` as well as the registry's `SI-TM`
_BACKEND_ALIASES = {
    "2pl": "2PL", "sontm": "SONTM", "sitm": "SI-TM", "si-tm": "SI-TM",
    "ssi": "SSI-TM", "ssitm": "SSI-TM", "ssi-tm": "SSI-TM",
    "logtm": "LogTM", "hybrid": "HybridHTM", "hybridhtm": "HybridHTM",
    "hybrid-htm": "HybridHTM", "all": "all",
}


def _backend(name: str) -> str:
    """argparse type hook normalising backend aliases (sitm -> SI-TM)."""
    canon = _BACKEND_ALIASES.get(name.lower().replace("_", "-"))
    if canon is None:
        raise argparse.ArgumentTypeError(
            f"unknown backend {name!r}; known: "
            + " ".join(sorted(set(_BACKEND_ALIASES.values()))))
    return canon


def _system(name: str) -> str:
    """Like :func:`_backend` but for --systems lists: no 'all' wildcard."""
    canon = _backend(name)
    if canon == "all":
        raise argparse.ArgumentTypeError(
            "--systems takes explicit system names; "
            "'all' is only meaningful for --backend")
    return canon


_COMMANDS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "table1": _table1,
    "table2": _table2,
    "overheads": _overheads,
    "claims": _claims,
}


def build_parser() -> argparse.ArgumentParser:
    """The harness argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="sitm-harness",
        description="Regenerate the SI-TM paper's figures and tables.")
    parser.add_argument("command",
                        choices=list(_COMMANDS) + ["capacity", "trace",
                                                   "metrics", "profile",
                                                   "blame", "cache",
                                                   "fuzz", "faults",
                                                   "watch", "all"])
    parser.add_argument("--profile", default="quick",
                        choices=("test", "quick", "full"))
    parser.add_argument("--threads", type=int, default=16,
                        help="thread count for fig1/trace/metrics")
    parser.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                        help="independent seeds per cell (default "
                             f"{DEFAULT_SEEDS} for quick runs; the paper "
                             f"averages {PAPER_SEEDS})")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these workloads")
    parser.add_argument("--systems", nargs="*", default=None,
                        type=_system,
                        help="systems for fig7/fig8 (default: the paper's "
                             "three; add SSI-TM to measure the extension; "
                             "case-insensitive aliases like 'sitm' "
                             "accepted)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid experiments "
                             "(1 = serial, 0 = one per CPU)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECS",
                        help="per-spec wall-clock budget in pool mode "
                             "(--jobs > 1): a spec exceeding it has its "
                             "worker killed and is retried in isolation, "
                             "then quarantined as a FAILED cell "
                             "(default: no timeout)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute every run, overwriting the cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location (default "
                             "results/.cache, or $SITM_CACHE_DIR)")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    parser.add_argument("--chart", action="store_true",
                        help="fig8: also draw ASCII speedup charts")
    parser.add_argument("--csv", default=None,
                        help="fig1/fig7/fig8/capacity: write rows to "
                             "this CSV file")
    parser.add_argument("--json", default=None,
                        help="fig1/fig7/fig8/capacity: write rows to "
                             "this JSON file; blame: write the "
                             "provenance report there instead")
    parser.add_argument("--clear", action="store_true",
                        help="cache: delete every entry")
    parser.add_argument("--list", action="store_true",
                        help="faults: enumerate injectable fault sites "
                             "instead of running the campaign")
    parser.add_argument("--no-escalation", action="store_true",
                        help="faults: run the campaign with golden-token "
                             "escalation disabled (demonstrates the "
                             "livelock the retry policy exists to break; "
                             "exits non-zero)")
    parser.add_argument("--faults", action="store_true",
                        help="fuzz: apply the pinned adversarial fault "
                             "plan + retry policy to every generated "
                             "schedule")
    parser.add_argument("--stats", action="store_true",
                        help="cache: print entry counts (the default)")
    parser.add_argument("--backend", default="all", type=_backend,
                        choices=("2PL", "SONTM", "SI-TM", "SSI-TM",
                                 "LogTM", "HybridHTM", "all"),
                        help="trace/metrics/profile: system to telemeter "
                             "(default SI-TM); fuzz: backend(s) to "
                             "cross-check; case-insensitive aliases like "
                             "'sitm' accepted")
    parser.add_argument("--format", default="text",
                        choices=("text", "prom"),
                        help="metrics: report format — text tables or "
                             "Prometheus exposition (prom needs "
                             "--experiment <workload>)")
    parser.add_argument("--progress", action="store_true",
                        help="grid commands: print periodic one-line "
                             "status (done/running/cached/failed, ETA) "
                             "to stderr — the non-TTY/CI companion of "
                             "'watch'")
    parser.add_argument("--headless", action="store_true",
                        help="watch: line-mode status output instead of "
                             "the full-screen view (implied when stdout "
                             "is not a TTY)")
    parser.add_argument("--series-out", default=None,
                        help="watch: persist the streamed window/alert "
                             "events as a time-series JSONL artifact "
                             "(docs/timeseries-schema.md)")
    parser.add_argument("--crash-cell", action="store_true",
                        help="watch: append one deliberately crashing "
                             "cell to demonstrate quarantine + the "
                             "flight recorder (exits non-zero)")
    parser.add_argument("--stacks", default=None,
                        help="profile: write collapsed flamegraph stacks "
                             "to this file")
    parser.add_argument("--top", type=int, default=None,
                        help="blame: show only the N worst "
                             "(killer, victim) pairs in the Pareto table")
    parser.add_argument("--dot", default=None,
                        help="blame: write the merged killer→victim "
                             "conflict graph as Graphviz DOT to this file")
    parser.add_argument("--experiment", default="figure7",
                        help="trace/metrics: figure1/figure7/figure8 "
                             "(that figure's workload set) or one "
                             "workload name")
    parser.add_argument("--schedules", type=int, default=50,
                        help="fuzz: number of randomized schedules")
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzz: root seed (schedules are a pure "
                             "function of it)")
    parser.add_argument("--fuzz-threads", type=int, default=3,
                        help="fuzz: simulated threads per schedule")
    parser.add_argument("--fuzz-txns", type=int, default=2,
                        help="fuzz: transactions per thread")
    parser.add_argument("--fuzz-cells", type=int, default=4,
                        help="fuzz: shared cells (one line each)")
    parser.add_argument("--fuzz-ops", type=int, default=3,
                        help="fuzz: max operations per transaction")
    parser.add_argument("--fuzz-out", default=None,
                        help="fuzz: repro output directory (default "
                             "results/fuzz, or $SITM_FUZZ_DIR)")
    parser.add_argument("--broken", default=None,
                        choices=("no-ww", "no-lock"),
                        help="fuzz: deliberately break a backend "
                             "(oracle self-test hook): no-ww disables "
                             "SI-TM's write-write validation, no-lock "
                             "un-serializes HybridHTM's fallback")
    parser.add_argument("--replay", default=None,
                        help="fuzz: re-check a persisted repro or "
                             "schedule JSON instead of generating")
    parser.add_argument("--trace-out", default=None,
                        help="fuzz --replay: also re-run the repro with "
                             "span telemetry and write a Chrome trace "
                             "to this file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = one per CPU)")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    args._failed = False
    args.executor = Executor(jobs=args.jobs, cache=not args.no_cache,
                             refresh=args.refresh,
                             cache_dir=args.cache_dir,
                             timeout=args.timeout)
    if args.progress and args.command != "watch":
        # CI-friendly heartbeat: one-line campaign status on stderr,
        # fed by the same event stream the watch view consumes
        from repro.obs import CampaignMonitor
        args.executor.monitor = CampaignMonitor(
            stream=sys.stderr, style="line", prefix="[progress]")
    try:
        if args.command == "all":
            report = "\n\n".join(fn(args) for fn in _COMMANDS.values())
        elif args.command == "cache":
            report = _cache(args)
        elif args.command == "capacity":
            report = _capacity(args)
        elif args.command == "fuzz":
            report = _fuzz(args)
        elif args.command == "faults":
            report = _faults(args)
        elif args.command == "watch":
            report = _watch(args)
        elif args.command == "trace":
            report = _trace(args)
        elif args.command == "metrics":
            report = _metrics(args)
        elif args.command == "profile":
            report = _profile(args)
        elif args.command == "blame":
            report = _blame(args)
        else:
            report = _COMMANDS[args.command](args)
    except ConfigError as exc:
        # unknown experiment/backend/workload names are user errors:
        # one line on stderr, no traceback
        print(f"sitm-harness {args.command}: error: {exc}",
              file=sys.stderr)
        return 2
    counters = args.executor.counters()
    if counters["runs"]:
        # stdout only: archived --out reports must not embed run-specific
        # cache counters
        print(report + (
            "\n\n[executor] jobs={jobs} runs={runs} "
            "cache-hits={cache_hits} cache-misses={cache_misses} "
            "hit-rate={pct:.0f}%".format(
                pct=100.0 * counters["hit_rate"], **counters)))
    else:
        print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    failures = args.executor.failures
    if failures:
        # quarantined specs: the grid completed around them, but the
        # invocation must not pretend everything ran
        print(f"\n[failures] {len(failures)} spec(s) quarantined:")
        for failure in failures:
            print(f"  {failure.spec} [{failure.kind}] after "
                  f"{failure.attempts} attempt(s): {failure.message}")
            if failure.flight:
                print(f"    flight recorder: {failure.flight}")
        return 1
    # a violation found, or a claim of the paper that did not hold
    return 1 if args._failed else 0


if __name__ == "__main__":
    sys.exit(main())
