#!/usr/bin/env python3
"""perfbench runner: ``python perfbench/run.py [--workload NAME] ...``.

With ``--workload`` it runs that workload in this interpreter and ends
with one JSON line (the driver contract in ``BENCHMARK.json``).  Without
it, it runs every workload one after another, each in a fresh
interpreter, and can write the combined ledger.

``--trace 0`` (default) measures the end-to-end metrics with no wrapper
installed; ``--trace 1`` adds a traced pass and reports the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a checkout "
             f"of the repository")
# this file's directory is sys.path[0]; the package is importable from ROOT
sys.path[0:1] = [str(ROOT), str(SRC)]

from perfbench.hostclock import HostClock  # noqa: E402

IMPORT_PROBES = 3
#: seeds per workload in a ``--repeat`` set, as many as the driver runs
RUNS = 10


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_head() -> str:
    """``git rev-parse HEAD`` of this checkout; git may not look above it
    (the benchmark reads nothing outside its checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_seconds(modules) -> float:
    """Median host-normalised cold-import time of ``modules`` in fresh
    interpreters."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); import {', '.join(modules)}; "
            f"print(time.perf_counter() - t)")
    host = HostClock()
    host.read()
    return median([
        host.nominal(float(subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True).stdout))
        for _ in range(IMPORT_PROBES)])


def run_workload(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(names)}")
    # every artifact the program may write goes to a temp directory, and
    # that inside the checkout: the benchmark may write nowhere else
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench_tmp-",
                                            dir=ROOT))
    for env in ("SITM_CACHE_DIR", "SITM_BENCH_DIR", "SITM_FLIGHT_DIR",
                "SITM_FUZZ_DIR"):
        os.environ[env] = str(workdir / env.lower())
    try:
        if args.workload.startswith("sim_"):
            from perfbench import sim as module
        else:
            from perfbench import store as module
        out = module.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
        import_s = import_seconds(out["imports"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gated = dict(out["gated"])
    gated["setup_s"] = import_s + median(out["setup_samples"])
    gated["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    info = dict(out["info"])
    info["import_s"] = (import_s, "s")
    info["failed_share"] = (out["failed"] / max(1, out["attempted"]),
                            "ratio")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out["per_layer"] if args.trace else gated
    metrics = {}
    for metric in declared:
        # a layer the workload never enters reports zero work
        value = values.get(metric["name"], 0 if args.trace else None)
        if value is None:
            out["problems"].append(f"metric {metric['name']} not measured")
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not out["problems"] and out["failed"] == 0

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "nproc": os.cpu_count(),
               "python": platform.python_version(), "git": git_head()}
    print("# perfbench " + " ".join(f"{k}={v}" for k, v in context.items()))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, (value, unit) in sorted(info.items()):
        print(f"  {name:38s} {value:>16.6g} {unit}  (not gated)")
    for problem in out["problems"][:20]:
        print(f"PROBLEM: {problem}")
    print("#details " + json.dumps({
        "context": context, "problems": out["problems"][:20],
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()}},
        sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int,
              echo: bool = True) -> dict:
    """One workload in a fresh interpreter; returns its parsed result."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench: {workload} printed no result "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    for line in lines:
        if line.startswith("#details "):
            result.update(json.loads(line[len("#details "):]))
    return result


def write_json(path: str, data: dict) -> None:
    pathlib.Path(path).write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    ledger = {"workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry = ledger["workloads"][workload] = {}
        for trace in ((0, 1) if args.trace else (0,)):
            result = run_child(workload, args.seed, args.seconds, trace)
            status = status or result["exit"]
            ledger["context"] = dict(result["context"], workload=None,
                                     trace=args.trace)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry.setdefault("info", {}).update(result["info"])
            entry["correct"] = (entry.get("correct", True)
                                and result["correct"])
    if args.ledger:
        write_json(args.ledger, ledger)
    return status


#: per-layer and informational values that must repeat exactly for a seed
EXACT = ("sim.stat_checksum", "sim.commits", "sim.aborts",
         "sim.makespan_cycles", "sitm_abort_ratio")


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def collect_set(spec: dict, workloads: list, args: argparse.Namespace,
                tag: str) -> dict:
    """One set: every workload on :data:`RUNS` seeds untraced, plus one
    traced run for the exact counts."""
    current = {}
    for workload in workloads:
        runs = [run_child(workload, seed, args.seconds, 0, echo=False)
                for seed in range(args.seed, args.seed + RUNS)]
        traced = run_child(workload, args.seed, args.seconds, 1, echo=False)
        for run in runs + [traced]:
            head = (f"# {tag}: {workload} seed {run['context']['seed']} "
                    f"trace {run['context']['trace']}:")
            for problem in run["problems"]:
                print(head, problem)
            if run is not traced:
                print(head, " ".join(
                    f"{name}={m['value']:.5g}" for name, m in
                    {**run["metrics"], "host_slowdown":
                     run["info"]["host_slowdown"]}.items()), flush=True)
        current[workload] = {
            "values": {m["name"]: [r["metrics"][m["name"]]["value"]
                                   for r in runs]
                       for m in spec["end_to_end"]},
            "exact": {name: m["value"] for name, m in
                      {**traced["metrics"], **runs[0]["info"]}.items()
                      if name in EXACT},
            "correct": all(r["correct"] for r in runs + [traced]),
        }
    return current


def judge(spec: dict, sets: list) -> bool:
    """Print the sets metric by metric and judge them as the driver does.

    A metric passes when its spread within each set (``setup_s``
    excepted) and the worsening of the median from the first set to any
    later one both stay within its bound; exact counts must be equal and
    every run correct.
    """
    ok = True
    print(f"{'workload':18s} {'metric':16s} {'bound':>6s} "
          + " ".join(f"{'median' + str(i + 1):>12s} {'spread':>7s}"
                     for i in range(len(sets))) + f" {'worse':>7s}")
    for workload in sets[0]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            columns = [later[workload]["values"][name] for later in sets]
            medians = [median(c) for c in columns]
            spreads = [spread(c) for c in columns]
            worse = max([sign * (m - medians[0]) / medians[0]
                         for m in medians[1:]] or [0.0])
            passed = worse <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            ok = ok and passed
            print(f"{workload:18s} {name:16s} {bound:6.2f} "
                  + " ".join(f"{m:12.6g} {s:7.3f}"
                             for m, s in zip(medians, spreads))
                  + f" {worse:7.3f}" + ("" if passed else "  FAIL"))
        first = sets[0][workload]["exact"]
        for later in sets[1:]:
            if later[workload]["exact"] != first:
                ok = False
                print(f"{workload:18s} exact counts differ: {first} vs "
                      f"{later[workload]['exact']}  FAIL")
        if not all(s[workload]["correct"] for s in sets):
            ok = False
            print(f"{workload:18s} a run reported a correctness failure"
                  f"  FAIL")
    print("repeat check: " + ("PASS" if ok else "FAIL"))
    return ok


def run_repeat(args: argparse.Namespace) -> int:
    """``--repeat N``: N back-to-back sets, judged against the bounds."""
    spec = benchmark_spec()
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    sets = [collect_set(spec, workloads, args, f"set {index + 1}")
            for index in range(args.repeat)]
    if args.ledger:
        write_json(args.ledger, {"seconds": args.seconds, "sets": sets})
    return 0 if judge(spec, sets) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: add the traced per-layer pass")
    parser.add_argument("--ledger", default=None,
                        help="write all workloads' results, or with "
                             "--repeat every set's, to this JSON file")
    parser.add_argument("--repeat", type=int, default=0, metavar="SETS",
                        help=f"run SETS back-to-back sets of {RUNS} seeds "
                             f"and compare them against the bounds in "
                             f"BENCHMARK.json")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.repeat:
        return run_repeat(args)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
