"""Benchmark suites and the ``BENCH_*.json`` artifact format.

A **suite** is a pinned grid of simulation cells (workload, system,
threads) run over fixed seeds at a fixed workload profile — pinned so
that two artifacts produced from the same code are byte-identical in
their deterministic section, and two artifacts produced from different
code versions measure the same work.

An **artifact** separates metrics by trust level:

* ``deterministic`` — per-cell throughput, abort rate, commit/abort
  counts, makespan, and per-phase cycle shares from the profiler.
  These are pure functions of (code, suite); any change between two
  artifacts is a real behavioural change, so the comparator *gates* on
  them (with seed-stddev-aware tolerances for the seed-averaged ones).
* ``advisory`` — wall-clock seconds and executor cache-hit rate.
  These measure the host machine and cache state, not the simulator;
  the comparator only *warns* on them.

The schema is versioned (``schema``/``schema_version`` fields);
``docs/bench-schema.md`` documents the layout and the rules for
bumping the version.  :func:`validate_artifact` checks an artifact
against the schema without any external dependency.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SimConfig, TMConfig
from repro.common.errors import ConfigError
from repro.harness.executor import Executor, code_fingerprint, \
    serial_executor
from repro.harness.spec import ExperimentSpec
from repro.sim.retry import RetryPolicy

__all__ = ["SCHEMA", "SCHEMA_VERSION", "BENCH_DIR_ENV",
           "DEFAULT_BENCH_DIR", "SUITES", "BenchSuite", "artifact_path",
           "load_artifact", "run_bench", "save_artifact",
           "validate_artifact"]

#: artifact format identifier
SCHEMA = "sitm-bench"
#: bump on any breaking layout change (see docs/bench-schema.md)
SCHEMA_VERSION = 1

#: committed artifact location, relative to the repository root / CWD
DEFAULT_BENCH_DIR = pathlib.Path("results") / "bench"
#: environment override for the artifact location (test isolation)
BENCH_DIR_ENV = "SITM_BENCH_DIR"


@dataclass(frozen=True)
class BenchSuite:
    """A pinned grid of bench cells: the unit two artifacts can compare.

    Cells are ``(workload, system, threads)`` triples; every cell runs
    ``seeds`` consecutive seeds (from 1) at workload ``profile``.
    ``config`` optionally pins a non-default simulation config for the
    whole suite (the capacity suite bounds the read/write sets); the
    default ``None`` keeps every pre-existing suite's spec hashes — and
    therefore its artifact history — untouched.
    """

    name: str
    cells: Tuple[Tuple[str, str, int], ...]
    seeds: int = 2
    profile: str = "test"
    config: Optional[SimConfig] = None

    def specs(self) -> List[ExperimentSpec]:
        """The suite's full spec list, profiling enabled, in grid order."""
        return [ExperimentSpec(workload, system, threads, seed,
                               self.profile, self.config, profiling=True)
                for workload, system, threads in self.cells
                for seed in range(1, self.seeds + 1)]


#: the pinned suites; changing a suite's composition invalidates its
#: comparison history, so extend by adding new suites, not editing these
SUITES: Dict[str, BenchSuite] = {
    # minimal, for tests and docs examples
    "smoke": BenchSuite("smoke", (
        ("rbtree", "SI-TM", 4),
    ), seeds=2, profile="test"),
    # the CI perf gate: paper systems + the contended/structured extremes
    "quick": BenchSuite("quick", (
        ("rbtree", "SI-TM", 8),
        ("rbtree", "2PL", 8),
        ("array", "SI-TM", 8),
        ("list", "SONTM", 4),
    ), seeds=2, profile="test"),
    # the flat-loop refactor's simulated-behaviour pin (ISSUE 6): high
    # thread counts, where run() bursts are longest; the host-side
    # dispatch measurement lives in the artifact's advisory section
    # (see repro.perf.micro)
    "flat_loop": BenchSuite("flat_loop", (
        ("array", "SI-TM", 32),
        ("rbtree", "SI-TM", 32),
        ("rbtree", "2PL", 32),
    ), seeds=2, profile="test"),
    # the capacity-bounds pin (CI perf-smoke cell): tight read/write-set
    # limits with escalation-based termination, plus the hybrid backend
    # running on its own built-in bounds and lock fallback
    "capacity": BenchSuite("capacity", (
        ("list", "2PL", 4),
        ("list", "HybridHTM", 4),
        ("rbtree", "HybridHTM", 8),
    ), seeds=2, profile="test", config=SimConfig(
        tm=TMConfig(read_set_limit=8, write_set_limit=8),
        retry=RetryPolicy(attempt_budget=4, stall_budget=16,
                          starvation_age_cycles=50_000))),
    # broader sweep for manual before/after studies
    "full": BenchSuite("full", (
        ("rbtree", "2PL", 8),
        ("rbtree", "SONTM", 8),
        ("rbtree", "SI-TM", 8),
        ("rbtree", "SSI-TM", 8),
        ("rbtree", "LogTM", 8),
        ("array", "2PL", 8),
        ("array", "SI-TM", 8),
        ("list", "2PL", 4),
        ("list", "SI-TM", 4),
        ("genome", "SI-TM", 8),
        ("intruder", "SI-TM", 8),
    ), seeds=3, profile="quick"),
}


def _cell_key(workload: str, system: str, threads: int) -> str:
    return f"{workload}/{system}/t{threads}"


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _rel_stddev(values: Sequence[float]) -> float:
    mean = _mean(values)
    if not mean:
        return 0.0
    variance = _mean([(v - mean) ** 2 for v in values])
    return math.sqrt(variance) / mean


def _stddev(values: Sequence[float]) -> float:
    mean = _mean(values)
    variance = _mean([(v - mean) ** 2 for v in values])
    return math.sqrt(variance)


def _merged_phase_shares(snapshots: Sequence[dict]) -> Dict[str, float]:
    """Phase shares over the summed per-phase cycles of several runs."""
    totals: Dict[str, int] = {}
    for snapshot in snapshots:
        for phases in snapshot.get("threads", {}).values():
            for phase, entry in phases.items():
                totals[phase] = totals.get(phase, 0) + entry["cycles"]
    grand = sum(totals.values())
    if not grand:
        return {}
    return {phase: totals[phase] / grand for phase in sorted(totals)}


def run_bench(suite: BenchSuite, label: str,
              executor: Optional[Executor] = None) -> dict:
    """Run ``suite`` through ``executor`` and build a BENCH artifact.

    The deterministic section is a pure function of (code, suite); the
    advisory section records this invocation's wall clock and cache-hit
    rate.  The executor's counters are read as a delta around this run
    so a shared executor reports the bench's own hit rate.
    """
    executor = executor if executor is not None else serial_executor()
    specs = suite.specs()
    hits0 = executor.hits
    misses0 = executor.misses
    started = time.monotonic()
    results = executor.run(specs)
    wall_clock = time.monotonic() - started
    lookups = (executor.hits - hits0) + (executor.misses - misses0)
    hit_rate = (executor.hits - hits0) / lookups if lookups else 0.0

    deterministic: Dict[str, dict] = {}
    for workload, system, threads in suite.cells:
        runs = [results[ExperimentSpec(workload, system, threads, seed,
                                       suite.profile, suite.config,
                                       profiling=True)]
                for seed in range(1, suite.seeds + 1)]
        throughputs = [r.throughput for r in runs]
        abort_rates = [r.abort_rate for r in runs]
        deterministic[_cell_key(workload, system, threads)] = {
            "throughput": _mean(throughputs),
            "throughput_rel_stddev": _rel_stddev(throughputs),
            "abort_rate": _mean(abort_rates),
            "abort_rate_stddev": _stddev(abort_rates),
            "commits": _mean([r.commits for r in runs]),
            "aborts": _mean([r.aborts for r in runs]),
            "makespan_cycles": _mean([r.makespan_cycles for r in runs]),
            "phase_shares": _merged_phase_shares(
                [r.phases for r in runs if r.phases]),
        }
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "suite": suite.name,
        "profile": suite.profile,
        "seeds": suite.seeds,
        "code_fingerprint": code_fingerprint(),
        "deterministic": deterministic,
        "advisory": {
            "wall_clock_s": round(wall_clock, 3),
            "cache_hit_rate": round(hit_rate, 4),
        },
    }


#: required numeric fields in every deterministic cell
_CELL_FIELDS = ("throughput", "throughput_rel_stddev", "abort_rate",
                "abort_rate_stddev", "commits", "aborts",
                "makespan_cycles")


def validate_artifact(artifact: dict) -> List[str]:
    """Validate a BENCH artifact; returns a list of errors (empty = OK).

    Hand-rolled (no jsonschema dependency): checks the schema marker,
    version, top-level layout, and the shape of every deterministic
    cell and the advisory block.
    """
    errors: List[str] = []
    if not isinstance(artifact, dict):
        return ["artifact is not a JSON object"]
    if artifact.get("schema") != SCHEMA:
        errors.append(f"schema is {artifact.get('schema')!r}, "
                      f"expected {SCHEMA!r}")
    version = artifact.get("schema_version")
    if not isinstance(version, int):
        errors.append("schema_version missing or not an integer")
    elif version > SCHEMA_VERSION:
        errors.append(f"schema_version {version} is newer than this "
                      f"code understands ({SCHEMA_VERSION})")
    for key in ("label", "suite", "profile"):
        if not isinstance(artifact.get(key), str):
            errors.append(f"{key} missing or not a string")
    if not isinstance(artifact.get("seeds"), int):
        errors.append("seeds missing or not an integer")
    if not isinstance(artifact.get("code_fingerprint"), str):
        errors.append("code_fingerprint missing or not a string")
    cells = artifact.get("deterministic")
    if not isinstance(cells, dict) or not cells:
        errors.append("deterministic missing, not an object, or empty")
    else:
        for key, cell in cells.items():
            if not isinstance(cell, dict):
                errors.append(f"cell {key!r} is not an object")
                continue
            for field in _CELL_FIELDS:
                if not isinstance(cell.get(field), (int, float)):
                    errors.append(f"cell {key!r}: {field} missing or "
                                  f"not a number")
            shares = cell.get("phase_shares")
            if not isinstance(shares, dict):
                errors.append(f"cell {key!r}: phase_shares missing or "
                              f"not an object")
            elif shares and abs(sum(shares.values()) - 1.0) > 1e-6:
                errors.append(f"cell {key!r}: phase_shares sum to "
                              f"{sum(shares.values()):.6f}, not 1 "
                              f"(conservation violated)")
    advisory = artifact.get("advisory")
    if not isinstance(advisory, dict):
        errors.append("advisory missing or not an object")
    else:
        for field in ("wall_clock_s", "cache_hit_rate"):
            if not isinstance(advisory.get(field), (int, float)):
                errors.append(f"advisory.{field} missing or not a number")
    return errors


def bench_dir(out_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Artifact directory: explicit arg, env override, or the default."""
    env = os.environ.get(BENCH_DIR_ENV)
    return pathlib.Path(out_dir or env or DEFAULT_BENCH_DIR)


def artifact_path(label: str,
                  out_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Path of the artifact named ``label``."""
    return bench_dir(out_dir) / f"BENCH_{label}.json"


def save_artifact(artifact: dict,
                  out_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Write ``artifact`` as ``BENCH_<label>.json``; returns the path."""
    errors = validate_artifact(artifact)
    if errors:
        raise ConfigError("refusing to save invalid bench artifact: "
                          + "; ".join(errors))
    path = artifact_path(artifact["label"], out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load_artifact(path: os.PathLike) -> dict:
    """Load and validate an artifact; raises ConfigError when invalid."""
    path = pathlib.Path(path)
    try:
        artifact = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read bench artifact {path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"bench artifact {path} is not JSON: {exc}")
    errors = validate_artifact(artifact)
    if errors:
        raise ConfigError(f"bench artifact {path} is invalid: "
                          + "; ".join(errors))
    return artifact
