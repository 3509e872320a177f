"""Deterministic schedule fuzzing across every TM backend.

A **schedule** is a small JSON document describing per-thread transaction
mixes over a handful of MVM cells (one cache line each)::

    {"name": "...", "initial": [5, 0, 7],
     "threads": [[{"label": "t0.0", "ops": [["a", 0, 3], ["r", 1]]}], ...],
     "config": {"mvm": {"max_versions": 2}}}        # optional patch

Operations: ``["r", cell]`` read, ``["w", cell, value]`` blind write,
``["a", cell, delta]`` read-modify-write add, ``["c", n]`` compute.

:func:`generate_schedule` derives randomized schedules from a seed
(pure function of ``(seed, index, shape)``), :func:`run_schedule` runs
one schedule under one backend with a
:class:`~repro.sim.history.HistoryRecorder` attached, and
:class:`FuzzSpec` packages a single (schedule, system) cell in the same
canonical-JSON shape as :class:`~repro.harness.spec.ExperimentSpec`, so
fuzz batches fan out across the harness executor's process pool and
land in its content-addressed cache.  :func:`fuzz_batch` drives the
whole campaign: every schedule through every backend, each history
checked against its declared isolation level, final states compared
differentially across backends, and the first violation shrunk
(:mod:`repro.oracle.shrink`) and persisted as a minimal JSON repro.

Two cross-cutting invariants make the differential comparison sound even
though final values of blindly written cells depend on commit order:

* **add-only cells** (touched only by commutative ``["a", ...]`` ops)
  must reach ``initial + sum(deltas)`` in *every* backend, because the
  engine retries each transaction until it commits — any deviation is a
  lost update, the signature anomaly of a broken SI implementation;
* consequently all backends must agree exactly on add-only cells, which
  :func:`fuzz_batch` checks pairwise from the cached per-run results.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.rng import SplitRandom, derive_seed
from repro.oracle.checker import Violation, check_history
from repro.sim.history import History, HistoryRecorder
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.machine import Machine
from repro.tm import SYSTEMS
from repro.tm.ops import Compute, Read, Write

#: default location for persisted fuzz repros
DEFAULT_FUZZ_DIR = os.path.join("results", "fuzz")
#: environment override for the repro location
FUZZ_DIR_ENV = "SITM_FUZZ_DIR"


# ----------------------------------------------------------------------
# schedule generation

def generate_schedule(seed: int, index: int, threads: int = 3,
                      txns: int = 2, cells: int = 4,
                      ops: int = 3) -> dict:
    """Derive one randomized schedule: a pure function of its arguments.

    Cells are split into *counter* cells (targets of add ops only, so
    their final value is order-independent) and *scratch* cells (blind
    writes and write-skew shapes); reads may target anything.
    """
    rng = SplitRandom(derive_seed(seed, "fuzz", index, threads, txns,
                                  cells, ops))
    counters = max(1, (cells + 1) // 2)
    scratch = list(range(counters, cells))
    initial = [rng.randrange(0, 50) for _ in range(cells)]
    uniq = iter(range(10_000, 10_000 + 100_000, 7))
    patterns = ["increment", "transfer", "scan", "blind", "skew"]
    weights = [3, 2, 2, 1 if scratch else 0, 2 if scratch else 0]
    thread_programs = []
    for t in range(threads):
        program = []
        for j in range(txns):
            kind = rng.weighted_choice(patterns, weights)
            body: List[list] = []
            if kind == "increment":
                for cell in rng.sample(range(counters),
                                       min(rng.randrange(1, 3), counters)):
                    body.append(["a", cell, rng.randrange(1, 10)])
            elif kind == "transfer" and counters >= 2:
                src, dst = rng.sample(range(counters), 2)
                amount = rng.randrange(1, 10)
                body.append(["a", src, -amount])
                body.append(["a", dst, amount])
            elif kind == "scan":
                for cell in rng.sample(range(cells),
                                       min(max(2, ops), cells)):
                    body.append(["r", cell])
                if rng.random() < 0.5:
                    body.append(["c", rng.randrange(1, 4)])
            elif kind == "blind":
                body.append(["w", rng.choice(scratch), next(uniq)])
            elif kind == "skew" and len(scratch) >= 2:
                a, b = rng.sample(scratch, 2)
                body.append(["r", a])
                body.append(["r", b])
                if rng.random() < 0.5:
                    body.append(["c", rng.randrange(1, 3)])
                body.append(["w", rng.choice([a, b]), next(uniq)])
            if not body:  # degenerate shape fallback: a counter bump
                body.append(["a", rng.randrange(counters),
                             rng.randrange(1, 10)])
            program.append({"label": f"t{t}.{j}", "ops": body[:max(1, ops)]})
        thread_programs.append(program)
    return {"name": f"fuzz-s{seed}-i{index}", "initial": initial,
            "threads": thread_programs}


def addonly_cells(schedule: dict) -> List[int]:
    """Cells written exclusively through commutative add ops."""
    added, blind = set(), set()
    for thread in schedule["threads"]:
        for txn in thread:
            for op in txn["ops"]:
                if op[0] == "a":
                    added.add(op[1])
                elif op[0] == "w":
                    blind.add(op[1])
    return sorted(added - blind)


def expected_counters(schedule: dict) -> Dict[int, int]:
    """Final value each add-only cell must reach once everything commits."""
    totals = {cell: schedule["initial"][cell]
              for cell in addonly_cells(schedule)}
    for thread in schedule["threads"]:
        for txn in thread:
            for op in txn["ops"]:
                if op[0] == "a" and op[1] in totals:
                    totals[op[1]] += op[2]
    return totals


# ----------------------------------------------------------------------
# schedule execution

def _patched_config(patch: Optional[dict]) -> Optional[SimConfig]:
    """Default config with a partial nested dict merged over it."""
    if not patch:
        return None
    base = SimConfig().to_dict()

    def merge(dst: dict, src: dict) -> None:
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], value)
            else:
                dst[key] = value

    merge(base, patch)
    return SimConfig.from_dict(base)


def _make_body(ops: Sequence[list], base: int, stride: int, label: str):
    """Transaction body factory for one schedule transaction."""
    frozen = [list(op) for op in ops]

    def body():
        for op in frozen:
            kind = op[0]
            if kind == "r":
                yield Read(base + op[1] * stride, f"{label}:r{op[1]}")
            elif kind == "w":
                yield Write(base + op[1] * stride, op[2], f"{label}:w{op[1]}")
            elif kind == "a":
                addr = base + op[1] * stride
                value = yield Read(addr, f"{label}:a{op[1]}")
                yield Write(addr, value + op[2], f"{label}:a{op[1]}")
            elif kind == "c":
                yield Compute(op[1])
            else:
                raise ValueError(f"unknown schedule op {op!r}")
    return body


def run_schedule(schedule: dict, system: str, seed: int = 0,
                 broken: Optional[str] = None, tracer=None,
                 ) -> Tuple[History, List[int]]:
    """Run one schedule under one backend; return (history, final state).

    ``broken="no-ww"`` disables SI-TM's commit-time write-write
    validation (the oracle test hook), deliberately producing lost
    updates the checker must catch; ``broken="no-lock"`` removes the
    serialization of HybridHTM's lock fallback, letting untracked
    fallback accesses race live hardware transactions.  Each hook is a
    no-op for backends that do not consult it.

    ``tracer`` rides alongside the history recorder in the engine's
    single tracer slot (composed via :class:`~repro.obs.spans.
    MultiTracer`), so a replay can capture telemetry spans without
    changing the recorded history.
    """
    config = _patched_config(schedule.get("config"))
    machine = Machine(config)
    stride = machine.address_map.words_per_line  # one line per cell
    initial = list(schedule["initial"])
    base = machine.mvmalloc(max(1, len(initial)) * stride)
    for cell, value in enumerate(initial):
        machine.plain_store(base + cell * stride, value)
    tm = SYSTEMS[system](
        machine, SplitRandom(derive_seed(seed, "fuzz-run",
                                         schedule.get("name", ""), system)))
    if broken == "no-ww":
        tm.ww_validation = False
    elif broken == "no-lock":
        tm.fallback_serializes = False
    recorder = HistoryRecorder.for_system(
        tm, initial={base + cell * stride: value
                     for cell, value in enumerate(initial)})
    programs = [
        [TransactionSpec(_make_body(txn["ops"], base, stride, txn["label"]),
                         txn["label"])
         for txn in thread]
        for thread in schedule["threads"]]
    total_ops = sum(len(txn["ops"]) + 2
                    for thread in schedule["threads"] for txn in thread)
    engine_tracer = recorder
    if tracer is not None:
        from repro.obs import MultiTracer
        engine_tracer = MultiTracer(recorder, tracer)
    engine = Engine(tm, programs, tracer=engine_tracer)
    engine.run(max_steps=1000 * max(1, total_ops) + 20_000)
    final = [machine.plain_load(base + cell * stride)
             for cell in range(len(initial))]
    return recorder.history, final


def check_schedule_run(schedule: dict, system: str, seed: int = 0,
                       broken: Optional[str] = None,
                       ) -> Tuple[List[Violation], List[int],
                                  Optional[History]]:
    """Run + check one schedule; returns (violations, final state, history).

    A run that cannot make progress (engine step-limit hit, e.g. a
    livelocked broken backend) is itself reported as a violation.
    """
    try:
        history, final = run_schedule(schedule, system, seed, broken)
    except SimulationError as exc:
        return ([Violation("no-progress", f"{system}: {exc}")],
                list(schedule["initial"]), None)
    violations = check_history(history)
    expected = expected_counters(schedule)
    for cell, want in sorted(expected.items()):
        if final[cell] != want:
            violations.append(Violation(
                "lost-update",
                f"{system}: add-only cell {cell} ended at {final[cell]}, "
                f"expected {want} (all transactions commit)", (), cell))
    return violations, final, history


def schedule_violations(schedule: dict, systems: Sequence[str],
                        seed: int = 0,
                        broken: Optional[str] = None) -> List[Violation]:
    """All violations of one schedule across ``systems`` (serial).

    Used by the shrinker's predicate: per-system isolation checks plus
    the cross-backend differential comparison on add-only cells.
    """
    violations: List[Violation] = []
    finals: Dict[str, List[int]] = {}
    for system in systems:
        found, final, _ = check_schedule_run(schedule, system, seed, broken)
        violations += found
        finals[system] = final
    violations += differential_violations(schedule, finals)
    return violations


def differential_violations(schedule: dict,
                            finals: Dict[str, List[int]]) -> List[Violation]:
    """Backends must agree on every add-only cell's final value."""
    cells = addonly_cells(schedule)
    found = []
    systems = sorted(finals)
    for cell in cells:
        values = {system: finals[system][cell] for system in systems}
        if len(set(values.values())) > 1:
            found.append(Violation(
                "differential",
                f"add-only cell {cell} diverges across backends: {values}",
                (), cell))
    return found


# ----------------------------------------------------------------------
# executor integration

@dataclass(frozen=True)
class FuzzSpec:
    """One fuzz cell: a single schedule under a single backend.

    Mirrors :class:`~repro.harness.spec.ExperimentSpec`'s canonical-JSON
    contract (``kind`` discriminates the two in worker payloads and
    cache entries) so the harness executor runs fuzz batches through the
    same process pool and content-addressed cache as figure grids.
    ``schedule_json`` replays an explicit schedule (corpus/repro files);
    otherwise the schedule is regenerated from the shape parameters.
    """

    system: str
    seed: int = 0
    index: int = 0
    threads: int = 3
    txns: int = 2
    cells: int = 4
    ops: int = 3
    broken: Optional[str] = None
    schedule_json: Optional[str] = None

    kind = "fuzz"

    def schedule(self) -> dict:
        """The schedule this spec runs (explicit or regenerated)."""
        if self.schedule_json is not None:
            return json.loads(self.schedule_json)
        return generate_schedule(self.seed, self.index, self.threads,
                                 self.txns, self.cells, self.ops)

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (stable key set)."""
        return {"kind": "fuzz", "system": self.system, "seed": self.seed,
                "index": self.index, "threads": self.threads,
                "txns": self.txns, "cells": self.cells, "ops": self.ops,
                "broken": self.broken, "schedule_json": self.schedule_json}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(system=data["system"], seed=data["seed"],
                   index=data["index"], threads=data["threads"],
                   txns=data["txns"], cells=data["cells"], ops=data["ops"],
                   broken=data.get("broken"),
                   schedule_json=data.get("schedule_json"))

    def canonical_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) for hashing."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @staticmethod
    def result_from_dict(data: dict) -> "FuzzResult":
        """Deserialize this spec kind's result (executor/cache hook)."""
        return FuzzResult.from_dict(data)

    def run(self) -> "FuzzResult":
        """Execute this fuzz cell in the current process."""
        schedule = self.schedule()
        violations, final, history = check_schedule_run(
            schedule, self.system, self.seed, self.broken)
        committed = aborted = 0
        causes: Counter = Counter()
        if history is not None:
            committed = len(history.committed())
            aborted = len(history.aborts())
            for rec in history.aborts():
                causes[rec.abort_cause] += 1
        return FuzzResult(
            system=self.system, index=self.index,
            schedule_name=schedule.get("name", ""),
            committed=committed, aborted=aborted,
            abort_causes=dict(sorted(causes.items())),
            final_state=final, addonly=addonly_cells(schedule),
            violations=[v.to_dict() for v in violations])

    def __str__(self) -> str:
        tag = self.schedule_name_hint()
        return f"fuzz/{self.system}/{tag}" + (
            f"/broken={self.broken}" if self.broken else "")

    def schedule_name_hint(self) -> str:
        """Short human-readable identity for logs and labels."""
        if self.schedule_json is not None:
            return json.loads(self.schedule_json).get("name", "explicit")
        return f"s{self.seed}-i{self.index}"


@dataclass
class FuzzResult:
    """Outcome of one fuzz cell, serializable for the executor cache."""

    system: str
    index: int
    schedule_name: str
    committed: int
    aborted: int
    abort_causes: Dict[str, int] = field(default_factory=dict)
    final_state: List[int] = field(default_factory=list)
    addonly: List[int] = field(default_factory=list)
    violations: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-safe form (stable key set)."""
        return {"system": self.system, "index": self.index,
                "schedule_name": self.schedule_name,
                "committed": self.committed, "aborted": self.aborted,
                "abort_causes": dict(self.abort_causes),
                "final_state": list(self.final_state),
                "addonly": list(self.addonly),
                "violations": list(self.violations)}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzResult":
        """Inverse of :meth:`to_dict`."""
        return cls(system=data["system"], index=data["index"],
                   schedule_name=data["schedule_name"],
                   committed=data["committed"], aborted=data["aborted"],
                   abort_causes=dict(data.get("abort_causes", {})),
                   final_state=list(data.get("final_state", [])),
                   addonly=list(data.get("addonly", [])),
                   violations=list(data.get("violations", [])))


# ----------------------------------------------------------------------
# the fuzz campaign driver

@dataclass
class FuzzReport:
    """Everything one fuzz campaign produced, for the CLI report."""

    systems: List[str]
    schedules: int
    seed: int
    per_system: Dict[str, dict] = field(default_factory=dict)
    #: (system, schedule index, violation dict) triples
    violations: List[Tuple[str, int, dict]] = field(default_factory=list)
    repro_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        """True when no backend violated its declared isolation level."""
        return not self.violations


def apply_config_patch(schedule: dict,
                       config_patch: Optional[dict]) -> dict:
    """Copy of ``schedule`` with ``config_patch`` merged over its config.

    The patch is a partial nested :class:`SimConfig` dict — e.g.
    ``{"faults": plan.to_dict(), "retry": policy.to_dict()}`` — merged
    key-by-key over any config the schedule already carries, so fault
    campaigns ride through :func:`run_schedule`'s existing
    ``_patched_config`` path with no replay changes at all.
    """
    if not config_patch:
        return schedule
    patched = copy.deepcopy(schedule)
    config = patched.setdefault("config", {})
    config.update(copy.deepcopy(config_patch))
    return patched


def fuzz_batch(executor, systems: Sequence[str], schedules: int,
               seed: int = 0, threads: int = 3, txns: int = 2,
               cells: int = 4, ops: int = 3, broken: Optional[str] = None,
               out_dir: Optional[str] = None,
               config_patch: Optional[dict] = None,
               persist: bool = True) -> FuzzReport:
    """Run ``schedules`` randomized schedules through every backend.

    Fan-out and memoization come from the harness ``executor``; the
    per-(schedule, system) results are then cross-checked differentially
    and the first violating schedule is shrunk to a minimal repro and
    persisted under ``out_dir`` (default ``$SITM_FUZZ_DIR`` or
    ``results/fuzz``).

    ``config_patch`` applies a partial config (typically a fault plan
    plus retry policy — ``sitm-harness fuzz --faults``) to every
    generated schedule; ``persist=False`` skips the shrink-and-persist
    step, for campaigns whose violations are the *expected* outcome
    (the escalation-disabled livelock demonstration).
    """
    from repro.oracle.shrink import persist_repro, shrink_schedule

    def make_schedule(index: int) -> dict:
        return apply_config_patch(
            generate_schedule(seed, index, threads, txns, cells, ops),
            config_patch)

    if config_patch:
        # the patch must reach the worker processes, so patched
        # schedules travel as explicit schedule_json payloads
        specs = [FuzzSpec(system=system, seed=seed, index=index,
                          broken=broken,
                          schedule_json=json.dumps(make_schedule(index),
                                                   sort_keys=True))
                 for index in range(schedules) for system in systems]
    else:
        specs = [FuzzSpec(system=system, seed=seed, index=index,
                          threads=threads, txns=txns, cells=cells, ops=ops,
                          broken=broken)
                 for index in range(schedules) for system in systems]
    results = executor.run(specs)
    report = FuzzReport(systems=list(systems), schedules=schedules,
                        seed=seed)
    for system in systems:
        rows = [results[s] for s in specs if s.system == system]
        report.per_system[system] = {
            "schedules": len(rows),
            "committed": sum(r.committed for r in rows),
            "aborted": sum(r.aborted for r in rows),
            "violations": sum(len(r.violations) for r in rows),
        }
    for spec in specs:
        for violation in results[spec].violations:
            report.violations.append((spec.system, spec.index, violation))
    # differential comparison per schedule index, from the cached results
    for index in range(schedules):
        finals = {system: results[spec].final_state
                  for spec in specs if spec.index == index
                  for system in [spec.system]}
        for violation in differential_violations(make_schedule(index),
                                                 finals):
            report.violations.append(("*", index, violation.to_dict()))
    if report.violations and persist:
        report.repro_path = str(_persist_first_violation(
            report, systems, seed, threads, txns, cells, ops, broken,
            out_dir, shrink_schedule, persist_repro, config_patch))
    return report


def fault_campaign(executor, systems: Optional[Sequence[str]] = None,
                   seeds: Sequence[int] = (0, 1, 2), schedules: int = 3,
                   escalation: bool = True,
                   out_dir: Optional[str] = None) -> FuzzReport:
    """The pinned adversarial fault campaign, oracle-checked end to end.

    Every backend runs ``schedules`` fuzz schedules per seed under
    :func:`repro.faults.adversarial_plan` (version-cap squeeze + forced
    timestamp overflows + begin-stall storms + spurious-abort bursts +
    GC pauses) with a tight retry policy, and every history goes
    through the isolation oracle plus the cross-backend differential
    check.  With ``escalation=True`` the golden-token path guarantees
    termination and the report must come back clean; with
    ``escalation=False`` the campaign hardens the spurious-abort site
    into a total storm (``abort_rate=1.0``) so that no commit attempt
    can ever succeed: every backend deterministically fails to make
    progress (``no-progress`` violations) — the A/B evidence that the
    escalation path is what buys termination.  The hardening is needed
    because the pinned 0.9-rate plan still lets ~1 in 10 commits
    through, which is enough for small fuzz schedules to terminate by
    luck.
    """
    from repro.faults import adversarial_plan
    from repro.sim.retry import RetryPolicy
    systems = list(systems or SYSTEMS)
    seeds = list(seeds)
    policy = RetryPolicy(attempt_budget=4, stall_budget=16,
                         starvation_age_cycles=50_000,
                         escalation=escalation)
    merged = FuzzReport(systems=systems, schedules=schedules * len(seeds),
                        seed=seeds[0] if seeds else 0)
    for seed in seeds:
        plan = adversarial_plan(seed)
        if not escalation:
            plan = dataclasses.replace(plan, abort_rate=1.0, abort_burst=1)
        patch = {"faults": plan.to_dict(),
                 "retry": policy.to_dict()}
        report = fuzz_batch(executor, systems, schedules, seed=seed,
                            config_patch=patch, persist=escalation,
                            out_dir=out_dir)
        for system, row in report.per_system.items():
            into = merged.per_system.setdefault(
                system, {"schedules": 0, "committed": 0, "aborted": 0,
                         "violations": 0})
            for key in into:
                into[key] += row[key]
        merged.violations += report.violations
        merged.repro_path = merged.repro_path or report.repro_path
    return merged


def _persist_first_violation(report: FuzzReport, systems: Sequence[str],
                             seed: int, threads: int, txns: int, cells: int,
                             ops: int, broken: Optional[str],
                             out_dir: Optional[str],
                             shrink, persist,
                             config_patch: Optional[dict] = None
                             ) -> os.PathLike:
    """Shrink the first violating schedule and write its repro."""
    first_index = min(index for _, index, _ in report.violations)
    schedule = apply_config_patch(
        generate_schedule(seed, first_index, threads, txns, cells, ops),
        config_patch)

    def failing(candidate: dict) -> bool:
        return bool(schedule_violations(candidate, systems, seed, broken))

    try:
        minimal = shrink(schedule, failing)
    except ValueError:
        # flaky (e.g. cache from different code): persist unshrunk
        minimal = copy.deepcopy(schedule)
    final_violations = schedule_violations(minimal, systems, seed, broken)
    target = out_dir or os.environ.get(FUZZ_DIR_ENV) or DEFAULT_FUZZ_DIR
    span_log = _persist_span_log(target, minimal, systems, seed, broken)
    return persist(target, minimal, list(systems), seed,
                   [v.to_dict() for v in final_violations], broken,
                   span_log=span_log)


def _persist_span_log(out_dir, schedule: dict, systems: Sequence[str],
                      seed: int, broken: Optional[str]) -> Optional[str]:
    """Replay the minimal schedule with span telemetry; persist the log.

    One JSONL file holds every system's spans (each line stamped with
    its backend), written next to the repro so ``fuzz --replay`` can
    re-emit a Chrome trace without re-running anything by hand.
    Telemetry rides outside the recorded history, so the replayed
    violations are the ones the repro documents.
    """
    import pathlib

    from repro.obs import SpanRecorder, spans_to_jsonl
    from repro.oracle.shrink import schedule_digest

    chunks = []
    for system in systems:
        recorder = SpanRecorder()
        try:
            run_schedule(schedule, system, seed, broken, tracer=recorder)
        except SimulationError:
            pass  # livelocked runs still leave their partial spans
        chunks.append(spans_to_jsonl(recorder.spans,
                                     extra={"system": system}))
    name = f"repro-{schedule_digest(schedule)}.spans.jsonl"
    root = pathlib.Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / name).write_text("".join(chunks), encoding="utf-8")
    return name
