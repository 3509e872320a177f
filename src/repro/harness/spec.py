"""Experiment specifications: the canonical unit of harness work.

Every figure and table of the paper is a grid of independent
simulations, and :func:`repro.harness.runner.run_once` is a pure
function of ``(workload, system, threads, seed, profile, config)``.
:class:`ExperimentSpec` reifies that tuple as a canonical, hashable,
JSON-round-trippable record so the execution layer
(:mod:`repro.harness.executor`) can fan grids out across processes,
memoize completed runs in a content-addressed cache, and keep result
ordering deterministic — the spec *is* the cache key.

Canonical form: ``to_dict()`` always emits the same keys in the same
shape (the config as its full nested dict, or ``None`` for the
default), so ``spec_hash()`` is stable across processes, Python
versions, and repository checkouts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.common.config import SimConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunResult, run_once


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation cell: everything :func:`run_once` depends on.

    Frozen and hashable so specs serve directly as dict keys in result
    maps; ``config=None`` means the default :class:`SimConfig` and is
    kept as ``None`` (not expanded) so the common case hashes cheaply
    and reads cleanly in cache metadata.
    """

    workload: str
    system: str
    threads: int
    seed: int
    profile: str = "quick"
    config: Optional[SimConfig] = None
    #: carry a metrics registry + span recorder through the run; the
    #: result then includes the metrics snapshot and span dicts.  Part
    #: of the cache key (a telemetry result holds strictly more data),
    #: but omitted from the canonical dict when False so every
    #: pre-existing spec hash is unchanged.
    telemetry: bool = False
    #: carry a cycle profiler through the run; the result then includes
    #: the conservation-checked phase snapshot.  Same cache-key rule as
    #: ``telemetry``: omitted from the canonical dict when False.
    profiling: bool = False
    #: fault-injection plan applied on top of the config
    #: (:class:`repro.faults.FaultPlan`); part of the cache key, but
    #: omitted from the canonical dict when ``None`` — matching the
    #: ``telemetry``/``profiling`` convention — so every pre-existing
    #: spec hash, and with it every result-cache key, survives.
    faults: Optional[FaultPlan] = None

    #: spec-kind discriminator for the executor's worker payloads; the
    #: canonical dict deliberately omits it so existing cache keys and
    #: entries stay valid
    kind = "experiment"

    @staticmethod
    def result_from_dict(data: dict) -> RunResult:
        """Deserialize this spec kind's result (executor/cache hook)."""
        return RunResult.from_dict(data)

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (stable key set, nested config)."""
        data = {
            "workload": self.workload,
            "system": self.system,
            "threads": self.threads,
            "seed": self.seed,
            "profile": self.profile,
            "config": self.config.to_dict() if self.config else None,
        }
        if self.telemetry:
            data["telemetry"] = True
        if self.profiling:
            data["profiling"] = True
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        config = data.get("config")
        return cls(
            workload=data["workload"],
            system=data["system"],
            threads=data["threads"],
            seed=data["seed"],
            profile=data.get("profile", "quick"),
            config=SimConfig.from_dict(config) if config else None,
            telemetry=data.get("telemetry", False),
            profiling=data.get("profiling", False),
            faults=(FaultPlan.from_dict(data["faults"])
                    if data.get("faults") else None))

    def canonical_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) for hashing."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def spec_hash(self) -> str:
        """Content hash of the spec itself (workload, knobs, config)."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:24]

    def run(self) -> RunResult:
        """Execute this spec in the current process.

        Telemetry specs run under a live-publishing context (streamed
        window/alert events carry this spec's identity) and with a
        flight recorder armed at ``flight-<spec_hash>.json`` — the
        artifact a quarantined cell's :class:`~repro.harness.executor.
        RunFailure` points at when the run dies.
        """
        config = self.config
        if self.faults is not None:
            config = (config or SimConfig()).replace(faults=self.faults)
        flight = None
        previous = _UNSET = object()
        if self.telemetry:
            from repro.obs import flight_path
            from repro.obs.live import set_context
            flight = flight_path(self.spec_hash())
            previous = set_context(str(self))
        try:
            return run_once(self.workload, self.system, self.threads,
                            self.seed, self.profile, config,
                            telemetry=self.telemetry,
                            profiling=self.profiling,
                            flight_path=flight)
        finally:
            if previous is not _UNSET:
                from repro.obs.live import set_context
                set_context(previous)

    def __str__(self) -> str:
        base = (f"{self.workload}/{self.system}/t{self.threads}"
                f"/s{self.seed}/{self.profile}")
        if self.telemetry:
            base += "/telemetry"
        if self.profiling:
            base += "/profiling"
        if self.faults is not None:
            base += "/faults"
        return base


def seed_specs(workload: str, system: str, threads: int,
               profile: str = "quick", seeds: int = 3, seed0: int = 1,
               config: Optional[SimConfig] = None,
               telemetry: bool = False) -> List[ExperimentSpec]:
    """Specs for one aggregate cell: ``seeds`` consecutive seeds."""
    return [ExperimentSpec(workload, system, threads, seed0 + i,
                           profile, config, telemetry=telemetry)
            for i in range(seeds)]


def grid(workloads: Sequence[str], systems: Sequence[str],
         thread_counts: Iterable[int], profile: str = "quick",
         seeds: int = 3, seed0: int = 1,
         config: Optional[SimConfig] = None) -> List[ExperimentSpec]:
    """The full cross-product grid, in deterministic row-major order.

    Order is workloads x thread_counts x systems x seeds, matching the
    iteration order of the paper's figure drivers so results assemble
    without re-sorting.
    """
    return [spec
            for workload in workloads
            for threads in thread_counts
            for system in systems
            for spec in seed_specs(workload, system, threads, profile,
                                   seeds, seed0, config)]
