"""Programmatic verification of the paper's headline claims.

DESIGN.md lists the shape targets this reproduction must hit; this module
turns each into an executable check returning expected-vs-measured, so
"did the reproduction reproduce?" is one command, with no flags::

    python -m repro.harness.cli claims

The battery runs one pinned configuration — :data:`PROFILE`,
:data:`THREADS` and :data:`SEEDS` — wherever it runs: the CLI, the
tier-1 test, ``benchmarks/test_claims.py``, CI and the committed
``results/claims_test.txt``.  Each grid claim is measured on every seed
and decided by one rule (:data:`RULE`, :func:`majority`): its bound
must hold on a majority of the seeds, which for a one-sided bound is
exactly when the median seed meets it.  A test-profile cell has tens of
aborts, so a ratio of sums over seeds moves with one seed; a majority
does not.  EXPERIMENTS.md ("The claims gate") records the per-seed
values on three seed sets and why this rule was chosen.

Thresholds are *shape* thresholds (who wins, roughly by how much), looser
than the paper's absolute factors because the substrate is an
operation-level simulator at reduced scale — see DESIGN.md section 2 and
EXPERIMENTS.md for the full argument and the measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.table import format_table
from repro.harness import experiments
from repro.harness.executor import Executor, serial_executor
from repro.harness.spec import ExperimentSpec

#: the one configuration the verdict runs at
PROFILE = "test"
THREADS = 8
SEEDS = (1, 2, 3, 4, 5)
#: how a grid claim turns per-seed values into a verdict
RULE = ("a grid claim passes when its bound holds on a majority of the "
        "seeds, i.e. when the median seed meets it")

#: the Figure 7 workloads with a claim, and the Figure 8 / Table 2 ones
FIG7_WORKLOADS = ("array", "list", "vacation", "intruder", "kmeans")
FIG8_WORKLOADS = ("array", "vacation")
TABLE2_WORKLOADS = ("array", "list", "rbtree")


@dataclass
class ClaimResult:
    """One verified claim."""

    claim_id: str
    description: str
    expected: str
    measured: str
    passed: bool
    #: a grid claim's value on each of :data:`SEEDS` (``None`` where it
    #: has none, e.g. 2PL never aborted); empty for the exact checks
    per_seed: Tuple[Optional[float], ...] = ()
    #: whether the claim's bound held on each seed
    held: Tuple[bool, ...] = ()


def majority(held: Sequence[bool]) -> bool:
    """The rule: the bound held on more than half of the seeds."""
    return 2 * sum(held) > len(held)


def grid_claim(claim_id: str, description: str, expected: str,
               values: Sequence[Optional[float]], held: Sequence[bool],
               label: str = "", digits: int = 3) -> ClaimResult:
    """A grid claim's verdict under the rule; ``measured`` is the median
    of the per-seed values there are, prefixed by ``label``."""
    # imported here: statistics pulls in fractions and decimal, which
    # everything that imports repro.harness would otherwise pay for
    from statistics import median
    known = [v for v in values if v is not None]
    measured = f"{label}{median(known):.{digits}f}" if known else "n/a"
    return ClaimResult(claim_id, description, expected, measured,
                       majority(held), tuple(values), tuple(held))


def _each(values: Sequence[Optional[float]], test) -> List[bool]:
    """``test`` on every seed's value; a seed without one fails it."""
    return [v is not None and test(v) for v in values]


class _Quarantined(Exception):
    """A run of the seed was quarantined by the executor."""


def check_claims(executor: Optional[Executor] = None) -> List[ClaimResult]:
    """Run the whole battery; returns one result per headline claim.

    ``executor`` parallelises/memoizes the grid runs (one batch); the
    hand-built schedules (Figures 2 and 6) always run inline.
    """
    executor = executor if executor is not None else serial_executor()
    cells = list(dict.fromkeys(
        [(w, "2PL", THREADS, None) for w in experiments.FIGURE1_BENCHMARKS]
        + [(w, s, THREADS, None) for w in FIG7_WORKLOADS
           for s in ("2PL", "SI-TM")]
        + [("array", "SONTM", THREADS, None)]
        + [(w, s, t, None) for w in FIG8_WORKLOADS
           for s in ("2PL", "SI-TM") for t in (1, THREADS)]
        + [(w, "SI-TM", THREADS, experiments.CENSUS_CONFIG)
           for w in TABLE2_WORKLOADS]))
    specs = {cell: [ExperimentSpec(*cell[:3], seed, PROFILE, cell[3])
                    for seed in SEEDS] for cell in cells}
    outcomes = executor.run([spec for group in specs.values()
                             for spec in group])

    def per_seed(measure) -> List[Optional[float]]:
        """``measure(run)`` on every seed, where ``run(workload, system,
        threads, config)`` is that seed's result of one cell; None where
        a run was quarantined or a ratio has a zero denominator."""
        values: List[Optional[float]] = []
        for index in range(len(SEEDS)):
            def run(workload, system, threads=THREADS, config=None):
                result = outcomes[specs[(workload, system, threads,
                                         config)][index]]
                if getattr(result, "failed", False):
                    raise _Quarantined
                return result
            try:
                values.append(measure(run))
            except (_Quarantined, ZeroDivisionError):
                values.append(None)
        return values

    def relative(workload, system):
        """Per-seed aborts of ``system`` relative to 2PL's."""
        return per_seed(lambda run: run(workload, system).aborts
                        / run(workload, "2PL").aborts)

    results: List[ClaimResult] = []

    # -- Figure 1: read-write aborts dominate under 2PL ------------------
    def rw_fraction(run):
        rows = [run(w, "2PL") for w in experiments.FIGURE1_BENCHMARKS]
        rw = sum(r.read_write_aborts for r in rows)
        return rw / (rw + sum(r.write_write_aborts for r in rows))

    fraction = per_seed(rw_fraction)
    results.append(grid_claim(
        "fig1-rw-dominates",
        "75-99% of 2PL aborts are read-write conflicts",
        ">= 0.75", fraction, _each(fraction, lambda v: v >= 0.75)))

    # -- Figure 7 shapes --------------------------------------------------
    for claim_id, workload, bound, description in (
            ("fig7-array", "array", 0.20,
             "Array: SI-TM collapses aborts vs 2PL (paper: ~3000x)"),
            ("fig7-list", "list", 0.20,
             "List: SI-TM far below 2PL (paper: >30x)"),
            ("fig7-vacation", "vacation", 0.35,
             "Vacation: SI-TM a small fraction of 2PL (paper: <1%)"),
            ("fig7-intruder", "intruder", 0.60,
             "Intruder: SI-TM well below 2PL (paper: ~50x)")):
        ratios = relative(workload, "SI-TM")
        results.append(grid_claim(
            claim_id, description, f"< {bound}", ratios,
            _each(ratios, lambda v, bound=bound: v < bound)))

    kmeans = relative("kmeans", "SI-TM")
    results.append(grid_claim(
        "fig7-kmeans-null", "Kmeans: SI cannot dodge RMW conflicts",
        "> 0.30", kmeans, _each(kmeans, lambda v: v > 0.30)))

    si_array = relative("array", "SI-TM")
    sontm_array = relative("array", "SONTM")
    results.append(grid_claim(
        "fig7-cs-between", "CS sits between 2PL and SI on Array",
        "SI < SONTM < 1.0", sontm_array,
        [so is not None and (1 if si is None else si) < so < 1.0
         for si, so in zip(si_array, sontm_array)], label="SONTM="))

    # -- Figure 8: read-heavy scalability ---------------------------------
    def speedup(run, workload, system):
        return (run(workload, system).throughput
                / run(workload, system, threads=1).throughput)

    for workload in FIG8_WORKLOADS:
        ratios = per_seed(lambda run, workload=workload:
                          speedup(run, workload, "SI-TM")
                          / speedup(run, workload, "2PL"))
        results.append(grid_claim(
            f"fig8-{workload}",
            f"{workload}: SI-TM outscales 2PL at {THREADS} threads",
            "SI > 2PL", ratios, _each(ratios, lambda v: v > 1.0),
            label="SI/2PL=", digits=2))

    # -- Table 2: 4 versions suffice --------------------------------------
    worst_tail = per_seed(lambda run: max(
        experiments.census_tail_fraction(
            run(w, "SI-TM", config=experiments.CENSUS_CONFIG).census_rows
            or [], 4)
        for w in TABLE2_WORKLOADS))
    results.append(grid_claim(
        "table2-four-versions",
        "accesses beyond the 4th version are marginal (paper: <1%)",
        "< 0.05", worst_tail, _each(worst_tail, lambda v: v < 0.05),
        digits=4))

    # -- Figures 2 and 6: exact schedule outcomes -------------------------
    fig2 = {o.system: o for o in experiments.figure2()}
    fig2_ok = (sorted(fig2["SONTM"].committed) == ["TX0", "TX1"]
               and fig2["SI-TM"].aborted == ["TX3"])
    results.append(ClaimResult(
        "fig2-schedule", "example schedule: CS commits 2, SI aborts only TX3",
        "exact", "exact" if fig2_ok else "mismatch", fig2_ok))

    fig6 = {o.system: o for o in experiments.figure6()}
    fig6_ok = ("TX0" in fig6["SONTM"].aborted
               and sorted(fig6["SSI-TM"].committed) == ["TX0", "TX1"])
    results.append(ClaimResult(
        "fig6-temporal", "CS aborts the long reader; SSI commits it",
        "exact", "exact" if fig6_ok else "mismatch", fig6_ok))

    # -- Section 3.2 arithmetic -------------------------------------------
    rows_ = experiments.overheads()
    by_bundle = {r["bundle_lines"]: r for r in rows_}
    arithmetic_ok = (
        abs(by_bundle[1]["overhead_full_versions_pct"] - 12.5) < 1e-9
        and abs(by_bundle[1]["overhead_worst_case_pct"] - 50.0) < 1e-9
        and abs(by_bundle[8]["overhead_worst_case_pct"] - 6.25) < 1e-9)
    results.append(ClaimResult(
        "sec3.2-overheads", "12.5% / 50% / 6.25% metadata overheads",
        "exact", "exact" if arithmetic_ok else "mismatch", arithmetic_ok))

    return results


def all_passed(results: Sequence[ClaimResult]) -> bool:
    """True when every claim check passed."""
    return all(r.passed for r in results)


def render(results: Sequence[ClaimResult]) -> str:
    """The report ``sitm-harness claims`` prints, and
    ``results/claims_test.txt`` holds: the verdict table, every grid
    claim's per-seed values, and the verdict line."""
    table = format_table(
        ["claim", "description", "expected", "measured", "ok"],
        [[r.claim_id, r.description, r.expected, r.measured,
          "PASS" if r.passed else "FAIL"] for r in results],
        title=f"Headline-claim verification ({PROFILE} profile, "
              f"{THREADS} threads, seeds {SEEDS[0]}-{SEEDS[-1]})")
    per_seed = format_table(
        ["claim"] + [f"seed {seed}" for seed in SEEDS] + ["held"],
        [[r.claim_id]
         + ["n/a" if v is None else f"{v:.3f}" for v in r.per_seed]
         + [f"{sum(r.held)}/{len(r.held)}"]
         for r in results if r.per_seed],
        title=f"Per-seed values: {RULE}")
    verdict = "ALL CLAIMS PASS" if all_passed(results) else "FAILURES PRESENT"
    return f"{table}\n\n{per_seed}\n\n{verdict}"
