"""Every workload runs to completion under every system (test profile)."""

import pytest

from repro.workloads import PAPER_ORDER

from tests.conftest import run_workload


@pytest.mark.parametrize("name", PAPER_ORDER)
@pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM"])
def test_runs_and_verifies(name, system):
    stats, total, verified = run_workload(name, system, 4, 11, seed=2)
    assert stats.total_commits == total
    assert verified


@pytest.mark.parametrize("name", ["array", "list", "vacation", "bayes"])
def test_si_aborts_less_than_2pl_on_read_heavy(name):
    """The paper's core claim, on the read-heavy benchmarks."""
    aborts = {system: run_workload(name, system, 4, 5, seed=3)[0]
              .total_aborts for system in ("2PL", "SI-TM")}
    assert aborts["SI-TM"] <= aborts["2PL"]


def test_kmeans_si_no_advantage():
    """Negative control: RMW-only kmeans gains nothing from SI (the
    abort counts stay in the same ballpark, not orders of magnitude)."""
    aborts = {system: run_workload("kmeans", system, 8, 5, seed=3)[0]
              .total_aborts for system in ("2PL", "SI-TM")}
    assert aborts["SI-TM"] > aborts["2PL"] / 50


@pytest.mark.parametrize("name", ["ssca2", "kmeans", "rbtree"])
@pytest.mark.parametrize("system", ["SSI-TM", "LogTM"])
def test_extended_systems_run_and_verify(name, system):
    """The extension systems drive the same workloads unchanged."""
    stats, total, verified = run_workload(name, system, 4, 13, seed=6)
    assert stats.total_commits == total
    assert verified
