"""Extra (non-paper) workload tests: hashtable and pipeline."""

import pytest

from repro.workloads import PAPER_ORDER, REGISTRY

from tests.conftest import run_workload


class TestRegistration:
    def test_registered_but_not_in_paper_order(self):
        assert "hashtable" in REGISTRY
        assert "pipeline" in REGISTRY
        assert "hashtable" not in PAPER_ORDER
        assert "pipeline" not in PAPER_ORDER


@pytest.mark.parametrize("name", ["hashtable", "pipeline"])
@pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM"])
def test_runs_clean(name, system):
    stats, total, verified = run_workload(name, system, 4, 3, seed=1)
    assert stats.total_commits == total
    assert verified


class TestCharacteristics:
    def test_hashtable_moderate_contention_for_everyone(self):
        rates = {system: run_workload("hashtable", system, 8, 5, seed=2)[0]
                 .abort_rate for system in ("2PL", "SI-TM")}
        assert all(rate < 0.35 for rate in rates.values())
        # per-bucket conflicts favour SI (bucket-head writes vs chain reads)
        assert rates["SI-TM"] <= rates["2PL"]

    def test_pipeline_conflicts_regardless_of_system(self):
        """Cursor RMW: SI gains nothing (every conflict is write-write)."""
        aborts = {system: run_workload("pipeline", system, 8, 5, seed=2)[0]
                  .total_aborts for system in ("2PL", "SI-TM")}
        assert aborts["SI-TM"] > aborts["2PL"] / 50

    def test_hashtable_contention_levels(self):
        low, high = (run_workload("hashtable", "2PL", 8, 5, seed=2,
                                  contention=level)[0].total_aborts
                     for level in ("low", "high"))
        assert high >= low


class TestYada:
    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM"])
    def test_runs_and_verifies(self, system):
        stats, total, verified = run_workload("yada", system, 4, 9, seed=4)
        assert stats.total_commits == total
        assert verified

    def test_cavities_conflict_under_everyone(self):
        """Overlapping cavities produce aborts for every policy (unlike
        the pure-reader benchmarks where SI collapses them to ~zero)."""
        aborts = {system: run_workload("yada", system, 8, 2, seed=2,
                                       contention="high")[0].total_aborts
                  for system in ("2PL", "SI-TM")}
        assert aborts["2PL"] > 0
        assert aborts["SI-TM"] > 0
