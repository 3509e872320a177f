"""Workload registry and framework tests."""

import itertools

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import SplitRandom
from repro.sim.machine import Machine
from repro.workloads import PAPER_ORDER, REGISTRY
from repro.workloads.base import Workload, WorkloadRegistry, partition


class TestRegistry:
    def test_all_paper_benchmarks_registered(self):
        for name in PAPER_ORDER:
            assert name in REGISTRY

    def test_paper_order_has_ten(self):
        assert len(PAPER_ORDER) == 10

    def test_create_unknown_rejected(self):
        with pytest.raises(ConfigError):
            REGISTRY.create("nope")

    def test_names_sorted(self):
        names = REGISTRY.names()
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        registry = WorkloadRegistry()

        class W(Workload):
            name = "w"

            def setup(self, machine, num_threads, rng):
                raise NotImplementedError

        registry.register(W)
        with pytest.raises(ConfigError):
            registry.register(W)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigError):
            REGISTRY.create("array", profile="huge")


class TestPartition:
    def test_even(self):
        assert partition(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread(self):
        assert partition(10, 3) == [4, 3, 3]

    def test_total_preserved(self):
        for total in (1, 7, 100, 999):
            for threads in (1, 3, 8, 32):
                assert sum(partition(total, threads)) == total


def _labels(name, threads, seed):
    """Per-thread spec labels of a fresh ``test``-profile set-up."""
    instance = REGISTRY.create(name, profile="test").setup(
        Machine(), threads, SplitRandom(seed))
    return [[spec.label for spec in program] for program in instance.programs]


class TestSetupShapes:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_program_count_matches_threads(self, name):
        programs = _labels(name, 4, 1)
        assert len(programs) == 4 and all(programs)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_setup_deterministic(self, name):
        assert _labels(name, 2, 3) == _labels(name, 2, 3)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_labels_prefixed_with_workload(self, name):
        for label in itertools.chain(*_labels(name, 2, 1)):
            assert label.split(".")[0] in name or label.startswith(name[:4])
