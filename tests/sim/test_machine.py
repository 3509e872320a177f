"""Machine facade tests: plain access paths over both regions."""

import pytest

from repro.common.config import SimConfig
from repro.sim.machine import Machine


class TestPlainAccess:
    def test_conventional_roundtrip(self, machine):
        addr = machine.malloc(4)
        machine.plain_store(addr, 77)
        assert machine.plain_load(addr) == 77

    def test_mvm_roundtrip(self, machine):
        addr = machine.mvmalloc(4)
        machine.plain_store(addr + 2, 55)
        assert machine.plain_load(addr + 2) == 55

    def test_mvm_unwritten_reads_zero(self, machine):
        addr = machine.mvmalloc(4)
        assert machine.plain_load(addr) == 0

    def test_mvm_store_preserves_line_neighbours(self, machine):
        addr = machine.mvmalloc(8)
        machine.plain_store(addr, 1)
        machine.plain_store(addr + 1, 2)
        assert machine.plain_load(addr) == 1
        assert machine.plain_load(addr + 1) == 2

    def test_line_data_conventional(self, machine):
        addr = machine.malloc(8)
        machine.plain_store(addr + 3, 9)
        line = machine.address_map.line_of(addr)
        assert machine.line_data(line)[3] == 9

    def test_line_data_mvm(self, machine):
        addr = machine.mvmalloc(8)
        machine.plain_store(addr + 5, 4)
        line = machine.address_map.line_of(addr)
        assert machine.line_data(line)[5] == 4

    def test_line_data_untouched_mvm_line(self, machine):
        addr = machine.mvmalloc(8)
        line = machine.address_map.line_of(addr)
        assert machine.line_data(line) == tuple([0] * 8)


class TestConstruction:
    def test_default_config(self):
        machine = Machine()
        assert machine.config.machine.cores == 32

    def test_custom_config_flows_through(self):
        config = SimConfig()
        machine = Machine(config)
        assert machine.clock.delta == config.mvm.commit_delta
        assert machine.mvm.config is config.mvm

    def test_cache_sets_are_created_by_the_first_fill(self):
        machine = Machine(SimConfig())
        caches = machine.caches
        levels = [caches.l3] + [level for core in caches.cores
                                for level in (core.l1, core.l2)]

        def created(level):
            return [i for i, entries in enumerate(level._sets)
                    if entries is not None]

        assert not any(created(level) for level in levels)
        # probes of an untouched set allocate nothing
        core = caches.cores[0]
        assert not core.l1.contains(7)
        assert not core.l2.invalidate(7)
        assert not caches.l3.lookup(7)
        assert caches.invalidate_everywhere(7) == 0
        caches.invalidate_core(3, 7)
        assert not any(created(level) for level in levels)
        caches.access(0, 7)
        # the L3, then core 0's L1 and L2: each created set 7 alone
        assert [created(level) for level in levels] == \
            [[7], [7], [7]] + [[]] * (2 * len(caches.cores) - 2)

    def test_free(self, machine):
        addr = machine.malloc(4)
        machine.free(addr)
        assert machine.malloc(4) == addr
