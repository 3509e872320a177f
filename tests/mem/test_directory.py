"""Directory-style sharer tracking tests."""

import random

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.mem.cache import CacheHierarchy


@pytest.fixture
def hierarchy():
    return CacheHierarchy(MachineConfig(cores=4))


class TestSharerTracking:
    def test_accessors_become_sharers(self, hierarchy):
        hierarchy.access(0, 100)
        hierarchy.access(2, 100)
        assert hierarchy.sharer_count(100) == 2

    def test_except_core_excluded(self, hierarchy):
        hierarchy.access(0, 100)
        hierarchy.access(1, 100)
        assert hierarchy.sharer_count(100, except_core=0) == 1

    def test_unknown_line_has_no_sharers(self, hierarchy):
        assert hierarchy.sharer_count(999) == 0

    def test_invalidation_clears_sharers(self, hierarchy):
        hierarchy.access(0, 100)
        hierarchy.access(1, 100)
        sent = hierarchy.invalidate_everywhere(100)
        assert sent == 2
        assert hierarchy.sharer_count(100) == 0
        assert hierarchy.invalidations_sent == 2

    def test_invalidation_spares_exception_and_keeps_its_bit(self, hierarchy):
        hierarchy.access(0, 100)
        hierarchy.access(1, 100)
        sent = hierarchy.invalidate_everywhere(100, except_core=1)
        assert sent == 1
        assert hierarchy.sharer_count(100) == 1
        assert hierarchy.cores[1].l1.contains(100)
        assert not hierarchy.cores[0].l1.contains(100)

    def test_no_sharers_no_messages(self, hierarchy):
        assert hierarchy.invalidate_everywhere(100) == 0


class TestTrackedAccess:
    def test_victim_reported_on_l2_pressure(self):
        # a tiny L2 so eviction happens quickly
        machine = MachineConfig(
            cores=1,
            l1d=CacheConfig(size_bytes=2 * 64, associativity=1,
                            latency_cycles=4),
            l2=CacheConfig(size_bytes=2 * 64, associativity=1,
                           latency_cycles=8))
        hierarchy = CacheHierarchy(machine)
        victims = []
        # same set (set count 2): lines 0, 2, 4 collide in set 0
        for line in (0, 2, 4):
            _, victim = hierarchy.access_tracked(0, line)
            if victim is not None:
                victims.append(victim)
        assert victims  # pressure produced at least one L2 victim

    def test_no_victim_on_hit(self, hierarchy):
        hierarchy.access(0, 7)
        _, victim = hierarchy.access_tracked(0, 7)
        assert victim is None


# --------------------------------------------------------------------
# the L1-hit shortcut: a resident line's core is always already listed
# --------------------------------------------------------------------

class EveryAccessDirectory(CacheHierarchy):
    """Reference model: the directory updated on *every* access.

    ``access`` / ``access_tracked`` / ``_miss_path`` as they were before
    the sharer update moved below the L1-hit return.
    """

    def _list(self, core_id, line):
        sharers = self._sharers.get(line)
        if sharers is None:
            sharers = self._sharers[line] = set()
        sharers.add(core_id)

    def access(self, core_id, line):
        return self.access_tracked(core_id, line)[0]

    def access_tracked(self, core_id, line):
        self._list(core_id, line)
        core = self.cores[core_id]
        if core.l1.lookup(line):
            self.level_counts[self.LEVEL_L1] += 1
            return self._l1_lat, None
        return self._miss_path(core, line)

    def _miss_path(self, core, line):
        if core.l2.lookup(line):
            core.l1.fill(line)
            self.level_counts[self.LEVEL_L2] += 1
            return self._l2_lat, None
        if self.l3.lookup(line):
            victim = core.l2.fill(line)
            core.l1.fill(line)
            self.level_counts[self.LEVEL_L3] += 1
            return self._l3_lat, victim
        self.l3.fill(line)
        victim = core.l2.fill(line)
        core.l1.fill(line)
        self.level_counts[self.LEVEL_MEM] += 1
        return self._mem_lat, victim


def _tiny_machine():
    def cache(lines, ways, latency):
        return CacheConfig(size_bytes=lines * 64, associativity=ways,
                           latency_cycles=latency)
    return MachineConfig(cores=3, l1d=cache(4, 2, 4), l2=cache(8, 2, 10),
                         l3=cache(16, 4, 30))


def _observable(hierarchy):
    caches = [hierarchy.l3] + [level for core in hierarchy.cores
                               for level in (core.l1, core.l2)]
    return {
        "sharers": hierarchy._sharers,
        "levels": hierarchy.level_counts,
        "invalidations_sent": hierarchy.invalidations_sent,
        "counters": [(c.name, c.hits, c.misses, c.evictions)
                     for c in caches],
        # per touched set, in set-index order: residency *in LRU order*
        "resident": [(c.name, [(index, list(entries))
                               for index, entries in enumerate(c._sets)
                               if entries is not None])
                     for c in caches],
    }


@pytest.mark.parametrize("seed", range(5))
def test_resident_lines_are_listed_and_match_the_every_access_model(seed):
    rng = random.Random(seed)
    hierarchy = CacheHierarchy(_tiny_machine())
    reference = EveryAccessDirectory(_tiny_machine())
    for _ in range(3000):
        core, line = rng.randrange(3), rng.randrange(24)
        action = rng.choices(
            ("access", "access_tracked", "invalidate_everywhere",
             "invalidate_core", "flush"), (10, 6, 3, 2, 0.2))[0]
        if action == "invalidate_everywhere":
            args = (line, rng.choice((None, core)))
        elif action == "flush":
            args = ()
        else:
            args = (core, line)
        if action == "flush":
            results = [h.cores[core].flush() for h in (hierarchy, reference)]
        else:
            results = [getattr(h, action)(*args)
                       for h in (hierarchy, reference)]
        assert results[0] == results[1]
        assert _observable(hierarchy) == _observable(reference)
        for core_caches in hierarchy.cores:
            for level in (core_caches.l1, core_caches.l2):
                for entries in level._sets:
                    for resident in entries or ():
                        assert core_caches.core_id in \
                            hierarchy._sharers[resident]
