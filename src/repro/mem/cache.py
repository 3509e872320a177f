"""Set-associative cache model with LRU replacement.

The model tracks *which lines are resident*, not their contents (contents
live in :class:`repro.mem.backing.BackingStore` and, for versioned lines, in
the MVM).  Its job is timing: deciding at which level an access hits so the
engine can charge the Table 1 latency, and exposing invalidation hooks used
by the coherence broadcasts of the eager baselines.

Per-set LRU is implemented with ordered dicts (insertion order + move-to-end),
which is both exact and fast enough for the scaled workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import CacheConfig


class SetAssociativeCache:
    """One cache level, tracking resident line identifiers."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        # one slot per set, holding that set's resident lines once the
        # fill that first needs it creates them: a cell touches a small
        # share of the sets, and probes of an untouched set (None)
        # allocate nothing.  A list, not a dict, so a probe stays one
        # index (a dict .get costs an L1 hit ~15 ns more)
        self._sets: List[Optional[Dict[int, None]]] = [None] * self._num_sets
        self._ways = config.associativity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; update LRU and hit/miss counters."""
        entries = self._sets[line % self._num_sets]
        if entries is not None and line in entries:
            self.hits += 1
            # move-to-end == most recently used
            del entries[line]
            entries[line] = None
            return True
        self.misses += 1
        return False

    def fill(self, line: int) -> Optional[int]:
        """Insert ``line``; return the evicted line, if any."""
        index = line % self._num_sets
        entries = self._sets[index]
        if entries is None:
            self._sets[index] = {line: None}
            return None
        if line in entries:
            del entries[line]
            entries[line] = None
            return None
        victim = None
        if len(entries) >= self._ways:
            victim = next(iter(entries))
            del entries[victim]
            self.evictions += 1
        entries[line] = None
        return victim

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if resident; return whether it was."""
        entries = self._sets[line % self._num_sets]
        if entries is not None and line in entries:
            del entries[line]
            return True
        return False

    def contains(self, line: int) -> bool:
        """Probe without touching LRU state or counters."""
        entries = self._sets[line % self._num_sets]
        return entries is not None and line in entries

    def flush(self) -> None:
        """Drop every resident line (counters are preserved)."""
        self._sets = [None] * self._num_sets

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets if s is not None)


class CoreCaches:
    """The private L1 + L2 of one core."""

    def __init__(self, core_id: int, l1: CacheConfig, l2: CacheConfig):
        self.core_id = core_id
        self.l1 = SetAssociativeCache(l1, f"core{core_id}.L1")
        self.l2 = SetAssociativeCache(l2, f"core{core_id}.L2")

    def invalidate(self, line: int) -> None:
        """Invalidate ``line`` from both private levels (coherence)."""
        self.l1.invalidate(line)
        self.l2.invalidate(line)

    def flush(self) -> None:
        """Drop all private cache state."""
        self.l1.flush()
        self.l2.flush()


class CacheHierarchy:
    """Private L1/L2 per core, shared L3, DRAM behind it.

    ``access`` returns the latency of the access and fills all levels on the
    way in.  A small *translation cache* for MVM version-list entries can be
    layered on top by the MVM controller (section 4.1's X-Late cache);
    this class only models data lines.
    """

    LEVEL_L1 = "L1"
    LEVEL_L2 = "L2"
    LEVEL_L3 = "L3"
    LEVEL_MEM = "MEM"

    def __init__(self, machine) -> None:
        self.machine = machine
        self.cores = [CoreCaches(i, machine.l1d, machine.l2)
                      for i in range(machine.cores)]
        self.l3 = SetAssociativeCache(machine.l3, "L3")
        # accesses served per level; the L1 entry is filled in from the
        # cores' l1.hits when read (see level_counts)
        self._level_counts = {self.LEVEL_L1: 0, self.LEVEL_L2: 0,
                              self.LEVEL_L3: 0, self.LEVEL_MEM: 0}
        # hoisted latencies: the per-access path reads these instead of
        # chasing machine-config attribute chains
        self._l1_lat = machine.l1d.latency_cycles
        self._l2_lat = machine.l2.latency_cycles
        self._l3_lat = machine.l3.latency_cycles
        self._mem_lat = machine.memory_latency_cycles
        #: directory-style sharer tracking: line -> set of core ids whose
        #: private caches may hold it.  Kept approximately (eviction of a
        #: line from a private cache does not eagerly clear the bit, as in
        #: real sparse directories) and reconciled on invalidation.
        self._sharers: Dict[int, set] = {}
        self.invalidations_sent = 0

    def access(self, core_id: int, line: int) -> int:
        """Access ``line`` from ``core_id``; return latency in cycles."""
        core = self.cores[core_id]
        l1 = core.l1
        entries = l1._sets[line % l1._num_sets]
        if entries is not None and line in entries:
            # inlined L1 hit (the dominant case): same counter and LRU
            # updates as SetAssociativeCache.lookup, minus three calls;
            # l1.hits is the level's only count (see level_counts).
            # The directory is left alone: a line resident in this L1 got
            # there through _miss_path, which listed the core, and only
            # invalidate_everywhere unlists a core — dropping its private
            # copy in the same step.
            l1.hits += 1
            del entries[line]
            entries[line] = None
            return self._l1_lat
        l1.misses += 1
        return self._miss_path(core, line)[0]

    def access_tracked(self, core_id: int, line: int):
        """Access ``line``; return ``(latency, evicted_private_line)``.

        ``evicted_private_line`` is the line pushed out of this core's
        private hierarchy (its L2 victim), or ``None`` — SI-TM uses it to
        model transactional-line spills to the MVM (section 4.2).
        """
        core = self.cores[core_id]
        l1 = core.l1
        entries = l1._sets[line % l1._num_sets]
        if entries is not None and line in entries:
            l1.hits += 1
            del entries[line]
            entries[line] = None
            return self._l1_lat, None
        l1.misses += 1
        return self._miss_path(core, line)

    @property
    def level_counts(self) -> Dict[str, int]:
        """Accesses served per level.  Only :meth:`access` and
        :meth:`access_tracked` probe an L1, and ``l1.hits`` counts each
        hit there, so the L1 entry is their sum, taken when read."""
        counts = self._level_counts
        counts[self.LEVEL_L1] = sum(core.l1.hits for core in self.cores)
        return counts

    def _miss_path(self, core: CoreCaches, line: int):
        """L1-missing access: probe L2, L3, memory; fill on the way in.

        Every fill of a private cache passes through here, so this is
        where the core joins the line's sharer set.
        """
        sharers = self._sharers.get(line)
        if sharers is None:
            self._sharers[line] = {core.core_id}
        else:
            sharers.add(core.core_id)
        if core.l2.lookup(line):
            core.l1.fill(line)
            self._level_counts[self.LEVEL_L2] += 1
            return self._l2_lat, None
        if self.l3.lookup(line):
            victim = core.l2.fill(line)
            core.l1.fill(line)
            self._level_counts[self.LEVEL_L3] += 1
            return self._l3_lat, victim
        self.l3.fill(line)
        victim = core.l2.fill(line)
        core.l1.fill(line)
        self._level_counts[self.LEVEL_MEM] += 1
        return self._mem_lat, victim

    def shared_access(self, line: int) -> int:
        """Access ``line`` at the shared level only (MVM controller path).

        Used for version-list lookups and commit-time version installs,
        which bypass the private caches (section 4.2: versioning happens
        at the L3/MVM level).
        """
        if self.l3.lookup(line):
            self._level_counts[self.LEVEL_L3] += 1
            return self._l3_lat
        self.l3.fill(line)
        self._level_counts[self.LEVEL_MEM] += 1
        return self._mem_lat

    def invalidate_everywhere(self, line: int, except_core: Optional[int] = None) -> int:
        """Invalidate ``line`` from sharers' private caches.

        Uses the directory's sharer set so only caches that may hold the
        line receive an invalidation; returns how many were sent (eager
        systems charge coherence cost per recipient).
        """
        sharers = self._sharers.get(line)
        if not sharers:
            return 0
        sent = 0
        for core_id in list(sharers):
            if core_id != except_core:
                self.cores[core_id].invalidate(line)
                sharers.discard(core_id)
                sent += 1
        self.invalidations_sent += sent
        return sent

    def sharer_count(self, line: int, except_core: Optional[int] = None) -> int:
        """Number of cores the directory lists as possible sharers."""
        sharers = self._sharers.get(line)
        if not sharers:
            return 0
        return len(sharers - ({except_core} if except_core is not None
                              else set()))

    def invalidate_core(self, core_id: int, line: int) -> None:
        """Invalidate ``line`` from one core's private caches.

        Used at SI-TM commit to force subsequent transactions on other
        cores to re-fetch the newest version (section 4.4: "snapshots need
        to be invalidated during commit").
        """
        self.cores[core_id].invalidate(line)

    def stats(self) -> dict:
        """Aggregate hit/miss statistics across levels."""
        return {
            "levels": dict(self.level_counts),
            "l3": {"hits": self.l3.hits, "misses": self.l3.misses,
                   "evictions": self.l3.evictions},
        }
