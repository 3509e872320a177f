"""The simulated machine: one object bundling all hardware state.

A :class:`Machine` owns the backing store, heap, cache hierarchy, global
timestamp clock and MVM controller described by a
:class:`~repro.common.config.SimConfig`.  TM systems and workloads share a
single machine per run; creating a fresh machine gives a fully cold start.

The machine also provides the *non-transactional* access path (section 3):
plain reads return the newest version; plain writes update the newest
version in place.  For the MVM region these route through the MVM
controller so that non-transactional setup code and transactional code
observe one coherent memory.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.config import SimConfig
from repro.faults import FaultInjector
from repro.mem.address import MVM_REGION_BASE, AddressMap
from repro.mem.backing import BackingStore
from repro.mem.cache import CacheHierarchy
from repro.mem.heap import Heap
from repro.mem.interconnect import Interconnect
from repro.mvm.controller import MVMController
from repro.mvm.timestamps import GlobalClock


class Machine:
    """All simulated hardware state for one run."""

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()
        #: telemetry registry (:class:`repro.obs.metrics.MetricsRegistry`)
        #: or None — the default — when telemetry is off.  Set via
        #: :meth:`enable_telemetry`; TM systems and the engine read it.
        self.metrics = None
        #: cycle profiler (:class:`repro.obs.profile.CycleProfiler`) or
        #: None — the default — when profiling is off.  Set via
        #: :meth:`enable_profiling`; same zero-overhead contract as
        #: ``metrics``.
        self.profiler = None
        self.address_map = AddressMap(self.config.machine.words_per_line)
        self.backing = BackingStore()
        self.heap = Heap(self.address_map)
        self.caches = CacheHierarchy(self.config.machine)
        self.interconnect = Interconnect(self.config.machine.cores,
                                         self.config.machine.interconnect)
        self.clock = GlobalClock(delta=self.config.mvm.commit_delta,
                                 max_timestamp=self.config.mvm.max_timestamp)
        self.mvm = MVMController(self.config.mvm, self.address_map, self.clock)
        #: fault injector (:class:`repro.faults.FaultInjector`) or None
        #: — the default — when the config carries no active plan.  The
        #: engine, MVM controller and global clock share this instance;
        #: all of them guard with ``is not None`` (same zero-overhead
        #: contract as ``metrics``/``profiler``).
        self.faults = None
        if self.config.faults is not None and self.config.faults.active():
            self.faults = FaultInjector(self.config.faults)
            self.clock.faults = self.faults
            self.mvm.faults = self.faults

    def enable_telemetry(self, registry) -> None:
        """Attach a metrics registry to every emitting layer.

        Telemetry stays off (``metrics is None`` everywhere, one pointer
        test per potential emission) unless this is called; the runner's
        ``telemetry=True`` path is the only caller in normal operation.
        """
        self.metrics = registry
        self.mvm.metrics = registry

    def enable_profiling(self, profiler) -> None:
        """Attach a cycle profiler to every accounting layer.

        Profiling stays off (``profiler is None`` everywhere, one
        pointer test per instrumented site) unless this is called —
        either directly or by ``CycleProfiler.attach_engine`` when the
        profiler sits in the engine's tracer slot.
        """
        self.profiler = profiler
        self.mvm.profiler = profiler

    # ------------------------------------------------------------------
    # non-transactional (plain) accesses — functional only, no timing.
    # Setup code runs before the simulated region of interest, so it is
    # not charged cycles; in-simulation plain accesses go through the TM
    # system which charges cache latency.

    def plain_load(self, addr: int) -> int:
        """Load one word outside any transaction (newest version)."""
        if addr < MVM_REGION_BASE:
            return self.backing.load(addr)
        line, word = divmod(addr, self.address_map.words_per_line)
        data = self.mvm.plain_read(line)
        return 0 if data is None else data[word]

    def plain_store(self, addr: int, value: int) -> None:
        """Store one word outside any transaction (in-place update)."""
        self.plain_fill(addr, (value,))

    def plain_fill(self, addr: int, values: Sequence[int]) -> None:
        """Store ``values`` at consecutive words from ``addr`` (in place).

        The same final state as one :meth:`plain_store` per word, reached
        with one MVM plain write per line the range covers: a line the
        range covers whole is written without being read, a partly
        covered one is read once and merged.  Like a word store, a write
        to a line with no version creates version 0 (even all zeros) and
        otherwise overwrites the newest version in place (section 3).
        """
        if addr < MVM_REGION_BASE:
            store = self.backing.store
            for offset, value in enumerate(values):
                store(addr + offset, value)
            return
        per_line = self.address_map.words_per_line
        # plain_read/plain_write are looked up on each use, never bound
        # ahead: a tracer (perfbench) wraps them on the instance
        mvm = self.mvm
        line, offset = divmod(addr, per_line)
        pos, end = 0, len(values)
        while pos < end:
            stop = pos + per_line - offset  # where this line ends in values
            if offset or stop > end:
                if stop > end:
                    stop = end
                old = mvm.plain_read(line)
                words = [0] * per_line if old is None else list(old)
                words[offset:offset + stop - pos] = values[pos:stop]
                data = tuple(words)
            else:
                data = tuple(values[pos:stop])
            mvm.plain_write(line, data)
            pos = stop
            line += 1
            offset = 0

    def line_data(self, line: int) -> tuple:
        """Current committed contents of ``line`` as a word tuple."""
        if self.address_map.is_mvm_line(line):
            data = self.mvm.plain_read(line)
            if data is not None:
                return data
            return tuple([0] * self.address_map.words_per_line)
        return tuple(self.backing.load_line(
            self.address_map.words_of_line(line)))

    # ------------------------------------------------------------------
    # allocation façade

    def malloc(self, words: int) -> int:
        """Allocate conventional memory."""
        return self.heap.malloc(words)

    def mvmalloc(self, words: int) -> int:
        """Allocate multiversioned shared memory (section 4.4)."""
        return self.heap.mvmalloc(words)

    def free(self, addr: int) -> None:
        """Free a heap allocation."""
        self.heap.free(addr)
