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

from typing import Optional

from repro.common.config import SimConfig
from repro.faults import FaultInjector
from repro.mem.address import AddressMap
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
        if self.address_map.is_mvm(addr):
            line = self.address_map.line_of(addr)
            data = self.mvm.plain_read(line)
            if data is None:
                return 0
            return data[self.address_map.word_in_line(addr)]
        return self.backing.load(addr)

    def plain_store(self, addr: int, value: int) -> None:
        """Store one word outside any transaction (in-place update)."""
        if self.address_map.is_mvm(addr):
            line = self.address_map.line_of(addr)
            data = self.mvm.plain_read(line)
            if data is None:
                words = [0] * self.address_map.words_per_line
            else:
                words = list(data)
            words[self.address_map.word_in_line(addr)] = value
            self.mvm.plain_write(line, tuple(words))
        else:
            self.backing.store(addr, value)

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
