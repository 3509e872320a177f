"""On-chip interconnect cost model.

The eager baselines broadcast every transactional access over the
coherence fabric (section 6.1); the cost of such a broadcast is not a
constant — it grows with the number of cores that must snoop or be
reached through a directory.  SI-TM's lazy design emits no coherence
traffic on transactional accesses, which is precisely why it scales; a
flat broadcast cost would understate that advantage at 32 cores.

Three topologies are modelled, selectable in
:class:`~repro.common.config.MachineConfig`:

* ``bus`` — snooping bus: every broadcast serialises all cores,
  cost = base + per_hop x cores;
* ``mesh`` — 2D mesh: messages travel ~2·sqrt(cores) hops to cross the
  die, multicast to ``n`` recipients costs the max route, so
  cost = base + per_hop x 2·sqrt(cores) (+ per-recipient delivery);
* ``ideal`` — a constant-cost fabric (the model used by many HTM
  evaluations; our pre-interconnect behaviour).

The model is deliberately latency-only (no occupancy/queuing): the
engine's per-thread clocks have no global "now" at access time, and the
paper's own evaluation does not model fabric contention either.
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigError

TOPOLOGIES = ("bus", "mesh", "ideal")


class Interconnect:
    """Latency model for coherence broadcasts and point-to-point messages."""

    #: cycles to inject a message into the fabric
    BASE_CYCLES = 8
    #: cycles per hop / per snooping core
    HOP_CYCLES = 2

    def __init__(self, cores: int, topology: str = "mesh"):
        if topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")
        if cores < 1:
            raise ConfigError("need at least one core")
        self.cores = cores
        self.topology = topology
        self.broadcasts = 0
        self.multicasts = 0
        #: worst-case hop count across the die (mesh)
        self._diameter = 2 * math.ceil(math.sqrt(cores))
        # cores and topology are fixed, so the two per-message costs the
        # eager baselines pay on every first-touch access are constants
        if topology == "ideal":
            self._broadcast = self._point_to_point = self.BASE_CYCLES
        elif topology == "bus":
            self._broadcast = self.BASE_CYCLES + self.HOP_CYCLES * cores
            self._point_to_point = self.BASE_CYCLES + self.HOP_CYCLES
        else:
            self._broadcast = (self.BASE_CYCLES
                               + self.HOP_CYCLES * self._diameter)
            self._point_to_point = (self.BASE_CYCLES + self.HOP_CYCLES
                                    * (self._diameter // 2))

    def broadcast_cost(self) -> int:
        """Cycles for a broadcast that every core snoops (get-shared/
        get-exclusive of the eager baselines)."""
        self.broadcasts += 1
        return self._broadcast

    def multicast_cost(self, recipients: int) -> int:
        """Cycles to deliver to ``recipients`` specific cores (directory
        invalidations, write-set broadcast to read-history tables)."""
        self.multicasts += 1
        if recipients <= 0:
            return 0
        if self.topology == "ideal":
            return self.BASE_CYCLES
        if self.topology == "bus":
            return self.BASE_CYCLES + self.HOP_CYCLES * recipients
        # mesh: the farthest recipient dominates; delivery fans out
        return (self.BASE_CYCLES + self.HOP_CYCLES * self._diameter
                + max(0, recipients - 1))

    def point_to_point_cost(self) -> int:
        """Cycles for one average-distance message (token handoff etc.)."""
        return self._point_to_point

    def stats(self) -> dict:
        """Message counters."""
        return {"broadcasts": self.broadcasts,
                "multicasts": self.multicasts,
                "topology": self.topology}
