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
  die, so cost = base + per_hop x 2·sqrt(cores);
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
    """Latency model for coherence broadcasts and point-to-point messages.

    Cores and topology are fixed, so both costs are constants computed
    once: :attr:`broadcast_cost`, the cycles for a broadcast every core
    snoops (the get-shared/get-exclusive of the eager baselines), and
    :attr:`point_to_point_cost`, the cycles for one average-distance
    message (token handoff etc.).
    """

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
        if topology == "ideal":
            self.broadcast_cost = self.point_to_point_cost = self.BASE_CYCLES
        elif topology == "bus":
            self.broadcast_cost = self.BASE_CYCLES + self.HOP_CYCLES * cores
            self.point_to_point_cost = self.BASE_CYCLES + self.HOP_CYCLES
        else:
            # worst-case hop count across the die
            diameter = 2 * math.ceil(math.sqrt(cores))
            self.broadcast_cost = self.BASE_CYCLES + self.HOP_CYCLES * diameter
            self.point_to_point_cost = (self.BASE_CYCLES + self.HOP_CYCLES
                                        * (diameter // 2))
