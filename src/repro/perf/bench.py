"""The simulator's pinned capacity-bounds config.

:data:`CAPACITY_CONFIG` is shared by the golden digests, the parked
begin tests and perfbench's ``sim_observed`` cells.  perfbench imports
this module by name and reads :data:`SUITES`, so both names stay here
until they can move beside :class:`~repro.common.config.SimConfig`
together with perfbench's import.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.common.config import SimConfig, TMConfig
from repro.sim.retry import RetryPolicy

__all__ = ["CAPACITY_CONFIG", "SUITES"]

#: tight read/write-set limits with escalation-based termination; the
#: hybrid backend runs on its own built-in bounds and lock fallback
CAPACITY_CONFIG = SimConfig(
    tm=TMConfig(read_set_limit=8, write_set_limit=8),
    retry=RetryPolicy(attempt_budget=4, stall_budget=16,
                      starvation_age_cycles=50_000))
#: the name perfbench reads the capacity config under
SUITES = {"capacity": SimpleNamespace(config=CAPACITY_CONFIG)}
