"""Discrete-event simulation: machine state, engine, statistics."""

from repro.sim.engine import Engine, Tracer, TransactionSpec
from repro.sim.machine import Machine
from repro.sim.retry import RetryPolicy
from repro.sim.stats import RunStats, ThreadStats

__all__ = [
    "Engine",
    "Machine",
    "RetryPolicy",
    "RunStats",
    "ThreadStats",
    "Tracer",
    "TransactionSpec",
]
