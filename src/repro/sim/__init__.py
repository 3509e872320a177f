"""Discrete-event simulation: machine state, engine, statistics."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sim.engine": ("Engine", "Tracer", "TransactionSpec"),
    "repro.sim.machine": ("Machine",),
    "repro.sim.retry": ("RetryPolicy",),
    "repro.sim.stats": ("RunStats", "ThreadStats"),
})
