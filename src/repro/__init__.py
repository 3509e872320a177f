"""SI-TM: snapshot-isolation transactional memory (ASPLOS 2014 reproduction).

Public API quick tour::

    from repro import Machine, Engine, TransactionSpec, Read, Write, SplitRandom
    from repro.tm import SnapshotIsolationTM

    machine = Machine()
    counter = machine.mvmalloc(1)

    def increment():
        value = yield Read(counter)
        yield Write(counter, value + 1)

    tm = SnapshotIsolationTM(machine, SplitRandom(7))
    specs = [[TransactionSpec(increment, "inc")] for _ in range(4)]
    stats = Engine(tm, specs).run()

Higher layers: :mod:`repro.structures` (transactional data structures),
:mod:`repro.workloads` (STAMP-like kernels + RSTM-like microbenchmarks),
:mod:`repro.skew` (write-skew detection and read promotion), and
:mod:`repro.harness` (the per-figure experiment drivers).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.common": ("AbortCause", "MachineConfig", "MVMConfig",
                     "SimConfig", "SplitRandom", "TMConfig",
                     "TransactionAborted", "VersionCapPolicy"),
    "repro.faults": ("FaultPlan",),
    "repro.sim.engine": ("Engine", "TransactionSpec"),
    "repro.sim.machine": ("Machine",),
    "repro.sim.retry": ("RetryPolicy",),
    "repro.sim.stats": ("RunStats",),
    "repro.tm": ("SYSTEMS", "Abort", "Compute", "HybridHTM", "Read",
                 "SerializableSITM", "SnapshotIsolationTM", "SONTM",
                 "TwoPhaseLockingTM", "Write"),
})
__all__.append("__version__")
