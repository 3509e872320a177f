"""Isolation-level oracle: full-history recording, checking, fuzzing.

The oracle closes the loop the paper leaves implicit: every TM system
*declares* an isolation level (:class:`repro.tm.api.IsolationLevel`) and
this package *verifies* it.  A :class:`~repro.sim.history.HistoryRecorder`
captures the complete global history of a run — begins with start
timestamps, reads with the value observed, writes, commits with end
timestamps, aborts with their cause — and the Adya-style checker
(:mod:`repro.oracle.checker`) validates the history against the declared
level.  The deterministic schedule fuzzer (:mod:`repro.oracle.fuzz`) then
drives randomized transaction mixes through every backend, cross-checks
them, and shrinks any violation to a minimal persisted repro
(:mod:`repro.oracle.shrink`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.oracle.checker": ("Violation", "check_history"),
    "repro.oracle.fuzz": ("FuzzResult", "FuzzSpec", "fuzz_batch",
                          "generate_schedule", "run_schedule"),
    "repro.oracle.shrink": ("persist_repro", "shrink_schedule"),
    "repro.sim.history": ("History", "HistoryRecorder", "TxnRecord"),
})
