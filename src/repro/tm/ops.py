"""Operation descriptors yielded by transaction bodies.

Transaction bodies are Python generators: they ``yield`` one of these
descriptors per transactional action and receive the action's result (for
reads, the loaded value) back from the engine.  This gives the
discrete-event engine an instruction-level interleaving point at every
transactional memory access — the granularity at which conflicts arise —
without threads or monkey-patching::

    def withdraw(account_addr, amount):
        balance = yield Read(account_addr)
        if balance >= amount:
            yield Write(account_addr, balance - amount)

A descriptor is a plain 4-tuple led by its kind: a run yields millions,
so building one creates no instance, and the engine
(:meth:`repro.sim.engine.Engine.run`) unpacks it once and executes every
kind in its loop.  The four constructors below are the one way to write
a descriptor.

``site`` is an optional source-location tag (e.g. ``"list.remove:unlink"``)
used by the write-skew tool (section 5.1) to report *where* an anomalous
read or write lives — the analogue of the paper's PIN callstack backtrace.

``Read(addr, site, True)`` is a **promoted read** (section 5.1): it is
inserted into the write set for conflict detection but creates no new data
version.

The arguments are positional-only: a keyword call builds a dict per
descriptor.
"""

from __future__ import annotations

#: the kinds that lead a descriptor
READ = "Read"
WRITE = "Write"
COMPUTE = "Compute"
ABORT = "Abort"

#: annotation alias: a descriptor is a tuple
Op = tuple

_ABORT = (ABORT, None, None, None)


def Read(addr: int, site: str = "", promote: bool = False, /) -> Op:
    """Transactional load of one word: ``(READ, addr, site, promote)``."""
    return (READ, addr, site, promote)


def Write(addr: int, value: int, site: str = "", /) -> Op:
    """Transactional store of one word: ``(WRITE, addr, value, site)``."""
    return (WRITE, addr, value, site)


def Compute(cycles: int = 1, /) -> Op:
    """Non-memory work inside a transaction, charged at ``cycles``."""
    return (COMPUTE, cycles, None, None)


def Abort() -> Op:
    """Explicit user-requested abort/retry of the running transaction."""
    return _ABORT
