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

``site`` is an optional source-location tag (e.g. ``"list.remove:unlink"``)
used by the write-skew tool (section 5.1) to report *where* an anomalous
read or write lives — the analogue of the paper's PIN callstack backtrace.

``Read(addr, site, True)`` is a **promoted read** (section 5.1): it is
inserted into the write set for conflict detection but creates no new data
version.

The arguments are positional-only: ``Read(addr, site, promote)`` and
``Write(addr, value, site)``.  A descriptor is built once per simulated
access, and calling a class with keyword arguments makes the interpreter
build a dict for them on every call, roughly doubling the construction
cost; positional-only parameters leave one way to write a descriptor.
"""

from __future__ import annotations


class Op:
    """Base class of all operation descriptors."""

    __slots__ = ()


class Read(Op):
    """Transactional load of one word."""

    __slots__ = ("addr", "site", "promote")

    def __init__(self, addr: int, site: str = "", promote: bool = False,
                 /):
        self.addr = addr
        self.site = site
        self.promote = promote

    def __repr__(self) -> str:
        flags = ", promote=True" if self.promote else ""
        return f"Read({self.addr:#x}{flags})"


class Write(Op):
    """Transactional store of one word."""

    __slots__ = ("addr", "value", "site")

    def __init__(self, addr: int, value: int, site: str = "", /):
        self.addr = addr
        self.value = value
        self.site = site

    def __repr__(self) -> str:
        return f"Write({self.addr:#x}, {self.value})"


class Compute(Op):
    """Non-memory work inside a transaction, charged at ``cycles``."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int = 1):
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Compute({self.cycles})"


class Abort(Op):
    """Explicit user-requested abort/retry of the running transaction."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Abort()"
