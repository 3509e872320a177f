"""Base plumbing for transactional data structures.

Every structure in this package is written once against the TM operation
protocol: methods are generators that ``yield`` :class:`~repro.tm.ops.Read`
and :class:`~repro.tm.ops.Write` descriptors and compose with
``yield from``.  A structure method can therefore run inside any
transaction body, under any of the four TM systems, unchanged — the
reproduction's analogue of RSTM's container library (section 6.2).

Conventions:

* the null pointer is address ``0`` (the heap never hands out address 0);
* nodes are allocated **line-aligned**, one node per cache line, so
  line-granularity conflict detection conflicts per *element* — matching
  the behaviour the paper measures for List and RBTree;
* every read/write carries a ``site`` tag (``"structure.method:field"``)
  so the write-skew tool can attribute anomalies to source locations,
  like the paper's PIN callstack backtraces (section 5.1);
* a simulated access costs no frame beyond the method that yields it:
  descriptors are built positionally (``Read(addr, site, promote)``,
  ``Write(addr, value, site)``; a keyword call builds a dict per
  descriptor), and traversal caps and bounds are tested inline, calling
  a helper only to raise;
* methods take no TM handle: the engine supplies TM semantics, the
  structure supplies pure access patterns.

Setup (``build``/``populate`` class methods) runs non-transactionally via
:class:`~repro.sim.machine.Machine` plain accesses, mirroring STAMP's
single-threaded initialisation phases.
"""

from __future__ import annotations

from typing import Generator

from repro.common.errors import StructureCorrupted
from repro.sim.machine import Machine
from repro.tm.ops import READ, WRITE, Op, Read, Write

NULL = 0

TxGen = Generator[Op, object, object]


# Methods with a body of their own yield ``Read``/``Write`` directly (a
# helper generator per access is the simulator's per-op overhead in a
# traversal loop); these two are for accessors that *return* a generator.

def read(addr: int, site: str = "", promote: bool = False) -> TxGen:
    """Yield one transactional load and return its value."""
    value = yield Read(addr, site, promote)
    return value


def write(addr: int, value: int, site: str = "") -> TxGen:
    """Yield one transactional store."""
    yield Write(addr, value, site)
    return None


class TxStructure:
    """Common base: remembers the machine and allocates in the MVM region."""

    #: traversal-step bound; a pointer cycle created by an un-fixed write
    #: skew would otherwise spin a transaction forever
    TRAVERSAL_CAP = 1 << 17

    def __init__(self, machine: Machine):
        self.machine = machine

    def _guard(self, where: str) -> None:
        """Fail fast once a traversal ran impossibly long (a cycle).  A
        loop tests ``steps > self.TRAVERSAL_CAP`` inline and calls this
        only once the cap is passed, so a step pays no call."""
        raise StructureCorrupted(
            f"{where}: traversal exceeded {self.TRAVERSAL_CAP} steps; "
            "the structure likely contains a pointer cycle caused by a "
            "write-skew anomaly (see repro.skew)")

    def _alloc(self, words: int) -> int:
        """Allocate shared multiversioned memory for structure state."""
        return self.machine.mvmalloc(words)

    def _plain(self, addr: int) -> int:
        """Non-transactional read (setup/verification only)."""
        return self.machine.plain_load(addr)

    def _plain_store(self, addr: int, value: int) -> None:
        """Non-transactional write (setup only)."""
        self.machine.plain_store(addr, value)

    def _run_plain(self, gen: TxGen) -> object:
        """Drive a structure generator against plain memory (setup only):
        reads and writes apply immediately, anything else is skipped."""
        try:
            op = next(gen)
            while True:
                kind = op[0]
                if kind is READ:
                    op = gen.send(self.machine.plain_load(op[1]))
                elif kind is WRITE:
                    self.machine.plain_store(op[1], op[2])
                    op = gen.send(None)
                else:
                    op = gen.send(None)
        except StopIteration as stop:
            return stop.value
