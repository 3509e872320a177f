"""The eager backends' line -> writers directory (``TMSystem._line_writers``).

Two contracts:

* **the directory is exactly the active write sets, inverted** — after
  every TM call, on every backend that fills it, ``_line_writers`` equals
  ``{line: {tid: txn}}`` over the active transactions holding the line
  in ``write_lines`` (lines without a writer absent), and it is empty
  once every transaction has ended — across aborts, capacity aborts
  raised *inside* ``write`` and commits that raise;
* **probing it is the old scan** — the same seeded 16-thread program run
  against subclasses whose reads walk ``others()`` (the code the
  directory replaced, kept here as the reference) produces identical
  ``RunStats``, abort causes, conflict lines and killer identities.
"""

import random

import pytest

from repro.common.config import SimConfig, TMConfig
from repro.common.errors import AbortCause, TransactionAborted
from repro.common.rng import SplitRandom
from repro.sim.engine import Engine, TransactionSpec
from repro.sim.machine import Machine
from repro.tm import SONTM, EagerLogTM, HybridHTM, TwoPhaseLockingTM
from repro.tm.api import StallRequested
from repro.tm.ops import Read, Write

THREADS = 6
LINES = 5

#: name -> (backend class, TMConfig overrides, instance attributes)
VARIANTS = {
    "2PL": (TwoPhaseLockingTM, {}, {}),
    "2PL-tight": (TwoPhaseLockingTM,
                  {"write_set_limit": 2, "version_buffer_limit": 5}, {}),
    "SONTM": (SONTM, {}, {}),
    "SONTM-tight": (SONTM, {"write_set_limit": 2, "read_set_limit": 3}, {}),
    "LogTM": (EagerLogTM, {}, {}),
    "LogTM-tight": (EagerLogTM, {"write_set_limit": 2}, {}),
    "HybridHTM": (HybridHTM, {"write_set_limit": 2}, {}),
    "HybridHTM-no-lock": (HybridHTM, {"write_set_limit": 2},
                          {"fallback_serializes": False}),
}


def build(variant, seed, cls=None):
    """A cold machine and the variant's backend (or ``cls`` in its place)."""
    variant_cls, tm_overrides, attrs = VARIANTS[variant]
    cls = cls or variant_cls
    machine = Machine(SimConfig(tm=TMConfig(**tm_overrides)))
    tm = cls(machine, SplitRandom(seed))
    for name, value in attrs.items():
        setattr(tm, name, value)
    return machine, tm


def inverted_write_sets(tm):
    model = {}
    for txn in tm.active_txns.values():
        for line in txn.write_lines:
            model.setdefault(line, {})[txn.thread_id] = txn
    return model


def check(tm):
    assert tm._line_writers == inverted_write_sets(tm)


class Driver:
    """Drives one backend the way the engine does, checking every call."""

    def __init__(self, variant, seed):
        self.rng = random.Random(seed)
        self.machine, self.tm = build(variant, seed)
        wpl = self.machine.address_map.words_per_line
        base = self.machine.mvmalloc(LINES * wpl)
        self.addrs = range(base, base + LINES * wpl)
        self.txns = [None] * THREADS
        self.attempts = [0] * THREADS
        self.now = 0
        self.ended = {"commit": 0, "abort": 0, "raised-in-write": 0,
                      "raised-in-commit": 0}

    def abort(self, tid, cause):
        self.tm.abort(self.txns[tid], cause)
        check(self.tm)
        self.txns[tid] = None
        self.attempts[tid] += 1
        self.ended["abort"] += 1

    def step(self):
        rng, tm = self.rng, self.tm
        self.now += 10
        tid = rng.randrange(THREADS)
        txn = self.txns[tid]
        if txn is None:
            self.txns[tid], _ = tm.begin(tid, "t", self.attempts[tid])
            check(tm)
            return
        if txn.doomed is not None:
            self.abort(tid, txn.doomed)
            return
        action = rng.choices(("read", "write", "commit", "abort"),
                             (5, 5, 2, 1))[0]
        try:
            if action == "read":
                tm.read(txn, rng.choice(self.addrs))
            elif action == "write":
                tm.write(txn, rng.choice(self.addrs), rng.randrange(100))
            elif action == "commit":
                tm.commit(txn, self.now)
                self.txns[tid] = None
                self.attempts[tid] = 0
                self.ended["commit"] += 1
            else:
                self.abort(tid, AbortCause.EXPLICIT)
                return
        except StallRequested:
            pass
        except TransactionAborted as exc:
            if action != "read":
                self.ended[f"raised-in-{action}"] += 1
            check(tm)
            self.abort(tid, exc.cause)
            return
        check(tm)

    def drain(self):
        """End every transaction still in flight."""
        for tid, txn in enumerate(self.txns):
            if txn is not None:
                self.abort(tid, txn.doomed or AbortCause.EXPLICIT)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_directory_is_the_inverted_active_write_sets(variant, seed):
    driver = Driver(variant, seed)
    for _ in range(1500):
        driver.step()
    driver.drain()
    assert driver.tm.active_txns == {}
    assert driver.tm._line_writers == {}
    assert driver.ended["commit"] and driver.ended["abort"]


def test_the_state_machine_reaches_the_raising_paths():
    """Capacity aborts inside ``write`` and raising commits both occur,
    so the no-leak assertion above covers them."""
    raised = {"raised-in-write": 0, "raised-in-commit": 0}
    for variant in VARIANTS:
        driver = Driver(variant, 0)
        for _ in range(1500):
            driver.step()
        for key in raised:
            raised[key] += driver.ended[key]
    assert raised["raised-in-write"] and raised["raised-in-commit"]


def test_snapshot_backends_leave_the_directory_empty():
    from repro.tm import SnapshotIsolationTM

    machine = Machine()
    tm = SnapshotIsolationTM(machine, SplitRandom(1))
    addr = machine.mvmalloc(1)
    txn, _ = tm.begin(0, "t", 0)
    tm.write(txn, addr, 1)
    assert tm._line_writers == {}


# --------------------------------------------------------------------
# differential: the directory probe against the others() scan
# --------------------------------------------------------------------

def _scan_read_2pl(self, txn, addr, promote=False):
    """``TwoPhaseLockingTM.read`` as it was before the directory."""
    buffered = txn.write_buffer.get(addr)
    line = self.amap.line_of(addr)
    if buffered is not None:
        return buffered, self.config.machine.l1d.latency_cycles
    cycles = self.machine.caches.access(txn.thread_id, line)
    if line not in txn.read_lines:
        cycles += self._broadcast_cost
        for other in self.others(txn):
            if line in other.write_lines:
                other.doom(AbortCause.READ_WRITE, line, txn)
        txn.read_lines.add(line)
        self._charge_read_capacity(txn, line)
    return self.machine.plain_load(addr), cycles


class Scan2PL(TwoPhaseLockingTM):
    read = _scan_read_2pl


class ScanHybrid(HybridHTM):
    def read(self, txn, addr, promote=False):
        if txn.thread_id in self.fallback_threads:
            return HybridHTM.read(self, txn, addr, promote)
        return _scan_read_2pl(self, txn, addr, promote)


class ScanSONTM(SONTM):
    def read(self, txn, addr, promote=False):
        buffered = txn.write_buffer.get(addr)
        line = self.amap.line_of(addr)
        if buffered is not None:
            return buffered, self.config.machine.l1d.latency_cycles
        cycles = self.machine.caches.access(txn.thread_id, line)
        if line not in txn.read_lines:
            cycles += self._broadcast_cost
            committed_writer = self.write_numbers.get(line)
            if committed_writer is not None:
                txn.son_lo = max(txn.son_lo, committed_writer + 1)
            for other in self.others(txn):
                if line in other.write_lines:
                    self._order(txn, other)
            txn.read_lines.add(line)
            self._charge_read_capacity(txn, line)
        return self.machine.plain_load(addr), cycles


class ScanLogTM(EagerLogTM):
    def _conflicting_owner(self, txn, line, for_write):
        for other in self.others(txn):
            if line in other.write_lines:
                return other
            if for_write and line in other.read_lines:
                return other
        return None


SCAN_REFERENCE = {TwoPhaseLockingTM: Scan2PL, HybridHTM: ScanHybrid,
                  SONTM: ScanSONTM, EagerLogTM: ScanLogTM}


def _program(machine, seed, threads=16, txns=6, cells=160):
    """Per-thread spec lists over one shared region (20 lines of 8)."""
    base = machine.mvmalloc(cells)
    rng = random.Random(seed)

    def body_factory(ops):
        def body():
            total = 0
            for kind, cell, value in ops:
                if kind == "r":
                    total += yield Read(base + cell)
                else:
                    yield Write(base + cell, value + total % 7)
        return body

    programs = []
    for tid in range(threads):
        specs = []
        for index in range(txns):
            ops = [(rng.choice("rrw"), rng.randrange(cells),
                    rng.randrange(100))
                   for _ in range(rng.randrange(2, 9))]
            specs.append(TransactionSpec(body_factory(ops),
                                         f"t{tid}.{index}"))
        programs.append(specs)
    return programs


def _run(cls, variant, seed):
    machine, tm = build(variant, seed, cls)
    aborts = []
    real_abort = tm.abort

    def logging_abort(txn, cause):
        aborts.append((txn.thread_id, txn.uid, cause.value,
                       txn.conflict_line, txn.killer_tid, txn.killer_uid,
                       txn.killer_label, txn.killer_ts))
        return real_abort(txn, cause)

    tm.abort = logging_abort
    stats = Engine(tm, _program(machine, seed)).run()
    return stats.to_dict(), aborts


@pytest.mark.parametrize("seed", (3, 11))
# the tight 2PL/SONTM/LogTM variants are left out: without a fallback or
# a retry policy a transaction wider than its limit never commits
@pytest.mark.parametrize("variant", ("2PL", "SONTM", "LogTM", "HybridHTM",
                                     "HybridHTM-no-lock"))
def test_directory_reads_match_the_scan_reads(variant, seed):
    cls = VARIANTS[variant][0]
    stats, aborts = _run(cls, variant, seed)
    ref_stats, ref_aborts = _run(SCAN_REFERENCE[cls], variant, seed)
    assert aborts, "the program must actually conflict"
    assert any(entry[4] is not None for entry in aborts), \
        "some abort must name a killer"
    assert aborts == ref_aborts
    assert stats == ref_stats
