"""Golden op streams: what every structure method yields, pinned.

Structure methods are access *patterns*: the engine sees nothing of them
but the sequence of :class:`~repro.tm.ops.Read` / ``Write`` descriptors
they yield.  Each structure is driven through a seeded script of method
calls against plain memory, and the ``(type, addr, value, site,
promote)`` tuples of every op are hashed per method.  The digests in
``tests/corpus/structure_ops_golden.json`` were recorded at the commit
named in the file, when every access still went through the
``structures.base.read`` / ``write`` helper generators — so a rewrite of
*how* a method yields (directly, or through a helper) provably yields
the same ops in the same order.  ``tests/golden.py`` re-records it
(only when a structure's access pattern is meant to change).
"""

import random

import pytest

from repro.sim.machine import Machine
from repro.structures.array import TxArray
from repro.structures.dlist import TxDoublyLinkedList
from repro.structures.hashmap import TxHashMap
from repro.structures.linked_list import TxLinkedList
from repro.structures.queue import TxCounter, TxQueue
from repro.structures.rbtree import TxRedBlackTree
from repro.structures.skiplist import TxSkipList
from repro.tm.ops import READ, WRITE
from tests import golden as golden_corpus

GOLDEN = golden_corpus.Corpus(
    "structure_ops_golden.json",
    "sha256 over repr((type, addr, value, site, promote)) per op, "
    "newline-terminated, in yield order")
#: method calls per scripted structure
CALLS = 160
KEYS = 48


def _drive(machine, gen, sink):
    """Run ``gen`` against plain memory, appending every op to ``sink``."""
    try:
        op = next(gen)
        while True:
            kind, addr, arg, arg2 = op
            if kind is READ:
                sink.append(("Read", addr, None, arg, arg2))
                op = gen.send(machine.plain_load(addr))
            elif kind is WRITE:
                sink.append(("Write", addr, arg, arg2, None))
                machine.plain_store(addr, arg)
                op = gen.send(None)
            else:
                sink.append((kind, None, None, None, None))
                op = gen.send(None)
    except StopIteration as stop:
        return stop.value


def _key(rng):
    return rng.randrange(KEYS)


def _set_like(cls, populate, **kwargs):
    def build(machine, rng):
        structure = cls(machine, **kwargs)
        structure.populate(populate(rng))
        return structure
    return build


def _keys(rng):
    return rng.sample(range(KEYS), KEYS // 2)


def _pairs(rng):
    return [(key, key * 3) for key in _keys(rng)]


#: scripted structure -> (build, {method: argument maker})
SCRIPTS = {
    "TxArray": (
        lambda machine, rng: TxArray(machine, 24),
        {"get": lambda r: (r.randrange(24),),
         "set": lambda r: (r.randrange(24), r.randrange(100)),
         "add": lambda r: (r.randrange(24), r.randrange(1, 5)),
         "sum_all": lambda r: (),
         "sum_range": lambda r: (r.randrange(12), 12 + r.randrange(12))}),
    "TxLinkedList": (
        _set_like(TxLinkedList, _keys),
        {"lookup": lambda r: (_key(r),), "insert": lambda r: (_key(r),),
         "remove": lambda r: (_key(r),), "length": lambda r: ()}),
    "TxLinkedList[skew_safe]": (
        _set_like(TxLinkedList, _keys, skew_safe=True),
        {"insert": lambda r: (_key(r),), "remove": lambda r: (_key(r),)}),
    "TxDoublyLinkedList": (
        _set_like(TxDoublyLinkedList, _keys),
        {"lookup": lambda r: (_key(r),), "insert": lambda r: (_key(r),),
         "remove": lambda r: (_key(r),), "length": lambda r: ()}),
    "TxDoublyLinkedList[skew_safe]": (
        _set_like(TxDoublyLinkedList, _keys, skew_safe=True),
        {"insert": lambda r: (_key(r),), "remove": lambda r: (_key(r),)}),
    "TxHashMap": (
        _set_like(TxHashMap, _pairs, buckets=8),
        {"get": lambda r: (_key(r),), "contains": lambda r: (_key(r),),
         "put": lambda r: (_key(r), r.randrange(100)),
         "increment": lambda r: (_key(r), r.randrange(1, 4)),
         "remove": lambda r: (_key(r),)}),
    "TxQueue": (
        lambda machine, rng: TxQueue(machine, capacity=6),
        {"enqueue": lambda r: (r.randrange(100),),
         "dequeue": lambda r: (), "size": lambda r: ()}),
    "TxCounter": (
        lambda machine, rng: TxCounter(machine, 5),
        {"get": lambda r: (), "add": lambda r: (r.randrange(1, 4),)}),
    "TxSkipList": (
        _set_like(TxSkipList, _pairs),
        {"lookup": lambda r: (_key(r),),
         "insert": lambda r: (_key(r), r.randrange(100)),
         "remove": lambda r: (_key(r),), "length": lambda r: ()}),
    "TxSkipList[skew_safe]": (
        _set_like(TxSkipList, _pairs, skew_safe=True),
        {"insert": lambda r: (_key(r), r.randrange(100)),
         "remove": lambda r: (_key(r),)}),
    "TxRedBlackTree": (
        _set_like(TxRedBlackTree, _keys),
        {"lookup": lambda r: (_key(r),),
         "insert": lambda r: (_key(r), r.randrange(100)),
         "remove": lambda r: (_key(r),)}),
    "TxRedBlackTree[skew_safe]": (
        _set_like(TxRedBlackTree, _keys, skew_safe=True),
        {"insert": lambda r: (_key(r), r.randrange(100)),
         "remove": lambda r: (_key(r),)}),
}


def op_stream_digests(name):
    """``{"<name>.<method>": sha256}`` plus op counts for one script."""
    build, methods = SCRIPTS[name]
    rng = random.Random(f"structure-ops/{name}")
    machine = Machine()
    structure = build(machine, rng)
    streams = {method: [] for method in methods}
    order = sorted(methods)
    for _ in range(CALLS):
        method = rng.choice(order)
        args = methods[method](rng)
        _drive(machine, getattr(structure, method)(*args), streams[method])
    digests = {}
    for method, ops in streams.items():
        assert ops, f"script for {name}.{method} yielded nothing"
        digests[f"{name}.{method}"] = {
            "ops": len(ops),
            "sha256": golden_corpus.sha256(
                "".join(repr(op) + "\n" for op in ops))}
    return digests


def golden_tables():
    """This checkout's op-stream digests, for ``tests/golden.py``."""
    digests = {}
    for name in SCRIPTS:
        digests.update(op_stream_digests(name))
    return {"digests": dict(sorted(digests.items()))}


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.load()["digests"]


def test_golden_file_has_no_stale_entries(golden):
    golden_corpus.assert_entries(golden, (
        f"{name}.{method}" for name, (_, methods) in SCRIPTS.items()
        for method in methods))


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_structure_yields_the_golden_op_stream(name, golden):
    for key, digest in op_stream_digests(name).items():
        assert digest == golden[key], key
