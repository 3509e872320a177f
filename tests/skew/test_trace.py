"""Event-log recording as the write-skew tool sees it."""

from repro.sim.machine import Machine
from repro.sim.history import BEGIN, COMMIT, READ, WRITE
from repro.tm.ops import Read, Write

from tests.conftest import record_history, spec


def record(machine, programs, system="SI-TM", seed=7):
    return record_history(machine, system, programs, seed=seed)


class TestRecording:
    def test_event_sequence_single_txn(self, machine):
        addr = machine.mvmalloc(1)

        def body():
            value = yield Read(addr, "r")
            yield Write(addr, value + 1, "w")

        history = record(machine, [[spec(body)]])
        kinds = [e.kind for e in history.events]
        assert kinds == [BEGIN, READ, WRITE, COMMIT]

    def test_sites_recorded(self, machine):
        addr = machine.mvmalloc(1)

        def body():
            yield Read(addr, "my.site")
            yield Write(addr, 1, "other.site")

        history = record(machine, [[spec(body)]])
        txn = history.committed()[0]
        assert history.sites(txn.reads) == [(addr, "my.site")]
        assert history.sites(txn.writes) == [(addr, "other.site")]

    def test_abort_marks_transaction(self, machine):
        addr = machine.mvmalloc(1)

        def writer():
            value = yield Read(addr)
            yield Write(addr, value + 1)

        programs = [[spec(writer) for _ in range(5)],
                    [spec(writer) for _ in range(5)]]
        history = record(machine, programs)
        aborted = [t for t in history.transactions.values() if t.aborted]
        committed = history.committed()
        assert len(committed) == 10
        # retried attempts appear as separate transactions
        assert len(history.transactions) == 10 + len(aborted)

    def test_distinct_uids(self, machine):
        addr = machine.mvmalloc(1)

        def body():
            yield Write(addr, 1)

        history = record(machine, [[spec(body), spec(body)]])
        uids = [t.uid for t in history.transactions.values()]
        assert len(uids) == len(set(uids))


class TestConcurrency:
    def test_concurrent_with_overlapping(self, machine):
        a, b = machine.mvmalloc(1), machine.mvmalloc(1)

        def long_body():
            for _ in range(20):
                yield Read(a)
            yield Write(a, 1)

        def short_body():
            yield Write(b, 1)

        history = record(machine, [[spec(long_body, "long")],
                                    [spec(short_body, "short")]])
        txns = history.committed()
        long_txn = next(t for t in txns if t.label == "long")
        short_txn = next(t for t in txns if t.label == "short")
        assert long_txn.concurrent_with(short_txn)
        assert short_txn.concurrent_with(long_txn)

    def test_sequential_not_concurrent(self, machine):
        addr = machine.mvmalloc(1)

        def body():
            yield Write(addr + 0, 1)

        history = record(machine, [[spec(body), spec(body)]])
        first, second = history.committed()
        assert not first.concurrent_with(second)
