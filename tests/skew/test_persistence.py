"""History persistence tests (offline post-processing, §5.1)."""

from repro.skew.graph import find_write_skews
from repro.sim.history import History
from repro.tm.ops import Compute, Read, Write

from tests.conftest import record_history, spec


def skewy_trace(machine):
    a, b = machine.mvmalloc(1), machine.mvmalloc(1)

    def t1():
        yield Read(a, "t1.r")
        yield Compute(50)
        yield Write(b, 1, "t1.w")

    def t2():
        yield Read(b, "t2.r")
        yield Compute(50)
        yield Write(a, 1, "t2.w")

    return record_history(machine, "SI-TM",
                          [[spec(t1, "t1")], [spec(t2, "t2")]])


class TestRoundTrip:
    def test_events_survive(self, machine):
        history = skewy_trace(machine)
        loaded = History.loads(history.dumps())
        assert len(loaded.events) == len(history.events)
        for original, restored in zip(history.events, loaded.events):
            assert original == restored

    def test_transactions_reassembled(self, machine):
        history = skewy_trace(machine)
        loaded = History.loads(history.dumps())
        assert len(loaded.committed()) == len(history.committed())
        for orig, rest in zip(history.committed(), loaded.committed()):
            assert orig.reads == rest.reads
            assert orig.writes == rest.writes
            assert history.sites(orig.reads) == loaded.sites(rest.reads)

    def test_offline_analysis_matches_online(self, machine):
        history = skewy_trace(machine)
        online = find_write_skews(history)
        offline = find_write_skews(History.loads(history.dumps()))
        assert len(offline.witnesses) == len(online.witnesses)
        assert offline.all_read_sites() == online.all_read_sites()
