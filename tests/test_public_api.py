"""Public-API surface tests: the README's imports must all work."""

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_systems_registry(self):
        assert set(repro.SYSTEMS) == {"2PL", "SONTM", "SI-TM", "SSI-TM",
                                      "LogTM", "HybridHTM"}

    def test_readme_quickstart(self):
        from repro import (
            Engine,
            Machine,
            Read,
            SplitRandom,
            TransactionSpec,
            Write,
        )
        from repro.tm import SnapshotIsolationTM

        machine = Machine()
        counter = machine.mvmalloc(1)

        def increment():
            value = yield Read(counter)
            yield Write(counter, value + 1)

        tm = SnapshotIsolationTM(machine, SplitRandom(7))
        programs = [[TransactionSpec(increment, "inc") for _ in range(10)]
                    for _ in range(4)]
        stats = Engine(tm, programs).run()
        assert machine.plain_load(counter) == 40
        assert stats.total_commits == 40


class TestSubpackageExports:
    def test_structures(self):
        from repro.structures import (
            TxArray,
            TxCounter,
            TxDoublyLinkedList,
            TxHashMap,
            TxLinkedList,
            TxQueue,
            TxRedBlackTree,
        )
        assert all((TxArray, TxCounter, TxDoublyLinkedList, TxHashMap,
                    TxLinkedList, TxQueue, TxRedBlackTree))

    def test_skew(self):
        from repro.skew import (
            SkewReport,
            WriteSkewTool,
            find_write_skews,
        )
        from repro.sim.history import History, HistoryRecorder
        assert all((SkewReport, History, HistoryRecorder, WriteSkewTool,
                    find_write_skews))

    def test_harness(self):
        from repro.harness import figure1, figure7, figure8, run_once
        assert all((figure1, figure7, figure8, run_once))

    def test_workloads(self):
        from repro.workloads import PAPER_ORDER, REGISTRY
        assert len(PAPER_ORDER) == 10
        assert all(name in REGISTRY for name in PAPER_ORDER)
