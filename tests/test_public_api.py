"""Public-API surface tests: the README's imports must all work."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_systems_registry(self):
        assert set(repro.SYSTEMS) == {"2PL", "SONTM", "SI-TM", "SSI-TM",
                                      "LogTM", "HybridHTM"}

    def test_readme_quickstart(self):
        """The README's quick tour, after ``from repro import *``, in a
        fresh interpreter: every name resolves on first use."""
        readme = (REPO_ROOT / "README.md").read_text()
        tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "from repro import *\n" + tour],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["repro", "repro.sim", "repro.obs",
                                  "repro.oracle", "repro.store"])
def test_lazy_exports_are_the_defining_modules_objects(name):
    """Each ``__all__`` name resolves, stays cached in the package and is
    listed by ``dir()``; a class or function is the very object its
    defining module holds; an unknown name's error names the package."""
    package = importlib.import_module(name)
    for attr in package.__all__:
        value = getattr(package, attr)
        assert vars(package)[attr] is value
        if callable(value):
            assert getattr(sys.modules[value.__module__], attr) is value
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match=f"module '{name}' has no"):
        getattr(package, "no_such_name")


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
