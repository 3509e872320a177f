"""Golden digests for profiled harness cells.

Twenty ``harness.runner.run_once`` runs with the cycle profiler on, each
reduced to a sha256 over its ``RunResult`` dict — commits, aborts by
cause, makespan, MVM counters and the profiler's per-thread phase
snapshot.  The cells are the ones the tolerance-based bench suites used
to compare: the paper's systems at 4 and 8 threads, the 32-thread cells
where scheduling bursts are longest, and the capacity config's bounded
read/write sets with escalation (HybridHTM's hardware attempts and lock
fallback included).  A digest is exact where those suites allowed seed
noise, so they are stored in ``tests/corpus/cell_golden.json``, recorded
from the commit its header names; ``tests/golden.py`` re-records it.
"""

import pytest

from repro.harness.runner import run_once
from repro.perf.bench import CAPACITY_CONFIG
from tests import golden as golden_corpus

GOLDEN = golden_corpus.Corpus(
    "cell_golden.json",
    "sha256(json.dumps(run_once(..., profiling=True).to_dict(), "
    "separators=(',', ':')))")

PROFILE = "test"
SEEDS = (1, 2)
CONFIGS = {"default": None, "capacity": CAPACITY_CONFIG}
#: (config, workload, system, threads)
CELLS = (
    ("default", "rbtree", "SI-TM", 8),
    ("default", "rbtree", "2PL", 8),
    ("default", "array", "SI-TM", 8),
    ("default", "list", "SONTM", 4),
    ("default", "array", "SI-TM", 32),
    ("default", "rbtree", "SI-TM", 32),
    ("default", "rbtree", "2PL", 32),
    ("capacity", "list", "2PL", 4),
    ("capacity", "list", "HybridHTM", 4),
    ("capacity", "rbtree", "HybridHTM", 8),
)
RUNS = [cell + (seed,) for cell in CELLS for seed in SEEDS]


def run_id(run):
    config, workload, system, threads, seed = run
    return f"{config}/{workload}/{system}/t{threads}/s{seed}"


def run_digest(run):
    config, workload, system, threads, seed = run
    result = run_once(workload, system, threads, seed, PROFILE,
                      CONFIGS[config], profiling=True)
    return golden_corpus.sha256(result.to_dict())


def golden_tables():
    """This checkout's cell digests, for ``tests/golden.py``."""
    return {"digests": {run_id(run): run_digest(run) for run in RUNS}}


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.load()["digests"]


def test_golden_file_has_no_stale_entries(golden):
    golden_corpus.assert_entries(golden, map(run_id, RUNS))


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_profiled_cell_reproduces_digest(golden, run):
    assert run_digest(run) == golden[run_id(run)]
