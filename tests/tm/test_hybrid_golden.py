"""HybridHTM x golden token: two starvation mechanisms must not deadlock.

The engine's escalation queue parks every thread but the token holder at
begin (``Engine._may_begin``); HybridHTM's quiesce gate refuses every
begin but the thread queued for its fallback lock
(``_fallback_waiting``).  When the two pick *different* threads the
token holder was refused forever by the backend while the faller was
parked forever by the engine — the "permanent begin stall" watchdog.
The token holder runs serially with no transaction in flight, so the
backend's quiesce gate does not apply to it.
"""

import pytest

from repro.common.rng import SplitRandom
from repro.harness.spec import ExperimentSpec
from repro.perf.bench import SUITES
from repro.sim.machine import Machine
from repro.tm import HybridHTM

#: (workload, cell seed) pairs that tripped the watchdog before the fix
DEADLOCKED_CELLS = [("rbtree", 3), ("rbtree", 5), ("rbtree", 19),
                    ("intruder", 3), ("kmeans", 20)]


@pytest.mark.parametrize("workload,seed", DEADLOCKED_CELLS)
def test_capacity_cell_terminates_and_verifies(workload, seed):
    result = ExperimentSpec(workload, "HybridHTM", 16, seed, "quick",
                            SUITES["capacity"].config).run()
    assert result.verified


def test_token_holder_passes_the_quiesce_gate():
    tm = HybridHTM(Machine(), SplitRandom(1))
    in_flight, _ = tm.begin(0, "t", 0)
    # thread 1 escalates to the fallback and waits for thread 0 to drain
    assert tm.begin(1, "t", tm.hw_attempts)[0] is None
    assert tm._fallback_waiting == 1
    tm.commit(in_flight, 0)
    # an ordinary third thread is quiesced ...
    assert tm.begin(2, "t", 0)[0] is None
    # ... but the engine's token holder is not
    tm.capacity_suppressed = True
    txn, _ = tm.begin(2, "t", 0)
    assert txn is not None
    tm.commit(txn, 0)
    tm.capacity_suppressed = False
    # and the faller still gets its turn afterwards
    txn, _ = tm.begin(1, "t", tm.hw_attempts)
    assert txn is not None and 1 in tm.fallback_threads
