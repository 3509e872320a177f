"""Checkpoint pinning vs install/coalesce/GC interleavings.

Property: a pinned checkpoint is a *stable* snapshot — no interleaving
of later installs (which GC and coalesce on write), background sweeps,
or other checkpoints' lifecycles may change what it reads.  Release
unpins: the GC watermark advances and the pinned history becomes
collectable.  Plus the typed rollback error and the one-time
ABORT_WRITER pin warning from :mod:`repro.mvm.checkpoint`.
"""

import warnings

import pytest

import repro.mvm.checkpoint as checkpoint_mod
from repro.common.config import MVMConfig, SimConfig, VersionCapPolicy
from repro.common.errors import CheckpointRollbackError, MVMError
from repro.common.rng import SplitRandom
from repro.mvm.checkpoint import CheckpointManager
from repro.mvm.controller import MVMController
from repro.sim.machine import Machine
from repro.tm.ops import Write

from tests.conftest import run_program, spec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

LINES = 4


def mutate(machine, addr, value, system="SI-TM", seed=1):
    def body():
        yield Write(addr, value)
    run_program(machine, system, [[spec(body, "w")]], seed=seed)


def uncapped() -> Machine:
    """A machine that keeps every version (``UNBOUNDED`` cap)."""
    return Machine(SimConfig(
        mvm=MVMConfig(cap_policy=VersionCapPolicy.UNBOUNDED)))


def install(mvm: MVMController, line: int, value: int) -> int:
    """Commit one single-line write through the real clock protocol."""
    end_ts = mvm.clock.begin_commit()
    mvm.install_many(end_ts, [(line, (value,))])
    mvm.clock.finish_commit(end_ts)
    return end_ts


def snapshot_value(mvm: MVMController, line: int, ts: int):
    data = mvm.snapshot_read(line, ts)
    return None if data is None else data[0]


def view(mvm: MVMController, ts: int) -> dict:
    return {line: snapshot_value(mvm, line, ts) for line in range(LINES)}


_INSTALL = st.tuples(st.just("install"), st.integers(0, LINES - 1),
                     st.integers(1, 50))
_OPS = st.lists(st.one_of(_INSTALL, st.just(("sweep",)),
                          st.just(("pin",)), st.just(("unpin",))),
                max_size=40)


@given(prefix=st.lists(_INSTALL, max_size=12), suffix=_OPS)
@settings(max_examples=60, deadline=None)
def test_pinned_reads_stable_under_any_interleaving(prefix, suffix):
    """The paper's O(1) checkpoint: a pin, not a copy — yet immutable.

    ``suffix`` interleaves installs (GC-on-write + coalescing fire per
    install), background sweeps, and the create/release lifecycle of
    *other* checkpoints.  The checkpoint under test must read the same
    image throughout, and releasing it must leave history collectable
    down to one live version per line.
    """
    manager = CheckpointManager(uncapped())
    mvm = manager.machine.mvm
    for _, line, value in prefix:
        install(mvm, line, value)
    checkpoint = manager.create()
    expected = view(mvm, checkpoint.timestamp)
    others = []
    for op in suffix:
        if op[0] == "install":
            install(mvm, op[1], op[2])
        elif op[0] == "sweep":
            mvm.collect_all()
        elif op[0] == "pin":
            others.append(manager.create())
        elif others:
            manager.release(others.pop())
        assert view(mvm, checkpoint.timestamp) == expected
    for other in others:
        manager.release(other)
    assert view(mvm, checkpoint.timestamp) == expected
    # release unpins: the GC watermark advances past the checkpoint and
    # every version except each line's newest becomes collectable
    manager.release(checkpoint)
    assert manager.live_count == 0
    assert mvm.active.oldest() is None
    mvm.collect_all()
    for line in range(LINES):
        assert mvm.live_version_count(line) <= 1


def test_release_advances_watermark_and_frees_history(uncapped_machine):
    mvm = uncapped_machine.mvm
    manager = CheckpointManager(uncapped_machine)
    install(mvm, 0, 1)
    checkpoint = manager.create()
    for value in range(2, 8):
        install(mvm, 0, value)
    # the pin holds the GC watermark and the pinned version
    assert mvm.active.oldest() == checkpoint.timestamp
    assert snapshot_value(mvm, 0, checkpoint.timestamp) == 1
    before = mvm.live_version_count(0)
    assert before > 1
    manager.release(checkpoint)
    assert mvm.active.oldest() is None
    assert mvm.collect_all() >= before - 1
    assert mvm.live_version_count(0) == 1


def test_rollback_error_is_typed(uncapped_machine):
    """In-flight transactions refuse rollback with the typed error."""
    from repro.tm import SnapshotIsolationTM

    manager = CheckpointManager(uncapped_machine)
    checkpoint = manager.create()
    tm = SnapshotIsolationTM(uncapped_machine, SplitRandom(1))
    tm.begin(0, "t", 0)
    with pytest.raises(CheckpointRollbackError, match="in flight"):
        manager.rollback(checkpoint)
    # the typed error stays catchable as plain MVMError for old callers
    assert issubclass(CheckpointRollbackError, MVMError)


def test_rollback_allowed_with_other_checkpoints_pinned(uncapped_machine):
    """Only *transactions* block rollback; sibling pins do not."""
    machine = uncapped_machine
    manager = CheckpointManager(machine)
    addr = machine.mvmalloc(1)
    mutate(machine, addr, 1)
    checkpoint = manager.create()
    sibling = manager.create()
    mutate(machine, addr, 2)
    manager.rollback(checkpoint)
    assert machine.plain_load(addr) == 1
    manager.release(sibling)


def test_capped_pin_warns_exactly_once(machine):
    """The ABORT_WRITER + pin livelock footgun warns once per process."""
    assert machine.mvm.config.cap_policy is VersionCapPolicy.ABORT_WRITER
    saved = checkpoint_mod._warned_capped_pin
    try:
        checkpoint_mod._warned_capped_pin = False
        manager = CheckpointManager(machine)
        with pytest.warns(RuntimeWarning, match="ABORT_WRITER") as caught:
            manager.create()
        assert len(caught) == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manager.create()
        assert caught == []
    finally:
        checkpoint_mod._warned_capped_pin = saved


def test_unbounded_pin_does_not_warn(uncapped_machine):
    saved = checkpoint_mod._warned_capped_pin
    try:
        checkpoint_mod._warned_capped_pin = False
        manager = CheckpointManager(uncapped_machine)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manager.create()
        assert caught == []
    finally:
        checkpoint_mod._warned_capped_pin = saved
