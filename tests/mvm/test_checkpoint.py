"""Checkpointing tests (section 3.3's indirection-layer use case)."""

import pytest

from repro.common.errors import MVMError
from repro.common.rng import SplitRandom
from repro.mvm.checkpoint import CheckpointManager
from repro.sim.machine import Machine
from repro.tm.ops import Read, Write

from tests.conftest import run_program, spec


@pytest.fixture
def machine(uncapped_machine):
    """None of these tests is about the version cap."""
    return uncapped_machine


def mutate(machine, addr, value, system="SI-TM", seed=1):
    def body():
        yield Write(addr, value)
    run_program(machine, system, [[spec(body, "w")]], seed=seed)


class TestCheckpointReads:
    def test_read_sees_state_at_creation(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        mutate(machine, addr, 10)
        checkpoint = manager.create()
        mutate(machine, addr, 20)
        assert manager.read(checkpoint, addr) == 10
        assert machine.plain_load(addr) == 20

    def test_read_unwritten_is_zero(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        checkpoint = manager.create()
        assert manager.read(checkpoint, addr) == 0

    def test_conventional_region_rejected(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.malloc(1)
        checkpoint = manager.create()
        with pytest.raises(MVMError):
            manager.read(checkpoint, addr)

    def test_checkpoint_pins_versions_against_gc(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        mutate(machine, addr, 1)
        checkpoint = manager.create()
        for value in range(2, 8):
            mutate(machine, addr, value)
        # many later commits; the pinned version must survive
        assert manager.read(checkpoint, addr) == 1


class TestRollback:
    def test_rollback_restores_values(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        mutate(machine, addr, 5)
        checkpoint = manager.create()
        mutate(machine, addr, 6)
        mutate(machine, addr, 7)
        dropped = manager.rollback(checkpoint)
        assert dropped >= 1
        assert machine.plain_load(addr) == 5

    def test_rollback_of_first_write_restores_zero(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        checkpoint = manager.create()
        mutate(machine, addr, 9)
        manager.rollback(checkpoint)
        assert machine.plain_load(addr) == 0

    def test_rollback_spans_lines(self, machine):
        manager = CheckpointManager(machine)
        base = machine.mvmalloc(8 * 4)
        for i in range(4):
            mutate(machine, base + i * 8, 100 + i)
        checkpoint = manager.create()
        for i in range(4):
            mutate(machine, base + i * 8, 200 + i)
        manager.rollback(checkpoint)
        assert [machine.plain_load(base + i * 8) for i in range(4)] == \
            [100, 101, 102, 103]

    def test_rollback_then_continue(self, machine):
        """New work after a rollback proceeds normally."""
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        checkpoint = manager.create()
        mutate(machine, addr, 1)
        manager.rollback(checkpoint)
        mutate(machine, addr, 2)
        assert machine.plain_load(addr) == 2


class TestLifecycle:
    def test_release_unpins(self, machine):
        manager = CheckpointManager(machine)
        checkpoint = manager.create()
        assert manager.live_count == 1
        manager.release(checkpoint)
        assert manager.live_count == 0

    def test_operations_on_released_rejected(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        checkpoint = manager.create()
        manager.release(checkpoint)
        with pytest.raises(MVMError):
            manager.read(checkpoint, addr)
        with pytest.raises(MVMError):
            manager.rollback(checkpoint)
        with pytest.raises(MVMError):
            manager.release(checkpoint)

    def test_nested_checkpoints(self, machine):
        manager = CheckpointManager(machine)
        addr = machine.mvmalloc(1)
        mutate(machine, addr, 1)
        outer = manager.create()
        mutate(machine, addr, 2)
        inner = manager.create()
        mutate(machine, addr, 3)
        assert manager.read(outer, addr) == 1
        assert manager.read(inner, addr) == 2
        manager.rollback(inner)
        assert machine.plain_load(addr) == 2
        manager.release(inner)
        manager.rollback(outer)
        assert machine.plain_load(addr) == 1

    def test_rollback_refused_with_active_transactions(self, machine):
        from repro.tm import SnapshotIsolationTM

        manager = CheckpointManager(machine)
        checkpoint = manager.create()
        tm = SnapshotIsolationTM(machine, SplitRandom(1))
        tm.begin(0, "t", 0)
        with pytest.raises(MVMError):
            manager.rollback(checkpoint)
