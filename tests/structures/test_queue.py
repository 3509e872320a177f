"""TxQueue and TxCounter tests."""

import pytest

from repro.sim.machine import Machine
from repro.structures import QueueFull, TxCounter, TxQueue, write

from tests.conftest import drive_plain, mvm_lines, run_program, spec


class TestQueueSequential:
    def test_fifo_order(self, machine):
        queue = TxQueue(machine, capacity=8)
        for value in (5, 6, 7):
            assert drive_plain(machine, queue.enqueue(value)) is True
        assert drive_plain(machine, queue.dequeue()) == 5
        assert drive_plain(machine, queue.dequeue()) == 6

    def test_empty_dequeue(self, machine):
        queue = TxQueue(machine, capacity=4)
        assert drive_plain(machine, queue.dequeue()) is None

    def test_full_enqueue(self, machine):
        queue = TxQueue(machine, capacity=2)
        drive_plain(machine, queue.enqueue(1))
        drive_plain(machine, queue.enqueue(2))
        assert drive_plain(machine, queue.enqueue(3)) is False

    def test_wraparound(self, machine):
        queue = TxQueue(machine, capacity=2)
        for i in range(6):
            assert drive_plain(machine, queue.enqueue(i)) is True
            assert drive_plain(machine, queue.dequeue()) == i

    def test_size(self, machine):
        queue = TxQueue(machine, capacity=8)
        queue.populate([1, 2, 3])
        assert drive_plain(machine, queue.size()) == 3

    def test_populate_and_drain(self, machine):
        queue = TxQueue(machine, capacity=8)
        queue.populate([9, 8, 7])
        assert queue.drain_plain() == [9, 8, 7]

    def test_populate_overflow(self, machine):
        queue = TxQueue(machine, capacity=2)
        with pytest.raises(QueueFull):
            queue.populate([1, 2, 3])

    def test_rejected_populate_stores_nothing(self, machine):
        queue = TxQueue(machine, capacity=4)
        queue.populate([1, 2])
        before = queue.drain_plain(), mvm_lines(machine)
        with pytest.raises(QueueFull):
            queue.populate([3, 4, 5])
        assert (queue.drain_plain(), mvm_lines(machine)) == before

    def test_populate_wraps_around_the_ring(self, machine):
        queue = TxQueue(machine, capacity=4)
        queue.populate([1, 2, 3])
        for expected in (1, 2):
            assert drive_plain(machine, queue.dequeue()) == expected
        queue.populate([4, 5, 6])
        assert queue.drain_plain() == [3, 4, 5, 6]

    def test_invalid_capacity(self, machine):
        with pytest.raises(ValueError):
            TxQueue(machine, capacity=0)


class TestQueueConcurrent:
    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM"])
    def test_every_element_dequeued_exactly_once(self, system):
        machine = Machine()
        queue = TxQueue(machine, capacity=64)
        queue.populate(range(40))
        # each consumer transaction records its result in a private slot:
        # aborted attempts roll back, so only committed dequeues count
        slots = machine.mvmalloc(40 * 8)

        def consume(slot):
            def body():
                value = yield from queue.dequeue()
                if value is not None:
                    yield from write(slot, value + 1)
            return body

        programs = [[spec(consume(slots + (t * 20 + i) * 8), "deq")
                     for i in range(20)] for t in range(2)]
        run_program(machine, system, programs)
        seen = [machine.plain_load(slots + i * 8) - 1 for i in range(40)
                if machine.plain_load(slots + i * 8)]
        assert sorted(seen) == list(range(40))


class TestCounter:
    def test_initial_value(self, machine):
        assert TxCounter(machine, initial=5).value == 5

    def test_add(self, machine):
        counter = TxCounter(machine)
        assert drive_plain(machine, counter.add(3)) == 3
        assert counter.value == 3

    def test_get(self, machine):
        counter = TxCounter(machine, initial=7)
        assert drive_plain(machine, counter.get()) == 7

    @pytest.mark.parametrize("system", ["2PL", "SONTM", "SI-TM", "SSI-TM"])
    def test_concurrent_increments_exact(self, system):
        machine = Machine()
        counter = TxCounter(machine)
        programs = [[spec(lambda: counter.add(1), "inc")
                     for _ in range(25)] for _ in range(4)]
        run_program(machine, system, programs)
        assert counter.value == 100
