"""Host-speed normalisation on a fake clock."""

import pytest

from perfbench.hostclock import NOMINAL_S, HostClock, kernel


class FakeHost:
    """A clock and a kernel that takes the next of ``durations``."""

    def __init__(self, *durations):
        self.now = 0.0
        self.durations = list(durations)

    def clock(self):
        return self.now

    def work(self):
        self.now += self.durations.pop(0)


def test_reading_is_the_quicker_of_two_runs():
    fake = FakeHost(3.0, 2.0, 5.0, 7.0)
    host = HostClock(fake.clock, fake.work)
    assert host.read() == 2.0
    assert host.read() == 5.0
    assert host.readings == [2.0, 5.0]
    assert host.slowdown() == 3.5 / NOMINAL_S


def nominal_of(seconds, before, after):
    fake = FakeHost(before, before, after, after)
    host = HostClock(fake.clock, fake.work)
    host.read()
    return host.nominal(seconds)


def test_a_slow_spell_of_the_host_cancels():
    quiet = nominal_of(10.0, NOMINAL_S, NOMINAL_S)
    slow = nominal_of(14.0, 1.4 * NOMINAL_S, 1.4 * NOMINAL_S)
    assert quiet == pytest.approx(10.0)
    assert slow == pytest.approx(quiet)
    # a spell that starts during the measurement is half seen
    assert nominal_of(12.0, NOMINAL_S, 1.4 * NOMINAL_S) \
        == pytest.approx(10.0)


def test_kernel_does_the_same_work_every_time():
    assert kernel() == kernel()
