"""``Machine.plain_fill`` leaves exactly the state word stores leave.

One MVM plain write per line instead of a read-merge-write per word is
only an optimisation if nothing can tell the two apart: every line's
version timestamps, data and installers, its ``_base_dropped`` flag, and
the backing store must come out equal — on aligned and unaligned starts,
ranges ending mid-line, lines that already hold plain data or committed
transactional versions (only the newest is overwritten), and in both the
MVM and the conventional region.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.common.config import (MVMConfig, SimConfig,  # noqa: E402
                                 VersionCapPolicy)
from repro.mem.address import MVM_REGION_BASE  # noqa: E402
from repro.sim.machine import Machine  # noqa: E402

WORDS = 8
SPAN_LINES = 5

words = st.integers(-3, 50)
#: what happens to the region before the fill, identically on both sides
prior_steps = st.lists(st.one_of(
    st.tuples(st.just("store"), st.integers(0, SPAN_LINES * WORDS - 1),
              words),
    st.tuples(st.just("install"), st.integers(0, SPAN_LINES - 1), words),
    st.tuples(st.just("pin"), st.just(0), st.just(0)),
), max_size=12)


def _machine(coalescing):
    return Machine(SimConfig(mvm=MVMConfig(
        coalescing=coalescing, cap_policy=VersionCapPolicy.UNBOUNDED)))


def _prepare(machine, region, prior):
    alloc = machine.mvmalloc if region == "mvm" else machine.malloc
    base = alloc(SPAN_LINES * WORDS)
    ts = 0
    for kind, where, value in prior:
        if kind == "store":
            machine.plain_store(base + where, value)
        elif kind == "install" and region == "mvm":
            ts += 2
            line = machine.address_map.line_of(base) + where
            machine.mvm.install_line(line, ts, tuple([value] * WORDS),
                                     installer=f"tx{ts}")
        elif kind == "pin":
            # a snapshot open between two installs keeps the older
            # version alive and stops the newer one coalescing onto it
            machine.mvm.active.add(ts + 1)
    return base


def _store_word(machine, addr, value):
    """Reference word store: read the whole line, change one word, write
    the whole line back."""
    if addr < MVM_REGION_BASE:
        machine.backing.store(addr, value)
        return
    amap = machine.address_map
    line = amap.line_of(addr)
    data = machine.mvm.plain_read(line)
    words = [0] * WORDS if data is None else list(data)
    words[amap.word_in_line(addr)] = value
    machine.mvm.plain_write(line, tuple(words))


def _state(machine):
    lines = {line: (vlist.timestamps, tuple(vlist._data),
                    tuple(vlist._installers), vlist._base_dropped)
             for line, vlist in machine.mvm._lines.items()}
    return lines, dict(machine.backing.items())


@settings(max_examples=200, deadline=None)
@given(region=st.sampled_from(["mvm", "conventional"]),
       coalescing=st.booleans(), prior=prior_steps,
       start=st.integers(0, 2 * WORDS + 1),
       values=st.lists(words, max_size=3 * WORDS - 1))
def test_fill_equals_word_by_word_stores(region, coalescing, prior, start,
                                         values):
    filled, stored, reference = (_machine(coalescing) for _ in range(3))
    base = _prepare(filled, region, prior)
    for machine in (stored, reference):
        assert _prepare(machine, region, prior) == base
    filled.plain_fill(base + start, values)
    for offset, value in enumerate(values):
        stored.plain_store(base + start + offset, value)
        _store_word(reference, base + start + offset, value)
    assert _state(filled) == _state(reference)
    assert _state(stored) == _state(reference)


def test_an_all_zero_fill_still_creates_version_zero(machine):
    base = machine.mvmalloc(2 * WORDS)
    machine.plain_fill(base, [0] * (WORDS + 3))
    first = machine.address_map.line_of(base)
    assert machine.mvm.versions_of(first) == (0,)
    assert machine.mvm.versions_of(first + 1) == (0,)
    assert machine.mvm.plain_read(first + 1) == (0,) * WORDS


def test_a_whole_line_is_written_without_a_read(machine):
    base = machine.mvmalloc(3 * WORDS)
    calls = []
    real_read = machine.mvm.plain_read

    def counting_read(line):
        calls.append(line)
        return real_read(line)

    machine.mvm.plain_read = counting_read
    # one partial line at each end, one whole line between them
    machine.plain_fill(base + WORDS - 2, list(range(WORDS + 4)))
    first = machine.address_map.line_of(base)
    assert calls == [first, first + 2]
