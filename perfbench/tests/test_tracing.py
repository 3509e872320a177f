"""Span arithmetic: inclusive, self and recursive time on a fake clock."""

from perfbench.tracing import SpanTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_self_time_is_inclusive_minus_children():
    clock = FakeClock()
    spans = SpanTracer(clock)

    def leaf():
        clock.advance(3.0)

    leaf = spans.wrap(leaf, "mvm.leaf")

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(1.0)

    middle = spans.wrap(middle, "tm.middle")

    def root():
        clock.advance(0.5)
        middle()

    spans.wrap(root, "sim.root")()

    assert spans.stats["mvm.leaf"].calls == 2
    assert spans.busy("mvm.leaf") == 6.0
    assert spans.stats["mvm.leaf"].self_s == 6.0
    assert spans.busy("tm.middle") == 8.0
    assert spans.stats["tm.middle"].self_s == 2.0
    assert spans.busy("sim.root") == 8.5
    assert spans.stats["sim.root"].self_s == 0.5
    # self times partition the root's inclusive time
    assert spans.total_self() == spans.busy("sim.root")
    assert spans.self_time("tm.") == 2.0
    assert spans.stats["mvm.leaf"].max_s == 3.0


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    spans = SpanTracer(clock)

    def countdown(n):
        clock.advance(1.0)
        if n:
            traced(n - 1)

    traced = spans.wrap(countdown, "mem.access")
    traced(3)

    stats = spans.stats["mem.access"]
    assert stats.calls == 4
    assert stats.busy_s == 4.0      # not 4 + 3 + 2 + 1
    assert stats.self_s == 4.0
    assert stats.depth == 0


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    spans = SpanTracer(clock)

    def abort():
        clock.advance(2.0)
        raise KeyError("aborted")

    def outer():
        try:
            inner()
        except KeyError:
            clock.advance(1.0)

    inner = spans.wrap(abort, "tm.read")
    spans.wrap(outer, "sim.run")()
    assert spans.stats["tm.read"].busy_s == 2.0
    assert spans.stats["sim.run"].self_s == 1.0


def test_patch_is_undone_by_uninstall():
    class Owner:
        def method(self):
            return 1

    original = Owner.__dict__["method"]
    spans = SpanTracer()
    spans.patch(Owner, "method", spans.wrap(original, "x"))
    assert Owner().method() == 1 and spans.calls("x") == 1
    spans.uninstall()
    assert Owner.__dict__["method"] is original
