"""Span tracing from outside the program: attribute wrappers per layer.

The traced pass replaces the public entry points of each ``repro``
layer with timing wrappers, installed from this file only — nothing
under ``src/`` knows it is being measured.  Two kinds of patch:

* **global** patches (module or class attributes such as
  ``repro.harness.runner.Machine``) are recorded and undone by
  :meth:`SpanTracer.uninstall`;
* **instance** patches (``tm.read``, ``machine.caches.access`` ...) are
  set on objects that die with their simulation cell or server, so they
  need no undo.  They are installed *before* the consumers hoist bound
  methods (``SnapshotIsolationTM.__init__`` caches ``caches.access`` and
  ``mvm.snapshot_read``; ``Engine._run_fast`` caches ``tm.read`` ...),
  which is why the factories below wrap in construction order.

A span's **self time** is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.  Every wrapped
function is synchronous, so spans nest on one stack even under asyncio
(no span contains an ``await``).  The wrappers cost about half a
microsecond each and that cost lands in the *parent's* self time, so
read traced shares as shares and take absolute speeds from the
untraced pass (``trace.overhead_ratio`` says how far apart they are).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "busy_s", "self_s", "max_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        #: inclusive seconds, outermost spans only (recursion-safe)
        self.busy_s = 0.0
        #: inclusive minus wrapped children, summed over all spans
        self.self_s = 0.0
        #: longest single outermost span
        self.max_s = 0.0
        self.depth = 0


class SpanTracer:
    """Records named spans around wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        #: one child-time accumulator per open span
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def span(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        stats = self.span(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            stats.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += took - children
                if not stats.depth:
                    stats.busy_s += took
                    if took > stats.max_s:
                        stats.max_s = took
                if stack:
                    stack[-1] += took

        traced.__wrapped__ = fn
        return traced

    def wrap_attrs(self, obj: object, name: str, *attrs: str) -> None:
        """Instance patch: span ``name`` around ``obj.<attr>`` for each."""
        for attr in attrs:
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Global patch, undone by :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # read-out

    def busy(self, *names: str) -> float:
        return sum(self.stats[n].busy_s for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def self_time(self, prefix: str) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        return sum(s.self_s for n, s in self.stats.items()
                   if n.startswith(prefix))

    def total_self(self) -> float:
        return sum(s.self_s for s in self.stats.values())


# ----------------------------------------------------------------------
# simulator stack

TM_ENTRY_POINTS = ("begin", "read", "write", "commit", "abort")
MVM_ENTRY_POINTS = ("snapshot_read", "validate_many", "install_many",
                    "newest_many")
TRACER_HOOKS = ("on_begin", "on_read", "on_write", "on_commit",
                "on_abort", "on_stall")


def wrap_mvm(spans: SpanTracer, mvm: object) -> None:
    """Same span names whether a TM backend or a store shard calls."""
    for entry in MVM_ENTRY_POINTS:
        spans.wrap_attrs(mvm, f"mvm.{entry}", entry)
    spans.wrap_attrs(mvm, "mvm.plain", "plain_read", "plain_write")


class SimCounters:
    """What the traced simulator pass counts besides spans."""

    def __init__(self) -> None:
        self.steps = 0
        self.cache_levels: Dict[str, int] = {}
        self.max_live_versions = 0


def install_sim(spans: SpanTracer) -> SimCounters:
    """Wrap harness → workloads → sim → tm → mem/mvm → obs."""
    import repro.harness.runner as runner
    import repro.obs as obs
    from repro.harness.executor import Executor
    from repro.harness.spec import ExperimentSpec

    counters = SimCounters()
    #: machines built by the cell in flight (read out when it ends)
    machines: List[object] = []
    real_machine = runner.Machine
    real_engine = runner.Engine
    real_registry = runner.REGISTRY

    def make_machine(config=None):
        machine = real_machine(config)
        spans.wrap_attrs(machine.caches, "mem.access", "access",
                         "access_tracked", "shared_access")
        spans.wrap_attrs(machine.caches, "mem.invalidate",
                         "invalidate_everywhere")
        wrap_mvm(spans, machine.mvm)
        machines.append(machine)
        return machine

    def make_tm(cls):
        def build(machine, rng):
            tm = cls(machine, rng)
            for entry in TM_ENTRY_POINTS:
                spans.wrap_attrs(tm, f"tm.{entry}", entry)
            return tm
        return build

    def make_engine(tm, programs, tracer=None, **kwargs):
        if tracer is not None:
            spans.wrap_attrs(tracer, "obs.hook", *TRACER_HOOKS)
            for part in getattr(tracer, "tracers", [tracer]):
                for attr in ("export", "snapshot", "check_conservation"):
                    if hasattr(part, attr):
                        spans.wrap_attrs(part, "obs.export", attr)
        engine = real_engine(tm, programs, tracer=tracer, **kwargs)
        if engine.profiler is not None:
            spans.wrap_attrs(engine.profiler, "obs.hook", "account",
                             "sub_account", "mvm_event")
        if engine.metrics is not None:
            spans.wrap_attrs(engine.metrics, "obs.hook", "inc", "observe",
                             "set_gauge")
            spans.wrap_attrs(engine.metrics, "obs.export", "snapshot")
        run = spans.wrap(engine.run, "sim.run")

        def counted_run(*args, **kw):
            try:
                return run(*args, **kw)
            finally:
                counters.steps += engine._steps
        engine.run = counted_run
        return engine

    class Registry:
        @staticmethod
        def create(*args, **kwargs):
            workload = real_registry.create(*args, **kwargs)
            spans.wrap_attrs(workload, "workloads.setup", "setup")
            return workload

    cell = spans.wrap(ExperimentSpec.run, "harness.cell")

    def run_cell(self):
        try:
            return cell(self)
        finally:
            for machine in machines:
                for level, n in machine.caches.stats()["levels"].items():
                    counters.cache_levels[level] = \
                        counters.cache_levels.get(level, 0) + n
                counters.max_live_versions = max(
                    counters.max_live_versions,
                    machine.mvm.max_live_versions())
            machines.clear()

    spans.patch(runner, "Machine", make_machine)
    spans.patch(runner, "Engine", make_engine)
    spans.patch(runner, "REGISTRY", Registry)
    spans.patch(runner, "SYSTEMS",
                {name: make_tm(cls) for name, cls in runner.SYSTEMS.items()})
    for export in ("collect_run_metrics", "record_provenance_metrics"):
        spans.patch(obs, export,
                    spans.wrap(getattr(obs, export), "obs.export"))
    spans.patch(ExperimentSpec, "run", run_cell)
    spans.patch(Executor, "run", spans.wrap(Executor.run, "harness.run"))
    return counters


# ----------------------------------------------------------------------
# store stack


#: frames kept for the protocol replay (every frame is counted)
REPLAY_FRAMES = 50_000


class StoreCounters:
    """What the traced store pass records besides spans."""

    def __init__(self) -> None:
        #: the first frames either side encoded, for the protocol replay
        self.frames: List[dict] = []
        self.frame_bytes = 0
        #: shard command submit → future resolved, seconds
        self.submit_to_done: List[float] = []


def install_store(spans: SpanTracer, server: object) -> StoreCounters:
    """Wrap protocol → shard → mvm → oracle on one server instance."""
    from repro.store import protocol

    counters = StoreCounters()
    clock = spans.clock
    encode = spans.wrap(protocol.encode_frame, "store_protocol.encode")

    def recording_encode(obj):
        frame = encode(obj)
        if len(counters.frames) < REPLAY_FRAMES:
            counters.frames.append(obj)
        counters.frame_bytes += len(frame)
        return frame

    spans.patch(protocol, "encode_frame", recording_encode)
    for shard in server.shards:
        submit = spans.wrap(shard.submit, "store_shard.submit")

        def timed_submit(*args, _submit=submit, **kwargs):
            start = clock()
            future = _submit(*args, **kwargs)
            future.add_done_callback(
                lambda _: counters.submit_to_done.append(clock() - start))
            return future

        shard.submit = timed_submit
        spans.wrap_attrs(shard, "store_shard.exec", "_do_snapshot",
                         "_do_read", "_do_prepare")
        spans.wrap_attrs(shard, "store_shard.apply", "apply")
        wrap_mvm(spans, shard.mvm)
    if server.monitor is not None:
        spans.wrap_attrs(server.monitor, "oracle.feed_row", "feed_row")
        spans.wrap_attrs(server.monitor, "oracle.check", "check")
        spans.wrap_attrs(server.monitor, "oracle.watermark",
                         "note_watermark")
    return counters
