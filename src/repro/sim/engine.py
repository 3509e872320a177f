"""The discrete-event multicore engine.

This is the reproduction's substitute for ZSim (see DESIGN.md): instead of
simulating x86 instructions cycle by cycle, each simulated thread is a
coroutine that yields one *transactional operation* at a time, and the
engine always advances the thread with the **smallest local clock**.  Every
operation is charged its latency from the cache/MVM timing model, so long
transactions genuinely overlap in simulated time with many short ones —
the property that produces the conflict patterns of Figures 1 and 7 — and
the per-thread clocks directly yield the makespans behind Figure 8.

Determinism: ties on the clock break by thread id, all randomness flows
from :class:`~repro.common.rng.SplitRandom` streams, so a run is a pure
function of (workload, system, seed).

There is one loop: :meth:`Engine.run` schedules and executes, for
observed and unobserved runs alike.  Observers (telemetry, profiler,
fault injector, retry policy) are ``is not None`` tests inside it and
the methods it calls, so attaching one cannot change the schedule.

Abort handling follows the TM API contract (:mod:`repro.tm.api`):

* self-aborts surface as :class:`TransactionAborted` from ``read``,
  ``write`` or ``commit``;
* eager requester-wins policies *doom* a victim transaction; the engine
  notices the doom mark before the victim's next operation and aborts it
  there (the victim's partially executed work stays charged — re-execution
  cost is exactly what makes high abort rates expensive);
* after an abort the engine re-runs the body from scratch (software
  rollback + restart, as in the paper's baseline) after the system's
  backoff delay.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Iterator, List, Optional

from repro.common.errors import (
    CAUSE_VALUES,
    AbortCause,
    SimulationError,
    TransactionAborted,
)
from repro.sim.stats import RunStats, ThreadStats
from repro.tm.api import StallRequested, TMSystem, Txn
from repro.tm.ops import ABORT, COMPUTE, READ, WRITE, Op

#: a transaction body: called fresh per attempt, yields Ops
BodyFactory = Callable[[], Generator[Op, object, None]]


@dataclass(frozen=True)
class TransactionSpec:
    """One logical transaction a thread must execute.

    ``serializable=True`` enforces read-write conflict detection for this
    transaction under SI by promoting **all** of its reads (section 5.1:
    "programmers can always enforce serializability by enforcing
    read-write conflict detection for all or a subset of transactions").
    It has no effect under the already-serializable systems.
    """

    body_factory: BodyFactory
    label: str = "txn"
    serializable: bool = False

    def __post_init__(self) -> None:
        # labels repeat across every transaction of a program; interned
        # they make the per-commit ``per_label`` dict probes pointer
        # comparisons (frozen dataclass, hence object.__setattr__)
        object.__setattr__(self, "label", sys.intern(self.label))


class Tracer:
    """Observer interface for trace tools (write-skew tool, oracle).

    The engine invokes these hooks for every transactional event but
    skips ``on_read``/``on_write``/``on_stall`` where nothing implements
    them (:func:`resolve_hook`): a bare ``Tracer()`` costs no call there.
    ``on_read``/``on_write`` receive the value observed/stored, giving
    full-history recorders
    (:class:`repro.sim.history.HistoryRecorder`) everything the
    isolation checker needs; ``on_begin``/``on_commit`` fire after the
    system assigned ``txn.start_ts`` / ``txn.commit_ts``.
    """

    def on_begin(self, txn: Txn) -> None:  # noqa: D102
        pass

    def on_read(self, txn: Txn, addr: int, site: str,
                value: object = None) -> None:  # noqa: D102
        pass

    def on_write(self, txn: Txn, addr: int, site: str,
                 value: object = None) -> None:  # noqa: D102
        pass

    def on_commit(self, txn: Txn) -> None:  # noqa: D102
        pass

    def on_abort(self, txn: Txn, cause: AbortCause) -> None:  # noqa: D102
        pass

    def on_stall(self, thread_id: int, cycles: int) -> None:  # noqa: D102
        # begin stall (Δ-protocol park, escalation quiesce, injected
        # stall storm): there is no Txn yet, so the hook carries the
        # thread id and the cycles charged
        pass


def resolve_hook(tracer, hook: str):
    """``tracer.<hook>`` itself (whatever that instance holds, a timing
    wrapper included), or None when it is the base no-op or a
    ``MultiTracer`` whose ``_<hook>`` forwards to no child."""
    method = getattr(tracer, hook, None)
    noop = (getattr(method, "__func__", None) is getattr(Tracer, hook)
            or getattr(tracer, "_" + hook, None) == [])
    return None if noop else method


def skipped_polls(clock: int, thread_id: int, now: int, waker: int,
                  period: int) -> int:
    """Polls a parked thread would have taken before another's step.

    A thread polling every ``period`` cycles from ``clock`` is scheduled
    at ``(clock + period * i, thread_id)`` for i = 0, 1, ...; this
    counts the keys that sort before ``(now, waker)``, the key the
    other thread's step was scheduled at.
    """
    behind = now - clock
    if behind < 0:
        return 0
    polls, rest = divmod(behind, period)
    # a poll at exactly ``now`` runs first only on the lower thread id
    return polls + (rest != 0 or thread_id < waker)


class _ThreadState:
    """Mutable execution state of one simulated thread."""

    __slots__ = ("thread_id", "specs", "stats", "spec", "txn", "gen",
                 "pending", "retries", "clock", "done", "redo_op",
                 "first_attempt_clock", "attempt_clock",
                 "consecutive_stalls", "queued",
                 "parked", "read_cycles", "write_cycles",
                 "compute_cycles", "stall_cycles")

    def __init__(self, thread_id: int, specs: Iterator[TransactionSpec],
                 stats: ThreadStats):
        self.thread_id = thread_id
        self.specs = specs
        #: this thread's row of the run's statistics
        self.stats = stats
        self.spec: Optional[TransactionSpec] = None
        self.txn: Optional[Txn] = None
        self.gen: Optional[Generator] = None
        self.pending: object = None
        self.retries = 0
        self.clock = 0
        self.done = False
        #: operation to re-issue after a NACK stall (LogTM-class systems)
        self.redo_op: object = None
        #: clock at the current transaction's first successful begin —
        #: the retry policy's starvation-age watermark
        self.first_attempt_clock = 0
        #: clock at the current attempt's successful begin (what the
        #: profiler's wasted-cycle tally charges an abort from)
        self.attempt_clock = 0
        #: begin stalls since the last successful begin (stall-storm
        #: starvation detection; stalls never abort, so attempt counting
        #: alone cannot see them)
        self.consecutive_stalls = 0
        #: waiting in (or holding) the golden-token escalation queue
        self.queued = False
        #: off the scheduler heap at a gated begin: its polls are
        #: charged in closed form (_catch_up) until the gate opens
        #: (_wake_head)
        self.parked = False
        #: cycles charged to the profiler's per-operation phases while
        #: one is attached (0 otherwise): the profiler folds them into
        #: its phase table (CycleProfiler._fold), so an operation costs
        #: it no call
        self.read_cycles = 0
        self.write_cycles = 0
        self.compute_cycles = 0
        self.stall_cycles = 0


class Engine:
    """Drives thread programs through one TM system to completion."""

    #: cycles charged when a begin must stall (Δ-protocol, section 4.2)
    STALL_CYCLES = 20
    #: consecutive begin stalls *executed as steps* before the watchdog
    #: raises: a permanent begin-stall — a backend whose ``begin``
    #: returns None forever, an unsuppressible stall storm, a gate only
    #: threads that are themselves gated could open — would otherwise
    #: spin silently to ``max_steps``.  Any dispatch, successful begin,
    #: commit or abort resets the streak, so a healthy Δ-protocol or
    #: overflow-drain stall can never trip it.  The polls of a parked
    #: thread are not steps and do not count: a parked thread is waiting
    #: on a thread that runs, and if none is left ``run`` raises the
    #: same error at once instead of counting to it.
    WATCHDOG_STALL_STEPS = 20_000

    def __init__(self, tm: TMSystem,
                 programs: Iterable[Iterable[TransactionSpec]],
                 tracer: Optional[Tracer] = None,
                 promote_sites: Optional[set] = None):
        self.tm = tm
        self.machine = tm.machine
        #: telemetry registry (None when telemetry is off — the default)
        self.metrics = getattr(tm.machine, "metrics", None)
        #: cycle profiler (None when profiling is off — the default);
        #: set by CycleProfiler.attach_engine, called below for a
        #: profiler in the tracer slot or else for the machine's
        self.profiler = None
        # explicit None test: a tracer with __len__ (e.g. HistoryRecorder)
        # is falsy while empty and must not be discarded
        self.tracer = tracer if tracer is not None else Tracer()
        # tracers that need cycle timestamps, like SpanRecorder, read thread
        # clocks straight off the engine rather than widening the hook
        # signatures every existing tracer implements
        attach = getattr(self.tracer, "attach_engine", None)
        if attach is not None:
            attach(self)
        profiler = getattr(tm.machine, "profiler", None)
        if self.profiler is None and profiler is not None:
            # the profiler folds in the cycles charged on this engine's
            # thread states, so it must know the engine
            profiler.attach_engine(self)
        # the hooks called per operation or stall, resolved once attached
        self._on_read = resolve_hook(self.tracer, "on_read")
        self._on_write = resolve_hook(self.tracer, "on_write")
        self._on_stall = resolve_hook(self.tracer, "on_stall")
        #: source sites whose reads are force-promoted — the write-skew
        #: tool's automatic read-promotion fix (section 5.1)
        self.promote_sites = promote_sites or set()
        # Restart-cost jitter, applied after every abort regardless of the
        # TM system's backoff policy.  Real restarts never take identical
        # time twice; in a deterministic simulator, charging them equally
        # can lock two eager transactions into mutually aborting forever.
        self._restart_jitter = tm.rng.split("engine-restart-jitter")
        programs = list(programs)
        if len(programs) > self.machine.config.machine.cores:
            raise SimulationError(
                f"{len(programs)} threads exceed "
                f"{self.machine.config.machine.cores} cores")
        self.stats = RunStats(len(programs))
        tm.stats = self.stats
        self.threads: List[_ThreadState] = [
            _ThreadState(i, iter(program), self.stats.threads[i])
            for i, program in enumerate(programs)]
        # bound once: the step calls them per simulated access (a traced
        # pass has wrapped the instance attributes by now)
        self._read = tm.read
        self._write = tm.write
        self._steps = 0
        #: fault injector shared with the machine/MVM (None — the
        #: default — when the config carries no active plan)
        self.faults = getattr(tm.machine, "faults", None)
        #: engine-level retry policy (:mod:`repro.sim.retry`); None —
        #: the default — keeps the legacy behaviour byte-identical
        self.retry_policy = getattr(tm.machine.config, "retry", None)
        self._retry_rng = (tm.rng.split("engine-retry-backoff")
                           if self.retry_policy is not None else None)
        #: thread ids starving for the golden token, FIFO; the head
        #: runs serially (all other begins park) once in-flight
        #: transactions drain
        self._escalation_queue: List[int] = []
        #: thread id currently holding the golden token, or None
        self._golden: Optional[int] = None
        #: consecutive no-progress steps (watchdog streak)
        self._no_progress = 0
        #: scheduler-heap pushes (a heapreplace counts as one): run()
        #: pushes at most once per executed step and not after the step
        #: that parks a thread, which pays for that thread's one wake
        #: push — so pushes never exceed steps + threads
        self._heap_pushes = 0
        #: the scheduler heap of the run in progress: one key
        #: ``clock * threads + thread_id`` per live thread that is off the
        #: CPU and not parked.  With ``0 <= thread_id < threads`` and
        #: integer clocks, the keys sort as the ``(clock, thread_id)``
        #: pairs they encode.
        self._heap: List[int] = []
        self._max_steps = float("inf")

    # ------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunStats:
        """Run every thread program to completion; return the statistics.

        The one scheduling loop: always step the thread with the
        smallest ``(clock, thread_id)``, executing the step here.  The
        heap holds exactly one entry per live thread that is off the
        CPU, except threads parked at a gated begin (:meth:`_begin`),
        which rejoin it when the gate opens (:meth:`_wake_head`).
        """
        threads = self.threads
        n = len(threads)
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        inf = float("inf")
        limit = self._max_steps = inf if max_steps is None else max_steps
        heap = self._heap = [t.clock * n + t.thread_id for t in threads]
        heapq.heapify(heap)
        self._heap_pushes += len(heap)
        # bound once per run: the loop uses them per simulated operation
        # (a traced pass has wrapped tm.read and tm.write by now)
        read, write = self._read, self._write
        profiler = self.profiler
        on_read, on_write = self._on_read, self._on_write
        promote_sites = self.promote_sites
        compute_cycles = self.machine.config.compute_cycles
        begin, commit, abort = self._begin, self._commit, self._abort
        while heap:
            tid = heappop(heap) % n
            thread = threads[tid]
            # Burst scheduling: the running thread keeps the CPU while it
            # is still the schedule minimum.  Popping the minimum right
            # after pushing it is the identity, so skipping the pair
            # cannot reorder the schedule; and the heap — hence its head,
            # cached here — changes meanwhile only when a commit or an
            # abort wakes a parked thread, which it reports.
            head = heap[0] if heap else inf
            while True:
                if self._steps >= limit:
                    raise self._step_limit_error()
                self._steps += 1
                txn = thread.txn
                if txn is None:
                    if thread.spec is None:
                        nxt = next(thread.specs, None)
                        if nxt is None:
                            thread.done = True
                            thread.stats.cycles = thread.clock
                            break
                        thread.spec = nxt
                        thread.retries = 0
                    if begin(thread):
                        break  # parked: off the heap until the gate opens
                elif txn.doomed is not None:
                    if abort(thread, txn.doomed):
                        head = heap[0]
                else:
                    op = thread.redo_op
                    if op is not None:
                        # NACK-stalled operation: re-issue it instead of
                        # resuming the body
                        thread.redo_op = None
                    else:
                        try:
                            op = thread.gen.send(thread.pending)
                        except StopIteration:
                            try:
                                if commit(thread):
                                    head = heap[0]
                            except TransactionAborted as aborted:
                                if abort(thread, aborted.cause):
                                    head = heap[0]
                        except TransactionAborted as aborted:
                            if abort(thread, aborted.cause):
                                head = heap[0]
                    if op is not None:
                        thread.pending = None
                        self._no_progress = 0
                        try:
                            kind, addr, arg, arg2 = op
                        except (TypeError, ValueError):
                            raise SimulationError(
                                f"unknown operation {op!r}") from None
                        try:
                            if kind is READ:
                                # (READ, addr, site, promote)
                                promote = (arg2
                                           or thread.spec.serializable
                                           or (arg in promote_sites
                                               if promote_sites else False))
                                value, cycles = read(txn, addr, promote)
                                thread.pending = value
                                thread.clock += cycles
                                if profiler is not None:
                                    thread.read_cycles += cycles
                                thread.stats.reads += 1
                                if on_read is not None:
                                    on_read(txn, addr, arg, value)
                            elif kind is WRITE:
                                # (WRITE, addr, value, site)
                                cycles = write(txn, addr, arg)
                                thread.clock += cycles
                                if profiler is not None:
                                    thread.write_cycles += cycles
                                thread.stats.writes += 1
                                if on_write is not None:
                                    on_write(txn, addr, arg2, arg)
                            elif kind is COMPUTE:
                                # (COMPUTE, cycles, None, None)
                                cycles = addr * compute_cycles
                                thread.clock += cycles
                                if profiler is not None:
                                    thread.compute_cycles += cycles
                            elif kind is ABORT:
                                raise TransactionAborted(AbortCause.EXPLICIT)
                            else:
                                raise SimulationError(
                                    f"unknown operation {op!r}")
                        except StallRequested as stall:
                            thread.clock += stall.cycles
                            if profiler is not None:
                                thread.stall_cycles += stall.cycles
                            thread.redo_op = op
                        except TransactionAborted as aborted:
                            if abort(thread, aborted.cause):
                                head = heap[0]
                key = thread.clock * n + tid
                if head < key:
                    # one sift for push-then-pop: keys are unique and
                    # head < key, so the minimum it returns is the head
                    tid = heapreplace(heap, key) % n
                    self._heap_pushes += 1
                    thread = threads[tid]
                    head = heap[0]
        if any(t.parked for t in threads):
            raise SimulationError(
                "engine watchdog: every runnable thread finished while "
                "others wait parked at a gated begin (permanent begin "
                "stall)\n" + self.diagnostics())
        return self.stats

    def _step_limit_error(self) -> SimulationError:
        return SimulationError(
            f"exceeded {self._max_steps} engine steps\n"
            + self.diagnostics())

    # ------------------------------------------------------------------

    def _begin(self, thread: _ThreadState) -> bool:
        """Begin ``thread``'s next attempt, or stall; True when it parked."""
        if not self._may_begin(thread):
            # escalation quiesce: a starving thread heads the queue, so
            # everyone else waits at begin until it commits serially
            self._stall(thread)
            if thread.queued and self._heap:
                # Until this thread heads the queue with nothing in
                # flight, each of its steps would be this same stall: a
                # queued thread skips the starvation test and the fault
                # site sits behind the gate.  So it leaves the heap, and
                # _catch_up charges the polls it does not take.  (A
                # gated thread not yet queued keeps polling: the stall
                # that exhausts its budget fixes its place in the queue.
                # And the last runnable thread never parks, so a wait
                # nobody can end still meets the watchdog.)
                thread.parked = True
                return True
            return False
        if self._escalation_queue:
            self._catch_up(thread)
        if self.faults is not None and self.faults.begin_stall():
            # injected stall storm: the begin request never reaches the
            # TM system (a saturated timestamp-issue port)
            self._stall(thread)
            return False
        txn, cycles = self.tm.begin(
            thread.thread_id, thread.spec.label, thread.retries)
        thread.clock += cycles
        if self.profiler is not None:
            self.profiler.account(thread.thread_id, "begin", cycles)
        if txn is None:
            self._stall(thread)
            return False
        thread.consecutive_stalls = 0
        self._no_progress = 0
        if thread.retries == 0:
            thread.first_attempt_clock = thread.clock
        thread.attempt_clock = thread.clock
        thread.txn = txn
        thread.gen = thread.spec.body_factory()
        thread.pending = None
        self.tracer.on_begin(txn)
        return False

    def _stall(self, thread: _ThreadState) -> None:
        """Charge one begin stall; detect stall starvation and no-progress."""
        self._charge_stalls(thread, 1)
        policy = self.retry_policy
        if (policy is not None and policy.escalation
                and not thread.queued
                and policy.stall_starved(thread.consecutive_stalls)):
            self._enqueue(thread)
        self._no_progress += 1
        if self._no_progress >= self.WATCHDOG_STALL_STEPS:
            raise SimulationError(
                f"engine watchdog: no progress in {self._no_progress} "
                f"consecutive steps (permanent begin stall)\n"
                + self.diagnostics())

    def _charge_stalls(self, thread: _ThreadState, polls: int) -> None:
        """What ``polls`` consecutive begin stalls cost ``thread``."""
        stall = self.STALL_CYCLES
        cycles = polls * stall
        if self.profiler is not None:
            self.profiler.account(thread.thread_id, "begin_stall", cycles)
        if self.metrics is not None:
            self.metrics.inc("engine_begin_stalls", polls)
            self.metrics.inc("engine_begin_stall_cycles", cycles)
        on_stall = self._on_stall
        if on_stall is None:
            thread.clock += cycles
        else:
            # one call per stall, each at the clock it is charged at
            # (TimeSeriesSampler windows stalls by that clock)
            for _ in range(polls):
                thread.clock += stall
                on_stall(thread.thread_id, stall)
        thread.consecutive_stalls += polls

    # -- golden-token escalation (repro.sim.retry) ---------------------

    def _may_begin(self, thread: _ThreadState) -> bool:
        """Gate begins while the escalation queue works off starvation."""
        if self._golden is not None:
            return self._golden == thread.thread_id
        if not self._escalation_queue:
            return True
        if self._escalation_queue[0] != thread.thread_id:
            return False
        if self.tm.active_txns:
            # the head waits for in-flight transactions to drain before
            # taking the token; ops/commits/aborts are never gated, so
            # the drain always completes
            return False
        self._acquire_golden(thread)
        return True

    def _enqueue(self, thread: _ThreadState) -> None:
        thread.queued = True
        self._escalation_queue.append(thread.thread_id)

    def _acquire_golden(self, thread: _ThreadState) -> None:
        self._golden = thread.thread_id
        self.stats.escalations += 1
        # the token holder runs as a software fallback: hardware
        # capacity bounds do not apply, so a transaction whose
        # footprint can never fit still terminates
        self.tm.capacity_suppressed = True
        if self.faults is not None:
            # the token holder runs fault-free: a serial, unfaulted
            # transaction commits in every backend, so each escalation
            # makes strict progress
            self.faults.suppressed = True
        if self.metrics is not None:
            self.metrics.inc("engine_escalations")

    def _release_golden(self, thread: _ThreadState) -> None:
        self._golden = None
        thread.queued = False
        self._escalation_queue.pop(0)
        self.tm.capacity_suppressed = False
        if self.faults is not None:
            self.faults.suppressed = False

    def _catch_up(self, thread: _ThreadState) -> None:
        """Charge parked threads the polls due before ``thread``'s step.

        Called with ``thread.clock`` still the clock its step was
        scheduled at, before each begin, commit and abort while the
        queue is non-empty (nothing is parked otherwise): those are the
        calls that change what a stall hook can observe (the MVM's
        version lists, sampled by ``TimeSeriesSampler`` as windows
        close), so every replayed hook sees the state its poll would
        have seen.
        """
        for tid in self._escalation_queue:
            parked = self.threads[tid]
            if not parked.parked:
                continue
            polls = skipped_polls(parked.clock, tid, thread.clock,
                                  thread.thread_id, self.STALL_CYCLES)
            if polls:
                self._steps += polls
                if self._steps > self._max_steps:
                    raise self._step_limit_error()
                self._charge_stalls(parked, polls)

    def _wake_head(self) -> bool:
        """Un-park the queue head if its gate is open; True when it was.

        The head may begin once no token is held and nothing is in
        flight (:meth:`_may_begin`), which only a commit or an abort
        brings about; both call this last, having caught the head up to
        their own step first, so it rejoins the heap at its next poll.
        """
        queue = self._escalation_queue
        if not queue or self._golden is not None or self.tm.active_txns:
            return False
        head = self.threads[queue[0]]
        if not head.parked:
            return False
        head.parked = False
        heapq.heappush(self._heap,
                       head.clock * len(self.threads) + head.thread_id)
        self._heap_pushes += 1
        return True

    def _commit(self, thread: _ThreadState) -> bool:
        """Commit ``thread``'s transaction; True when it woke a parked thread."""
        txn = thread.txn
        assert txn is not None
        if txn.doomed is not None:
            return self._abort(thread, txn.doomed)
        if self.faults is not None and self.faults.spurious_abort():
            # injected conflict-detection false positive, surfaced with
            # the backend's own declared cause so oracle cause checks
            # treat it like any legal abort
            return self._abort(thread, self.tm.SPURIOUS_ABORT_CAUSE)
        if self._escalation_queue:
            self._catch_up(thread)
        cycles = self.tm.commit(txn, thread.clock)
        thread.clock += cycles
        if self.profiler is not None:
            self.profiler.account(thread.thread_id, "commit", cycles)
        self.stats.record_commit(thread.thread_id, thread.spec.label,
                                 thread.retries)
        self.tracer.on_commit(txn)
        self._no_progress = 0
        if self._golden == thread.thread_id:
            self._release_golden(thread)
        thread.spec = None
        thread.txn = None
        thread.gen = None
        return self._wake_head()

    def _abort(self, thread: _ThreadState, cause: AbortCause) -> bool:
        """Abort ``thread``'s transaction; True when it woke a parked thread."""
        txn = thread.txn
        assert txn is not None
        if self._escalation_queue:
            self._catch_up(thread)
        cycles = self.tm.abort(txn, cause)
        jitter = self._restart_jitter.randrange(16)
        thread.clock += cycles + jitter
        if self.profiler is not None:
            self.profiler.account(thread.thread_id, "abort",
                                  cycles + jitter)
            self.profiler.sub_account(thread.thread_id, "abort",
                                      "restart_jitter", jitter)
        policy = self.retry_policy
        if policy is not None:
            # engine-level capped exponential backoff with jitter, on
            # top of whatever the backend already charged
            delay = policy.delay(thread.retries, self._retry_rng)
            thread.clock += delay
            if self.profiler is not None:
                self.profiler.account(thread.thread_id, "abort", delay)
                self.profiler.sub_account(thread.thread_id, "abort",
                                          "retry_backoff", delay)
            if self.metrics is not None:
                self.metrics.inc("engine_retry_backoff_cycles", delay)
        self.stats.record_abort(thread.thread_id, thread.spec.label, cause)
        self.tracer.on_abort(txn, cause)
        self._no_progress = 0
        if thread.gen is not None:
            thread.gen.close()
        thread.txn = None
        thread.gen = None
        thread.redo_op = None
        thread.retries += 1
        self.stats.max_attempts_seen = max(self.stats.max_attempts_seen,
                                           thread.retries)
        if (policy is not None and policy.escalation
                and not thread.queued
                and policy.abort_starved(
                    thread.retries,
                    thread.clock - thread.first_attempt_clock)):
            self._enqueue(thread)
        limit = self.machine.config.tm.max_retries
        if limit and thread.retries > limit:
            raise SimulationError(
                f"transaction {thread.spec.label!r} exceeded {limit} "
                f"retries\n" + self.diagnostics())
        return self._wake_head()

    # ------------------------------------------------------------------

    @property
    def steps_taken(self) -> int:
        """Engine steps executed so far (one step = one scheduler slot)."""
        return self._steps

    def diagnostics(self) -> str:
        """Execution-state dump for no-progress failures.

        Attached to the :class:`SimulationError` raised on ``max_steps``
        exhaustion or retry-limit overrun, so a stuck run (a livelocked
        broken backend, a pathological schedule) is diagnosable from the
        exception alone: per-thread position, the retry distribution,
        and which abort causes dominated.
        """
        lines = [f"engine diagnostics after {self._steps} steps:"]
        for thread in self.threads:
            if thread.done:
                state = "done"
            elif thread.txn is None:
                state = "between transactions"
            else:
                state = f"in txn (doomed={thread.txn.doomed})"
            label = thread.spec.label if thread.spec is not None else "-"
            tstats = self.stats.threads[thread.thread_id]
            lines.append(
                f"  thread {thread.thread_id}: clock={thread.clock} "
                f"spec={label!r} retries={thread.retries} {state} "
                f"commits={tstats.commits} aborts={tstats.aborts} "
                f"stalls={thread.consecutive_stalls}"
                + (" parked" if thread.parked else ""))
        if self._golden is not None or self._escalation_queue:
            lines.append(
                f"  escalation: golden={self._golden} "
                f"queue={self._escalation_queue} "
                f"parked={[t.thread_id for t in self.threads if t.parked]} "
                f"escalations={self.stats.escalations}")
        if self._no_progress:
            lines.append(f"  no-progress streak: {self._no_progress} steps")
        if self.faults is not None:
            injected = self.faults.stats()["injected"]
            if injected:
                sites = " ".join(f"{site}:{n}"
                                 for site, n in injected.items())
                lines.append(f"  injected faults: {sites}")
        if self.stats.retry_histogram:
            retries = " ".join(
                f"{k}:{v}"
                for k, v in sorted(self.stats.retry_histogram.items()))
            lines.append(f"  retries-to-commit histogram: {retries}")
        if self.stats.abort_causes:
            top = sorted((-n, CAUSE_VALUES[cause])
                         for cause, n in self.stats.abort_causes.items())[:5]
            causes = " ".join(f"{value}:{-n}" for n, value in top)
            lines.append(f"  top abort causes: {causes}")
        return "\n".join(lines)
