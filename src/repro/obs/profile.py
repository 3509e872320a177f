"""Deterministic cycle-attribution profiler (phase accounting + heatmaps).

Answers the question the span/metric layers cannot: **where do the
cycles go** inside one run.  The engine charges every simulated cycle
to exactly one top-level *phase* as it advances a thread clock —
``begin``, ``begin_stall``, ``read``, ``write``, ``compute``,
``stall`` (NACK retries), ``commit``, ``abort`` — so the profiler's
per-thread phase totals sum **exactly** to the thread's final clock.
That is the *cycle-conservation invariant*, checked by
:meth:`CycleProfiler.check_conservation` and enforced for every
backend by ``tests/obs/test_profile.py``.

Within a phase, the layers that know the breakdown attribute
*sub-phases*: the TM base class attributes ``backoff`` (under
``abort``) and ``token_wait`` (under ``commit``); SI-TM attributes
``install`` (version-install burst), SSI-TM ``validate``
(dangerous-structure scan), LogTM ``undo`` (software rollback walk);
the engine itself attributes ``restart_jitter``.  Sub-phases never
exceed their parent; the unattributed remainder is the phase's fixed
overhead (``txn_overhead_cycles`` and friends).

The profiler is also an engine :class:`~repro.sim.engine.Tracer`: its
``on_write``/``on_abort`` hooks build the **conflict heatmap** — which
lines (and which source sites touching them) cause aborts, joined with
the MVM's per-line install/coalesce/GC events so the report
(:func:`repro.obs.report.conflict_heatmap`) can say whether coalescing
is absorbing the hot lines.  Putting it in the tracer slot (alone or
inside a :class:`~repro.obs.spans.MultiTracer`) wires everything:
``attach_engine`` plants the profiler on the engine, the machine and
the MVM controller.

Overhead contract: identical to the metrics registry's.  A run without
profiling carries ``profiler = None`` on the engine, machine and MVM
controller, so each instrumented site costs one ``is not None`` test
(covered by ``benchmarks/test_telemetry_overhead.py``); profiling a
run never perturbs it — schedules and statistics are byte-identical
either way.

Exports: :meth:`CycleProfiler.snapshot` is canonical JSON (sorted
keys, string-keyed maps) that survives the executor's process/cache
boundary, and :func:`collapsed_stacks` renders any snapshot in the
collapsed-stack format flamegraph tooling consumes
(``flamegraph.pl``, speedscope, inferno: one ``frame;frame value``
line per stack).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.errors import CAUSE_VALUES, AbortCause, SimulationError
from repro.sim.engine import Tracer
from repro.tm.api import Txn

__all__ = ["CycleProfiler", "collapsed_stacks", "phase_shares",
           "PHASES", "SUB_PHASES"]

#: top-level phases, in pipeline order — every cycle the engine charges
#: to a thread clock lands in exactly one of these
PHASES = ("begin", "begin_stall", "read", "write", "compute", "stall",
          "commit", "abort")

#: known sub-phase attributions, by parent phase (informational — the
#: profiler accepts any name; these are what the instrumented layers emit)
SUB_PHASES = {
    "commit": ("token_wait", "install", "validate"),
    "abort": ("backoff", "undo", "restart_jitter"),
}

#: the phases the engine charges per simulated operation, each into a
#: ``<phase>_cycles`` slot of its thread state rather than by a call
OPERATION_PHASES = ("read", "write", "compute", "stall")

#: MVM event kinds tracked per line for the conflict heatmap
MVM_EVENTS = ("install", "coalesce", "gc")


class CycleProfiler(Tracer):
    """Hierarchical per-thread cycle accounting plus conflict attribution.

    The engine charges the phases of a begin, stall, commit or abort
    through :meth:`account`, and those of an operation
    (:data:`OPERATION_PHASES`) into slots of its thread states, which
    :meth:`_fold` moves into the same table before anything reads it.
    Instrumented layers call :meth:`sub_account` for the portions they
    can attribute, and the MVM controller calls :meth:`mvm_event` per
    install/coalesce/GC.
    As a tracer, ``on_write`` maps lines to the source sites touching
    them and ``on_abort`` reads ``txn.conflict_line`` (stamped by the
    backend that detected the conflict) into the per-line abort table,
    and charges the attempt's cycles since the engine's
    ``attempt_clock`` (its begin) to the wasted-cycle tally.
    """

    def __init__(self) -> None:
        #: thread -> phase -> cycles (top level; conserved)
        self._phases: Dict[int, Dict[str, int]] = {}
        #: thread -> parent phase -> sub-phase -> cycles
        self._sub: Dict[int, Dict[str, Dict[str, int]]] = {}
        #: line -> abort-cause value -> count (conflict heatmap core)
        self._conflict_lines: Dict[int, Dict[str, int]] = {}
        #: line -> source site -> write count (heatmap line->code mapping)
        self._line_sites: Dict[int, Dict[str, int]] = {}
        #: event kind -> line -> count (is coalescing absorbing the line?)
        self._mvm_events: Dict[str, Dict[int, int]] = {}
        #: aborts whose detecting backend knew no single conflicting line
        self.unattributed_aborts = 0
        #: thread -> cycles burned inside attempts that ended in abort
        #: (each abort charges its clock minus the thread state's
        #: ``attempt_clock``, the exact wasted-work quantum the span
        #: recorder sees as abort-span duration — the ledger
        #: reconciliation in the runner depends on the two agreeing to
        #: the cycle)
        self._wasted: Dict[int, int] = {}
        self._amap = None
        self._words_per_line = 0
        self._engine = None

    # -- wiring ----------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Plant this profiler on the engine, machine and MVM controller.

        Called by the engine (directly or via
        :class:`~repro.obs.spans.MultiTracer`) when the profiler sits in
        the tracer slot; from then on every ``profiler is not None``
        guard along the hot paths fires.
        """
        self._fold()  # what a previous engine charged stays counted
        engine.profiler = self
        self._engine = engine
        machine = getattr(engine, "machine", None)
        if machine is not None:
            machine.profiler = self
            machine.mvm.profiler = self
            self._amap = machine.address_map
            # on_write maps an address to its line inline, one call less
            # per observed write than AddressMap.line_of
            self._words_per_line = self._amap.words_per_line

    # -- accounting ------------------------------------------------------

    def account(self, thread_id: int, phase: str, cycles: int) -> None:
        """Charge ``cycles`` of ``thread_id``'s clock to ``phase``."""
        phases = self._phases.get(thread_id)
        if phases is None:
            phases = self._phases[thread_id] = {}
        phases[phase] = phases.get(phase, 0) + cycles

    def _fold(self) -> None:
        """Move the per-operation cycles the engine charged on its
        thread states into the phase table (a phase appears once it has
        been charged a cycle)."""
        if self._engine is None:
            return
        for thread in self._engine.threads:
            for phase in OPERATION_PHASES:
                slot = phase + "_cycles"
                cycles = getattr(thread, slot)
                if cycles:
                    setattr(thread, slot, 0)
                    phases = self._phases.setdefault(thread.thread_id, {})
                    phases[phase] = phases.get(phase, 0) + cycles

    def sub_account(self, thread_id: int, parent: str, sub: str,
                    cycles: int) -> None:
        """Attribute ``cycles`` of ``parent``'s charge to sub-phase ``sub``.

        Sub-phases refine a top-level phase; they never add to the
        thread total (the parent already carries the cycles).
        """
        if not cycles:
            return
        parents = self._sub.get(thread_id)
        if parents is None:
            parents = self._sub[thread_id] = {}
        subs = parents.get(parent)
        if subs is None:
            subs = parents[parent] = {}
        subs[sub] = subs.get(sub, 0) + cycles

    def mvm_event(self, kind: str, line: int, count: int = 1) -> None:
        """Record an MVM controller event (install/coalesce/gc) on ``line``."""
        lines = self._mvm_events.get(kind)
        if lines is None:
            lines = self._mvm_events[kind] = {}
        lines[line] = lines.get(line, 0) + count

    # -- tracer hooks (conflict heatmap + wasted-work tally) -------------

    def on_write(self, txn: Txn, addr: int, site: str,
                 value: object = None) -> None:
        if self._amap is None:
            return
        line = addr // self._words_per_line
        sites = self._line_sites.get(line)
        if sites is None:
            sites = self._line_sites[line] = {}
        sites[site] = sites.get(site, 0) + 1

    def on_abort(self, txn: Txn, cause: AbortCause) -> None:
        tid = txn.thread_id
        thread = self._engine.threads[tid]
        self._wasted[tid] = (self._wasted.get(tid, 0)
                             + thread.clock - thread.attempt_clock)
        line = txn.conflict_line
        if line is None:
            self.unattributed_aborts += 1
            return
        causes = self._conflict_lines.get(line)
        if causes is None:
            causes = self._conflict_lines[line] = {}
        name = CAUSE_VALUES[cause]
        causes[name] = causes.get(name, 0) + 1

    # -- invariants ------------------------------------------------------

    def check_conservation(self, thread_clocks: Sequence[int],
                           wasted_by_thread: Optional[Dict[int, int]]
                           = None) -> None:
        """Verify phase cycles sum exactly to each thread's final clock.

        Also verifies sub-phase containment (no sub-phase group exceeds
        its parent) and that no thread's wasted-cycle tally exceeds its
        clock.  When ``wasted_by_thread`` is given (the span ledger's
        per-victim-thread totals), it must match this profiler's tally
        *exactly* — wasted work is counted by two independent observers
        (abort-span durations vs. begin/abort clock deltas) and any
        disagreement means cycles were lost or invented.  Raises
        :class:`~repro.common.errors.SimulationError` on any violation —
        a profiler that loses or invents cycles would silently corrupt
        every phase-share number downstream.
        """
        self._fold()
        for thread_id, clock in enumerate(thread_clocks):
            total = sum(self._phases.get(thread_id, {}).values())
            if total != clock:
                raise SimulationError(
                    f"cycle-conservation violation on thread {thread_id}: "
                    f"phases sum to {total}, engine clock is {clock}")
            wasted = self._wasted.get(thread_id, 0)
            if wasted > clock:
                raise SimulationError(
                    f"wasted-cycle overflow on thread {thread_id}: "
                    f"{wasted} wasted > clock {clock}")
        if wasted_by_thread is not None:
            threads = set(self._wasted) | set(wasted_by_thread)
            for thread_id in sorted(threads):
                mine = self._wasted.get(thread_id, 0)
                theirs = wasted_by_thread.get(thread_id, 0)
                if mine != theirs:
                    raise SimulationError(
                        f"wasted-cycle reconciliation failure on thread "
                        f"{thread_id}: profiler tallied {mine}, span "
                        f"ledger charged {theirs}")
        for thread_id, parents in self._sub.items():
            phases = self._phases.get(thread_id, {})
            for parent, subs in parents.items():
                attributed = sum(subs.values())
                if attributed > phases.get(parent, 0):
                    raise SimulationError(
                        f"sub-phase overflow on thread {thread_id}: "
                        f"{parent} sub-phases sum to {attributed} > "
                        f"{phases.get(parent, 0)}")

    # -- accessors -------------------------------------------------------

    def total_cycles(self) -> int:
        """All charged cycles (equals the sum of final thread clocks)."""
        self._fold()
        return sum(sum(phases.values()) for phases in self._phases.values())

    def wasted_cycles(self) -> int:
        """Total cycles across all threads spent on aborted attempts."""
        return sum(self._wasted.values())

    # -- serialization ---------------------------------------------------

    def snapshot(self) -> dict:
        """Canonical JSON-safe snapshot (sorted, string-keyed, versioned).

        This is what :class:`~repro.harness.runner.RunResult.phases`
        carries across the executor's process/cache boundary; identical
        runs produce byte-identical snapshots.
        """
        self._fold()
        return {
            # version 2 added "wasted_cycles"; downstream consumers
            # (phase_shares) read only "threads", so version-1
            # snapshots remain loadable
            "version": 2,
            "threads": {
                str(tid): {
                    phase: {
                        "cycles": cycles,
                        "sub": {
                            sub: self._sub.get(tid, {})
                                         .get(phase, {})[sub]
                            for sub in sorted(
                                self._sub.get(tid, {}).get(phase, {}))
                        },
                    }
                    for phase, cycles in sorted(phases.items())
                }
                for tid, phases in sorted(self._phases.items())
            },
            "conflict_lines": {
                str(line): {cause: count
                            for cause, count in sorted(causes.items())}
                for line, causes in sorted(self._conflict_lines.items())
            },
            "line_sites": {
                str(line): {site: count
                            for site, count in sorted(sites.items())}
                for line, sites in sorted(self._line_sites.items())
            },
            "mvm_events": {
                kind: {str(line): count
                       for line, count in sorted(lines.items())}
                for kind, lines in sorted(self._mvm_events.items())
            },
            "unattributed_aborts": self.unattributed_aborts,
            "wasted_cycles": {str(tid): cycles
                              for tid, cycles in sorted(self._wasted.items())},
        }


def phase_shares(snapshot: dict) -> Dict[str, float]:
    """Fraction of all charged cycles per top-level phase.

    Shares of a conserved total are comparable across code versions
    even when absolute cycle counts legitimately move.
    """
    totals: Dict[str, int] = {}
    for phases in snapshot.get("threads", {}).values():
        for phase, entry in phases.items():
            totals[phase] = totals.get(phase, 0) + entry["cycles"]
    grand = sum(totals.values())
    if not grand:
        return {}
    return {phase: totals[phase] / grand for phase in sorted(totals)}


def collapsed_stacks(snapshot: dict, per_thread: bool = False,
                     root: str = "run") -> str:
    """Render a profiler snapshot in collapsed-stack (flamegraph) format.

    One ``frame;frame;frame cycles`` line per stack, deepest frame
    last, suitable for ``flamegraph.pl``, inferno or speedscope.  A
    phase's unattributed remainder (cycles not claimed by any
    sub-phase) appears at the phase frame itself, so the flamegraph's
    totals conserve cycles exactly like the profiler does.  With
    ``per_thread=True`` each simulated thread gets its own second-level
    frame.
    """
    weights: Dict[str, int] = {}

    def add(stack: List[str], cycles: int) -> None:
        if cycles:
            key = ";".join(stack)
            weights[key] = weights.get(key, 0) + cycles

    for tid, phases in sorted(snapshot.get("threads", {}).items(),
                              key=lambda item: int(item[0])):
        base = [root, f"thread-{tid}"] if per_thread else [root]
        for phase, entry in sorted(phases.items()):
            attributed = 0
            for sub, cycles in sorted(entry.get("sub", {}).items()):
                add(base + [phase, sub], cycles)
                attributed += cycles
            add(base + [phase], entry["cycles"] - attributed)
    lines = [f"{stack} {cycles}"
             for stack, cycles in sorted(weights.items())]
    return "\n".join(lines) + ("\n" if lines else "")
