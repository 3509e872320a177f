"""Per-transaction lifecycle spans and tracer composition.

A **span** is one transaction *attempt* from begin to commit or abort,
stamped with the owning thread's simulated clock at both ends — the
unit the Chrome-trace exporter (:mod:`repro.obs.export`) draws as a
duration slice and the abort-attribution report aggregates.

:class:`SpanRecorder` is an engine :class:`~repro.sim.engine.Tracer`.
It reads clocks, and a span's reads and writes, straight from the
engine's thread states and counters (the engine hands itself to any
tracer exposing ``attach_engine``), so it needs no per-operation hook.

The engine has a single tracer slot; :class:`MultiTracer` fans one
slot out to several tracers in a fixed order, which is how telemetry
composes with the isolation oracle's
:class:`~repro.sim.history.HistoryRecorder` — attaching a span
recorder must never change the history the checker sees
(``tests/obs/test_spans.py`` pins this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.common.errors import CAUSE_VALUES, AbortCause
from repro.common.rng import derive_seed
from repro.sim.engine import Tracer, resolve_hook
from repro.tm.api import Txn

__all__ = ["Span", "SpanRecorder", "MultiTracer",
           "merge_span_aggregates", "record_span_metrics"]

#: span outcomes
COMMIT, ABORT, OPEN = "commit", "abort", "open"


@dataclass(slots=True)
class Span:
    """One transaction attempt's lifecycle record."""

    uid: int
    thread_id: int
    label: str
    begin_cycle: int
    end_cycle: Optional[int] = None
    outcome: str = OPEN
    cause: Optional[str] = None
    #: prior aborted attempts of the same logical transaction
    retries: int = 0
    reads: int = 0
    writes: int = 0
    start_ts: Optional[int] = None
    commit_ts: Optional[int] = None
    #: memory line on which the fatal conflict was detected (aborts
    #: whose cause pinpoints one; feeds the conflict heatmap)
    conflict_line: Optional[int] = None
    #: conflict provenance (aborts doomed by another transaction): the
    #: killer's thread, span uid, label and timestamp.  ``None`` for
    #: commits and self-inflicted aborts, and *omitted* from the dict
    #: form so pre-provenance span logs round-trip unchanged.
    killer_tid: Optional[int] = None
    killer_uid: Optional[int] = None
    killer_label: Optional[str] = None
    killer_ts: Optional[int] = None

    @property
    def duration(self) -> int:
        """Cycles from begin to end (0 while still open)."""
        if self.end_cycle is None:
            return 0
        return self.end_cycle - self.begin_cycle

    @property
    def has_killer(self) -> bool:
        """True when another transaction was identified as the killer."""
        return self.killer_uid is not None or self.killer_tid is not None

    def to_dict(self) -> dict:
        """JSON-safe form (stable key set; killer fields only when set)."""
        return span_dicts([self])[0]

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(uid=data["uid"], thread_id=data["thread"],
                   label=data["label"], begin_cycle=data["begin_cycle"],
                   end_cycle=data.get("end_cycle"),
                   outcome=data.get("outcome", OPEN),
                   cause=data.get("cause"),
                   retries=data.get("retries", 0),
                   reads=data.get("reads", 0),
                   writes=data.get("writes", 0),
                   start_ts=data.get("start_ts"),
                   commit_ts=data.get("commit_ts"),
                   conflict_line=data.get("conflict_line"),
                   killer_tid=data.get("killer_tid"),
                   killer_uid=data.get("killer_uid"),
                   killer_label=data.get("killer_label"),
                   killer_ts=data.get("killer_ts"))


#: a span dict's keys, in the order :meth:`Span.to_dict` emits them
#: (the order of :class:`Span`'s fields, ``thread`` naming ``thread_id``)
SPAN_COLUMNS = ("uid", "thread", "label", "begin_cycle", "end_cycle",
                "outcome", "cause", "retries", "reads", "writes",
                "start_ts", "commit_ts", "conflict_line")
#: the keys that follow them when the span has a killer
KILLER_COLUMNS = ("killer_tid", "killer_uid", "killer_label", "killer_ts")
_FIELDS = tuple(f.name for f in fields(Span))
_ROW = attrgetter(*_FIELDS[:len(SPAN_COLUMNS)])
_KILLER_ROW = attrgetter(*_FIELDS)


def span_dicts(spans: List[Span]) -> List[dict]:
    """:meth:`Span.to_dict` of every span, in one call."""
    columns = SPAN_COLUMNS + KILLER_COLUMNS
    return [dict(zip(columns, row)) for row in span_rows(spans)]


def span_rows(spans: List[Span]) -> List[tuple]:
    """Each span as the tuple of its dict's values: :data:`SPAN_COLUMNS`,
    then :data:`KILLER_COLUMNS` when it has a killer.  The result cache
    and the executor's pool carry spans so: the same data, a third of
    the dicts' encoding time."""
    return [(_KILLER_ROW if span.killer_uid is not None
             or span.killer_tid is not None else _ROW)(span)
            for span in spans]


def spans_from_rows(rows: List[list]) -> List[Span]:
    """Inverse of :func:`span_rows` (a row's order is :class:`Span`'s)."""
    return [Span(*row) for row in rows]


class SpanRecorder(Tracer):
    """Engine tracer recording one :class:`Span` per transaction attempt.

    Clock convention (set by the engine's call sites): ``begin_cycle``
    is the thread clock *after* the begin cost was charged;
    ``end_cycle`` is the clock after the commit cost, or after the
    abort cleanup including backoff/restart jitter — an abort span's
    tail is exactly the wasted work plus the penalty paid for it.

    The ``txn_cycles``/``txn_reads``/``txn_writes`` histograms are
    folded from the kept spans at the end of a run
    (:func:`record_span_metrics`), not fed per closed span.

    Retention is the ``cap`` parameter.  ``cap=None`` keeps every span,
    in begin order, in ``spans``.  A positive ``cap`` bounds memory for
    arbitrarily long runs; ``spans`` then stays empty and each closed
    span goes through this policy instead:

    * **aborts are always kept** — they are what provenance analysis
      consumes, and they are rare by construction on healthy runs;
      without a sink the newest ``cap`` aborts survive (ring buffer),
      with a sink older aborts reach the JSONL file before rotation;
    * **commits are reservoir-sampled** (Algorithm R, seeded by
      ``seed``) down to ``cap`` — a uniform sample of the flush window;
    * every closed span feeds the online per-outcome aggregates
      (power-of-two histograms of cycles/reads/footprints), which are
      exact and mergeable (:func:`merge_span_aggregates`) no matter
      how many spans were discarded.

    With ``sink`` set (it needs a cap), retained spans append to the
    JSONL file every ``flush_every`` closed spans (and whenever the
    abort buffer hits the cap), so disk gets a complete abort log plus
    sampled commits while memory stays at O(``cap``).
    """

    def __init__(self, cap: Optional[int] = None,
                 seed: int = 0, sink=None, flush_every: int = 0):
        if cap is not None and cap <= 0:
            raise ValueError(f"span cap must be positive, got {cap}")
        if cap is None and sink is not None:
            raise ValueError("a span sink needs a cap to flush against")
        self.spans: List[Span] = []
        self.cap = cap
        self.sink = sink
        self.flush_every = flush_every
        self._engine = None
        #: thread_id -> (open span, the thread's reads and writes at begin)
        self._open: Dict[int, Tuple[Span, int, int]] = {}
        self.total_begun = 0
        # -- bounded retention (all idle while cap is None) --
        self._rng = random.Random(derive_seed(seed, "span-reservoir"))
        self._commits: List[Span] = []
        self._aborts: List[Span] = []
        #: commits seen in the current flush window (reservoir size base)
        self._commit_seen = 0
        self._closed_since_flush = 0
        self.total_commits = 0
        self.total_aborts = 0
        #: spans discarded without reaching memory or the sink
        self.commits_sampled_out = 0
        self.aborts_dropped = 0
        self.flushed_spans = 0
        #: high-water mark of retained closed spans (memory-cap proof)
        self.max_retained = 0
        self._aggregates: Dict[str, Dict[str, object]] = {}

    def attach_engine(self, engine) -> None:
        """Called by the engine so spans can read its clocks and counters."""
        self._engine = engine

    # -- tracer hooks ----------------------------------------------------

    def on_begin(self, txn: Txn) -> None:
        # the TM mints txn.uid in global begin order, which is exactly
        # the order this hook fires in, so uid == total_begun whenever
        # the transaction came from a real backend; one no backend
        # registered has no uid and takes that index
        uid = txn.uid
        if uid is None:
            uid = self.total_begun
        tid = txn.thread_id
        engine = self._engine
        stats = engine.stats.threads[tid]
        span = Span(uid, tid, txn.label, engine.threads[tid].clock, None,
                    OPEN, None, txn.attempt, 0, 0, txn.start_ts)
        self.total_begun += 1
        if self.cap is None:
            self.spans.append(span)
        self._open[tid] = (span, stats.reads, stats.writes)

    def on_abort(self, txn: Txn, cause: Optional[AbortCause] = None,
                 ) -> None:
        """Close the thread's open span: an abort of ``cause``, or
        without one a commit (``on_commit`` is this method)."""
        tid = txn.thread_id
        opened = self._open.pop(tid, None)
        if opened is None:
            return
        span, reads, writes = opened
        engine = self._engine
        stats = engine.stats.threads[tid]
        span.end_cycle = engine.threads[tid].clock
        span.reads = stats.reads - reads
        span.writes = stats.writes - writes
        span.commit_ts = txn.commit_ts
        span.conflict_line = txn.conflict_line
        if cause is None:
            span.outcome = COMMIT
        else:
            span.outcome = ABORT
            span.cause = CAUSE_VALUES[cause]
            span.killer_tid = txn.killer_tid
            span.killer_uid = txn.killer_uid
            span.killer_label = txn.killer_label
            span.killer_ts = txn.killer_ts
        if self.cap is not None:
            self._aggregate(span)
            self._retain(span)

    on_commit = on_abort

    # -- retention -------------------------------------------------------

    def _retain(self, span: Span) -> None:
        if span.outcome == ABORT:
            self.total_aborts += 1
            self._aborts.append(span)
            if self.sink is None and len(self._aborts) > self.cap:
                self._aborts.pop(0)
                self.aborts_dropped += 1
        else:
            self.total_commits += 1
            self._commit_seen += 1
            if len(self._commits) < self.cap:
                self._commits.append(span)
            else:
                # either this span or the one it evicts is dropped
                self.commits_sampled_out += 1
                slot = self._rng.randrange(self._commit_seen)
                if slot < self.cap:
                    self._commits[slot] = span
        self.max_retained = max(self.max_retained,
                                len(self._commits) + len(self._aborts))
        self._closed_since_flush += 1
        if self.sink is not None and (
                (self.flush_every
                 and self._closed_since_flush >= self.flush_every)
                or len(self._aborts) >= self.cap):
            self.flush()

    def retained(self) -> List[Span]:
        """Closed spans currently held in memory, in begin (uid) order."""
        closed = [span for span in self.spans if span.outcome != OPEN]
        return sorted(closed + self._commits + self._aborts,
                      key=lambda span: span.uid)

    def flush(self) -> int:
        """Append retained spans to the JSONL sink and release them.

        Returns the number of spans written.  A no-op without a sink.
        """
        if self.sink is None:
            return 0
        rows = self.retained()
        if rows:
            from repro.obs.export import spans_to_jsonl
            with open(self.sink, "a", encoding="utf-8") as handle:
                handle.write(spans_to_jsonl(rows))
        self._commits.clear()
        self._aborts.clear()
        self._commit_seen = 0
        self._closed_since_flush = 0
        self.flushed_spans += len(rows)
        return len(rows)

    # -- aggregation -----------------------------------------------------

    def _aggregate(self, span: Span) -> None:
        from repro.obs.metrics import _Histogram
        stats = self._aggregates.get(span.outcome)
        if stats is None:
            stats = self._aggregates[span.outcome] = {
                "cycles": _Histogram(), "reads": _Histogram(),
                "writes": _Histogram()}
        stats["cycles"].observe(span.duration)
        stats["reads"].observe(span.reads)
        stats["writes"].observe(span.writes)

    def aggregate(self) -> dict:
        """Canonical mergeable summary of *every* span closed under a cap.

        Exact regardless of sampling: aggregation happens before
        retention, so the histograms cover spans the reservoir dropped.
        """
        return {
            "total_spans": self.total_commits + self.total_aborts,
            "outcomes": {
                outcome: {key: hist.to_dict()
                          for key, hist in sorted(stats.items())}
                for outcome, stats in sorted(self._aggregates.items())
            },
        }

    def __len__(self) -> int:
        return len(self.spans) + len(self._commits) + len(self._aborts)


def record_span_metrics(registry, spans: List[Span]) -> None:
    """Fold closed spans into the ``txn_cycles``/``txn_reads``/
    ``txn_writes`` histograms of ``registry``, labeled by outcome.

    A histogram's buckets, count, sum, min and max do not depend on the
    order its values came in, so this end-of-run fold snapshots exactly
    as observing each span as it closed would.
    """
    for outcome in (ABORT, COMMIT):
        closed = [span for span in spans if span.outcome == outcome]
        registry.observe_many(
            "txn_cycles", [s.end_cycle - s.begin_cycle for s in closed],
            outcome=outcome)
        registry.observe_many("txn_reads", [s.reads for s in closed],
                              outcome=outcome)
        registry.observe_many("txn_writes", [s.writes for s in closed],
                              outcome=outcome)


def _merge_histogram_dicts(a: Optional[dict],
                           b: Optional[dict]) -> Optional[dict]:
    """Merge two power-of-two histogram dicts (``_Histogram.to_dict``)."""
    if a is None:
        return None if b is None else dict(b, buckets=dict(b["buckets"]))
    if b is None:
        return dict(a, buckets=dict(a["buckets"]))
    buckets = dict(a["buckets"])
    for bound, count in b["buckets"].items():
        buckets[bound] = buckets.get(bound, 0) + count
    mins = [m for m in (a["min"], b["min"]) if m is not None]
    maxs = [m for m in (a["max"], b["max"]) if m is not None]
    return {"buckets": {k: buckets[k]
                        for k in sorted(buckets, key=int)},
            "count": a["count"] + b["count"],
            "sum": a["sum"] + b["sum"],
            "min": min(mins) if mins else None,
            "max": max(maxs) if maxs else None}


def merge_span_aggregates(*aggregates: dict) -> dict:
    """Merge :meth:`SpanRecorder.aggregate` outputs.

    The aggregates are mergeable by construction (power-of-two bucket
    histograms plus counters), so per-shard streaming runs combine into
    one summary without ever holding the spans themselves.
    """
    merged: dict = {"total_spans": 0, "outcomes": {}}
    for agg in aggregates:
        merged["total_spans"] += agg["total_spans"]
        for outcome, stats in agg["outcomes"].items():
            into = merged["outcomes"].get(outcome)
            if into is None:
                merged["outcomes"][outcome] = {
                    key: _merge_histogram_dicts(value, None)
                    for key, value in stats.items()}
            else:
                for key, value in stats.items():
                    into[key] = _merge_histogram_dicts(into.get(key),
                                                       value)
    merged["outcomes"] = {k: merged["outcomes"][k]
                          for k in sorted(merged["outcomes"])}
    return merged


#: the engine's tracer hooks, as :class:`~repro.sim.engine.Tracer` names them
_HOOKS = ("on_begin", "on_read", "on_write", "on_commit", "on_abort",
          "on_stall")


class MultiTracer(Tracer):
    """Fans the engine's single tracer slot out to several tracers.

    Each hook is forwarded, in construction order, to the children that
    implement it (the engine's own test, ``resolve_hook``), so a
    deterministic engine drives every child identically whether it is
    alone in the slot or composed: the property that lets telemetry ride
    alongside the oracle's history recording.
    """

    def __init__(self, *tracers: Tracer):
        self.tracers = [t for t in tracers if t is not None]
        self._resolve()

    def _resolve(self) -> None:
        """Per hook, the children with an implementation of their own."""
        for hook in _HOOKS:
            setattr(self, "_" + hook, [
                tracer for tracer in self.tracers
                if resolve_hook(tracer, hook) is not None])

    def attach_engine(self, engine) -> None:
        """Forward the engine reference to children that want it.

        Hook targets are resolved again here, so a hook set on a child
        instance between construction and the engine attaching is seen.
        """
        for tracer in self.tracers:
            attach = getattr(tracer, "attach_engine", None)
            if attach is not None:
                attach(engine)
        self._resolve()

    def on_begin(self, txn: Txn) -> None:
        for tracer in self._on_begin:
            tracer.on_begin(txn)

    def on_read(self, txn: Txn, addr: int, site: str,
                value: object = None) -> None:
        for tracer in self._on_read:
            tracer.on_read(txn, addr, site, value)

    def on_write(self, txn: Txn, addr: int, site: str,
                 value: object = None) -> None:
        for tracer in self._on_write:
            tracer.on_write(txn, addr, site, value)

    def on_commit(self, txn: Txn) -> None:
        for tracer in self._on_commit:
            tracer.on_commit(txn)

    def on_abort(self, txn: Txn, cause: AbortCause) -> None:
        for tracer in self._on_abort:
            tracer.on_abort(txn, cause)

    def on_stall(self, thread_id: int, cycles: int) -> None:
        for tracer in self._on_stall:
            tracer.on_stall(thread_id, cycles)

    def __len__(self) -> int:
        return len(self.tracers)
