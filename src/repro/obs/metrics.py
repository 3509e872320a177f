"""Labeled counter/gauge/histogram registry for run telemetry.

The paper's evaluation is an observability exercise — abort breakdowns
by cause (Figures 1/6/7), version-list occupancy under coalescing
(section 4.4), commit-timestamp behaviour — and :class:`MetricsRegistry`
is where every layer reports those quantities for one run:

* the **MVM controller** observes the version-list length distribution
  at every install and its coalescing/GC reclaim counters;
* the **TM systems** observe backoff delays, commit-token waits and
  LogTM NACK stalls as they are charged;
* the **engine** counts begin stalls (Δ-protocol, overflow drains);
* the runner folds the span recorder's closed spans
  (:func:`repro.obs.spans.record_span_metrics`) into per-transaction
  duration/footprint histograms at the end of the run;
* :func:`collect_run_metrics` harvests the end-of-run aggregates that
  already exist as plain attributes (``RunStats`` counters, MVM
  counters, the global clock) so scalar totals cost *nothing* during
  the run.

Overhead contract: telemetry is **disabled by default**.  A disabled
run carries ``metrics = None`` everywhere, so the only cost on hot
paths is one ``is not None`` test (benchmarked ≤5% in
``benchmarks/test_telemetry_overhead.py``).  When enabled, instruments
live in plain dicts keyed by ``name{label=value,...}`` strings, and
:meth:`MetricsRegistry.snapshot` emits a canonical, JSON-safe, sorted
dict — byte-identical across processes and cache round-trips, which the
executor contract (:mod:`repro.harness.executor`) relies on.

Histograms use power-of-two buckets (upper bounds 1, 2, 4, ...), the
right shape for cycle counts and version depths: exact enough to read,
small enough to serialise per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import CAUSE_VALUES

__all__ = ["MetricsRegistry", "collect_run_metrics", "metric_key"]


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _bucket_bound(value: int) -> int:
    """Upper bound of the power-of-two bucket containing ``value``."""
    if value <= 1:
        return 1
    return 1 << (int(value) - 1).bit_length()


class _Histogram:
    """Power-of-two-bucketed distribution with count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        bound = _bucket_bound(value)
        self.buckets[bound] = self.buckets.get(bound, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values: List[int]) -> None:
        """:meth:`observe` every value, in one call (order is immaterial)."""
        if not values:
            return
        buckets = self.buckets
        for value in values:
            # _bucket_bound, inlined: this loop buckets every observation
            bound = 1 if value <= 1 else 1 << (int(value) - 1).bit_length()
            buckets[bound] = buckets.get(bound, 0) + 1
        self.count += len(values)
        self.total += sum(values)
        low, high = min(values), max(values)
        self.min = low if self.min is None else min(self.min, low)
        self.max = high if self.max is None else max(self.max, high)

    def to_dict(self) -> dict:
        return {
            "buckets": {str(b): self.buckets[b]
                        for b in sorted(self.buckets)},
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


def histogram_dict(values: Optional[List[int]]) -> Optional[dict]:
    """The :meth:`_Histogram.to_dict` form of ``values`` (None when
    there are none)."""
    if not values:
        return None
    hist = _Histogram()
    hist.observe_many(values)
    return hist.to_dict()


class MetricsRegistry:
    """One run's labeled counters, gauges and histograms.

    All mutators take the metric name plus keyword labels; instruments
    are created on first touch.  The registry is deliberately dumb —
    no types to declare up front, no background threads — because one
    registry lives exactly as long as one simulation run.  So a
    histogram keeps its observations and buckets them when it is read
    (its buckets do not depend on the order of its values), and the
    canonical key of each label shape a call site uses is built once.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        #: histogram key -> its observations, in arrival order
        self._histograms: Dict[str, List[int]] = {}
        #: (name, *label items) as a call passed them -> metric_key
        self._keys: Dict[tuple, str] = {}

    def _new_key(self, name: str, labels: Dict[str, object]) -> str:
        """:func:`metric_key`, remembered for this call's label shape."""
        key = self._keys[(name, *labels.items())] = metric_key(name, labels)
        return key

    # -- mutators --------------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        """Add ``amount`` to the counter ``name{labels}``."""
        key = name if not labels else (
            self._keys.get((name, *labels.items()))
            or self._new_key(name, labels))
        self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name{labels}`` to ``value``."""
        key = name if not labels else (
            self._keys.get((name, *labels.items()))
            or self._new_key(name, labels))
        self._gauges[key] = value

    def observe(self, name: str, value: int, **labels: object) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        key = name if not labels else (
            self._keys.get((name, *labels.items()))
            or self._new_key(name, labels))
        values = self._histograms.get(key)
        if values is None:
            values = self._histograms[key] = []
        values.append(value)

    def observe_many(self, name: str, values: List[int],
                     **labels: object) -> None:
        """:meth:`observe` every one of ``values``, in one call (nothing
        is created when there are none)."""
        if not values:
            return
        self._histograms.setdefault(metric_key(name, labels),
                                    []).extend(values)

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str, **labels: object) -> int:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        """Current value of a gauge (None when never set)."""
        return self._gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Optional[dict]:
        """Snapshot of one histogram (None when never observed)."""
        return histogram_dict(
            self._histograms.get(metric_key(name, labels)))

    # -- serialization -----------------------------------------------------

    def snapshot(self) -> dict:
        """Canonical JSON-safe snapshot: sorted keys at every level.

        This is what :class:`~repro.harness.runner.RunResult` carries
        across the executor's process/cache boundary; two identical
        runs must produce byte-identical snapshots.
        """
        return {
            "counters": {k: self._counters[k]
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {k: histogram_dict(self._histograms[k])
                           for k in sorted(self._histograms)},
        }

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))


def collect_run_metrics(registry: MetricsRegistry, machine, tm,
                        stats) -> None:
    """Harvest end-of-run aggregates into ``registry``.

    Scalar totals (commit/abort counts, backoff and commit-wait cycles,
    MVM reclaim counters, global-clock position) already exist as plain
    attributes maintained on the hot path for free; harvesting them
    once at run end keeps the telemetry-off overhead at zero for these
    quantities.  Live histograms (version-list occupancy, backoff
    delays) are emitted at their sources instead, because a
    distribution cannot be reconstructed afterwards; span histograms
    are folded from the kept spans (:func:`repro.obs.spans.
    record_span_metrics`).
    """
    system = tm.name
    for thread in stats.threads:
        registry.inc("tm_backoff_cycles_total", thread.backoff_cycles,
                     system=system)
        registry.inc("tm_commit_wait_cycles_total",
                     thread.commit_wait_cycles, system=system)
    registry.inc("txn_commits_total", stats.total_commits, system=system)
    for cause, count in sorted((CAUSE_VALUES[cause], count) for cause, count
                               in stats.abort_causes.items()):
        registry.inc("txn_aborts_total", count, system=system, cause=cause)
    for retries, count in sorted(stats.retry_histogram.items()):
        registry.inc("txn_retries_to_commit", count, retries=retries)
    # MVM controller counters (coalescing/GC reclaim, conflict filter)
    for key, value in machine.mvm.stats().items():
        registry.inc(f"mvm_{key}", value)
    # global-clock behaviour: final position and advance rate, i.e. how
    # fast commit timestamps burn through the counter's range
    # (section 4.1 sizes the counter against exactly this rate)
    makespan = stats.makespan_cycles
    registry.set_gauge("clock_now", machine.clock.now)
    registry.set_gauge("clock_advance_per_kilocycle",
                       1000.0 * machine.clock.now / makespan
                       if makespan else 0.0)
    overflows = getattr(tm, "timestamp_overflows", 0)
    if overflows:
        registry.inc("clock_timestamp_overflows", overflows)
    # retry-policy and fault-injection outcomes (zero-cost when neither
    # a policy nor a fault plan was configured)
    if stats.escalations:
        registry.inc("txn_escalations_total", stats.escalations,
                     system=system)
    if stats.max_attempts_seen:
        registry.set_gauge("txn_max_attempts_seen",
                           stats.max_attempts_seen)
    faults = getattr(machine, "faults", None)
    if faults is not None:
        for site, count in faults.stats()["injected"].items():
            registry.inc("fault_injections_total", count, site=site)
