"""Run statistics.

:class:`RunStats` aggregates everything the evaluation section measures:

* commits and aborts, with aborts split by :class:`AbortCause` — Figure 1
  needs the read-write/write-write split, Figure 7 the totals;
* per-thread cycle clocks — Figure 8's speedup is the ratio of makespans;
* read/write/compute operation counts and retry distributions.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import CAUSE_VALUES, AbortCause


@dataclass
class ThreadStats:
    """Counters for one simulated thread."""

    thread_id: int
    cycles: int = 0
    commits: int = 0
    aborts: int = 0
    reads: int = 0
    writes: int = 0
    backoff_cycles: int = 0
    commit_wait_cycles: int = 0

    def to_dict(self) -> dict:
        """Serialise to plain JSON-safe types."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ThreadStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


class RunStats:
    """Aggregated statistics for one simulation run."""

    def __init__(self, num_threads: int):
        self.threads: List[ThreadStats] = [
            ThreadStats(i) for i in range(num_threads)]
        self.abort_causes: Counter = Counter()
        #: retries needed per committed transaction (0 = first try)
        self.retry_histogram: Counter = Counter()
        self.per_label: Dict[str, Counter] = {}
        #: starving transactions escalated to serial golden-token mode
        #: by the engine's retry policy (:mod:`repro.sim.retry`)
        self.escalations = 0
        #: highest attempt count any single transaction needed (1 = every
        #: transaction committed first try); the starvation watermark
        self.max_attempts_seen = 0

    # ------------------------------------------------------------------
    # recording

    def record_commit(self, thread_id: int, label: str, retries: int) -> None:
        """A transaction committed after ``retries`` aborted attempts."""
        self.threads[thread_id].commits += 1
        self.retry_histogram[retries] += 1
        self.max_attempts_seen = max(self.max_attempts_seen, retries + 1)
        self._label(label)["commits"] += 1

    def record_abort(self, thread_id: int, label: str,
                     cause: AbortCause) -> None:
        """One attempt of a transaction aborted."""
        self.threads[thread_id].aborts += 1
        self.abort_causes[cause] += 1
        self._label(label)["aborts"] += 1

    def _label(self, label: str) -> Counter:
        counter = self.per_label.get(label)
        if counter is None:
            counter = self.per_label[label] = Counter()
        return counter

    # ------------------------------------------------------------------
    # derived metrics

    @property
    def total_commits(self) -> int:
        """Committed transactions across all threads."""
        return sum(t.commits for t in self.threads)

    @property
    def total_aborts(self) -> int:
        """Aborted transaction attempts across all threads."""
        return sum(t.aborts for t in self.threads)

    @property
    def abort_rate(self) -> float:
        """Aborted attempts / all attempts — the Figure 7 metric."""
        attempts = self.total_commits + self.total_aborts
        return self.total_aborts / attempts if attempts else 0.0

    @property
    def makespan_cycles(self) -> int:
        """Cycles until the last thread finished — the Figure 8 metric."""
        return max((t.cycles for t in self.threads), default=0)

    def aborts_by(self, cause: AbortCause) -> int:
        """Aborted attempts with the given cause."""
        return self.abort_causes.get(cause, 0)

    @property
    def read_write_aborts(self) -> int:
        """Aborts Figure 1 classifies as read-write."""
        return sum(n for cause, n in self.abort_causes.items()
                   if cause.is_read_write)

    @property
    def write_write_aborts(self) -> int:
        """Aborts Figure 1 classifies as write-write."""
        return sum(n for cause, n in self.abort_causes.items()
                   if cause.is_write_write)

    def read_write_fraction(self) -> Optional[float]:
        """Fraction of conflict aborts that are read-write (Figure 1)."""
        conflict = self.read_write_aborts + self.write_write_aborts
        return self.read_write_aborts / conflict if conflict else None

    # ------------------------------------------------------------------
    # serialization — RunStats must survive a process boundary (the
    # parallel executor ships results back as JSON, not pickles)

    def to_dict(self) -> dict:
        """Full serialisation: every counter, not just the summary."""
        return {
            "threads": [t.to_dict() for t in self.threads],
            "abort_causes": {CAUSE_VALUES[c]: n
                             for c, n in self.abort_causes.items()},
            "retry_histogram": {str(k): v
                                for k, v in self.retry_histogram.items()},
            "per_label": {label: dict(counter)
                          for label, counter in self.per_label.items()},
            "escalations": self.escalations,
            "max_attempts_seen": self.max_attempts_seen,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunStats":
        """Inverse of :meth:`to_dict` (JSON string keys become typed)."""
        stats = cls(len(data["threads"]))
        stats.threads = [ThreadStats.from_dict(t) for t in data["threads"]]
        stats.abort_causes = Counter(
            {AbortCause(c): n for c, n in data["abort_causes"].items()})
        stats.retry_histogram = Counter(
            {int(k): v for k, v in data["retry_histogram"].items()})
        stats.per_label = {label: Counter(counter)
                           for label, counter in data["per_label"].items()}
        # both absent in dicts serialized before the retry-policy layer
        stats.escalations = data.get("escalations", 0)
        stats.max_attempts_seen = data.get("max_attempts_seen", 0)
        return stats

    def summary(self) -> dict:
        """Flat summary dict for reports and JSON dumps."""
        return {
            "commits": self.total_commits,
            "aborts": self.total_aborts,
            "abort_rate": self.abort_rate,
            "makespan_cycles": self.makespan_cycles,
            "abort_causes": {CAUSE_VALUES[c]: n
                             for c, n in self.abort_causes.items()},
            "reads": sum(t.reads for t in self.threads),
            "writes": sum(t.writes for t in self.threads),
            "backoff_cycles": sum(t.backoff_cycles for t in self.threads),
            "commit_wait_cycles": sum(
                t.commit_wait_cycles for t in self.threads),
        }
