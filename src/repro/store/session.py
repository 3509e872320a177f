"""Store configuration and per-connection session/transaction state.

A **session** is one client connection: it owns at most one open
transaction at a time and a :class:`~repro.sim.retry.RetryState`
(milliseconds time base) that survives across that client's transaction
attempts — the server's backoff hints, starvation age, and golden-token
escalation all key off it, reusing the simulator's retry semantics
verbatim (:mod:`repro.sim.retry`).

A **transaction** (:class:`Txn`) is one store-wide snapshot: a single
``start_ts`` drawn from the store clock at the frame that carries the
begin and registered on every shard, the keys it read from each shard,
the buffered write set, and the ordered operation log the live oracle
monitor replays.  Its commit chooses the latest snapshot at which every
read still holds and installs the write set at one commit timestamp on
every shard it writes — snapshot isolation across shards, see
``docs/store.md``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigError
from repro.sim.retry import RetryPolicy, RetryState

__all__ = ["StoreConfig", "Session", "Txn", "shard_of"]


def shard_of(key: str, shards: int) -> int:
    """Stable key→shard placement (CRC32 of the UTF-8 key)."""
    return zlib.crc32(key.encode("utf-8")) % shards


#: retry policy tuned for a millisecond time base: ~2ms base backoff
#: doubling to ~128ms, starving after 6 aborts or 2s of age
DEFAULT_RETRY_MS = RetryPolicy(
    backoff_base_cycles=2, backoff_max_exponent=6, jitter_cycles=3,
    attempt_budget=6, starvation_age_cycles=2_000, stall_budget=16)


@dataclass(frozen=True)
class StoreConfig:
    """Service-level configuration (validated, JSON round-trippable)."""

    #: number of shards the keys hash onto
    shards: int = 4
    #: admission control: maximum concurrently open transactions; a
    #: further begin sheds the frame that carries it with ``OVERLOADED``
    max_inflight: int = 64
    #: default deadline, counted from the frame carrying the begin (its
    #: ``deadline_ms`` may lower/raise it up to ``max_deadline_ms``)
    deadline_ms: int = 2_000
    #: ceiling a client may request via a begin's ``deadline_ms``
    max_deadline_ms: int = 30_000
    #: whole-frame read timeout: a peer that cannot deliver one frame
    #: within this budget (slow-loris) is disconnected
    idle_timeout_ms: int = 10_000
    #: first-committer-wins validation inside the atomic apply; disabled
    #: only by the ``--broken no-fcw`` self-test proving the live
    #: monitor catches real violations
    validate_fcw: bool = True
    #: retry/backoff/escalation policy over milliseconds
    retry: RetryPolicy = DEFAULT_RETRY_MS
    #: seed for backoff jitter streams
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        for name in ("deadline_ms", "max_deadline_ms", "idle_timeout_ms"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.deadline_ms > self.max_deadline_ms:
            raise ConfigError("deadline_ms must not exceed max_deadline_ms")

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (stable key set)."""
        return {
            "shards": self.shards,
            "max_inflight": self.max_inflight,
            "deadline_ms": self.deadline_ms,
            "max_deadline_ms": self.max_deadline_ms,
            "idle_timeout_ms": self.idle_timeout_ms,
            "validate_fcw": self.validate_fcw,
            "retry": self.retry.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StoreConfig":
        """Inverse of :meth:`to_dict` (tolerates missing keys, and
        ignores retired ones such as ``commit_delta``)."""
        kwargs = {k: v for k, v in data.items()
                  if k in cls.__dataclass_fields__}
        if "retry" in kwargs and isinstance(kwargs["retry"], dict):
            kwargs["retry"] = RetryPolicy.from_dict(kwargs["retry"])
        return cls(**kwargs)


@dataclass
class Txn:
    """One open transaction: one snapshot plus buffered writes."""

    uid: int
    session_id: int
    label: str
    #: absolute event-loop deadline (seconds, ``loop.time()`` base)
    deadline: float
    #: monitor sequence number stamped at the frame carrying the begin
    begin_seq: int
    #: the store-wide snapshot every shard reads at (pinned on each)
    start_ts: int
    #: shard -> keys read from that shard (not from the write set)
    read_keys: Dict[int, Set[str]] = field(default_factory=dict)
    #: buffered write set: (shard, key) -> value (last write wins)
    writes: Dict[Tuple[int, str], object] = field(default_factory=dict)
    #: ordered operation log for the oracle: (kind, shard, key, value)
    ops: List[Tuple[str, int, str, object]] = field(default_factory=list)
    #: the one commit timestamp, drawn in the atomic apply step
    commit_ts: Optional[int] = None
    #: set when the transaction can no longer commit (abort cause)
    doomed: Optional[str] = None
    reads: int = 0

    def doom(self, cause: str) -> None:
        """Mark the transaction unable to commit (first cause sticks)."""
        if self.doomed is None:
            self.doomed = cause

    @property
    def touched_shards(self) -> set:
        """Shards this transaction has read from or buffered writes on."""
        return set(self.read_keys) | {s for s, _ in self.writes}


@dataclass
class Session:
    """One client connection's server-side state."""

    session_id: int
    retry: RetryState
    txn: Optional[Txn] = None
    #: transactions this session completed (monitor bookkeeping)
    committed: int = 0
    aborted: int = 0
