"""Engine-level retry policies: bounded backoff, starvation escalation.

The paper's backends each bring their own contention-management story
(2PL's exponential backoff, LogTM's NACK stalls, SI-TM's
first-committer-wins), but none of them *bounds* how long one doomed
transaction can lose.  Under an adversarial fault plan
(:mod:`repro.faults`) — spurious-abort bursts, begin-stall storms — a
transaction can be starved indefinitely, and the simulation only ends
when the engine exhausts ``max_steps``.  :class:`RetryPolicy` closes
that hole at the engine layer, uniformly across all five backends:

* **capped exponential backoff with jitter** — every abort charges
  ``backoff_base_cycles * 2^min(attempt, backoff_max_exponent)`` plus a
  uniform jitter, on top of whatever the backend already charged;
* **attempt budgets** — a transaction that aborts ``attempt_budget``
  times is declared starving;
* **starvation watermark** — so is one whose first attempt started more
  than ``starvation_age_cycles`` ago (the oldest-loser age check), and
  one whose begin has stalled ``stall_budget`` consecutive times
  (begin-stall storms never abort, so attempt counting alone would
  miss them);
* **escalation** — starving transactions queue for the **golden
  token**: the engine drains all other in-flight transactions, then
  runs the token holder *serially* with the fault injector suppressed.
  A serial fault-free transaction commits in every backend (no
  concurrent conflicts, no injected faults), so each escalation makes
  strict progress and every workload terminates under any fault plan.

The policy is ``None`` by default — the engine's legacy behaviour
(backend backoff only, unbounded retries) is byte-identical when no
policy is configured, which ``engine_golden.json``'s digests pin.

**Time-base-agnostic core.**  Nothing in the policy's arithmetic cares
that the engine's unit is a simulated cycle: the thresholds and delays
are plain ticks.  The live store (:mod:`repro.store`) reuses the same
semantics against wall-clock milliseconds — backoff delays become
``retry_after_ms`` hints, the starvation age is wall time since the
first attempt, and escalation serializes the starving transaction on
its home shard instead of draining the engine.  The shared core is:

* :meth:`RetryPolicy.delay` — the capped exponential backoff;
* :meth:`RetryPolicy.stall_starved` / :meth:`RetryPolicy.abort_starved`
  — the two starvation predicates, exactly as the engine applies them
  (stall budget at the begin site; attempt budget OR age watermark at
  the abort site);
* :class:`RetryState` — a per-transaction tracker that feeds those
  predicates from whatever clock the caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.rng import SplitRandom

__all__ = ["RetryPolicy", "RetryState"]


@dataclass(frozen=True)
class RetryPolicy:
    """Engine-level retry/escalation policy (all backends uniformly)."""

    #: base of the capped exponential backoff charged per abort
    backoff_base_cycles: int = 32
    #: exponent cap: delay never exceeds ``base * 2^max_exponent``
    backoff_max_exponent: int = 8
    #: uniform jitter in ``[0, jitter_cycles)`` added to each delay
    jitter_cycles: int = 16
    #: aborts before a transaction is declared starving
    attempt_budget: int = 8
    #: age (cycles since first attempt began) before a transaction is
    #: declared starving regardless of its attempt count
    starvation_age_cycles: int = 200_000
    #: consecutive engine-level begin stalls before a thread is
    #: declared starving (stalls never abort, so the attempt budget
    #: alone cannot catch a permanent begin-stall storm)
    stall_budget: int = 64
    #: escalate starving transactions to serial golden-token mode;
    #: False keeps the backoff/budget accounting but never escalates
    #: (used to demonstrate that escalation is load-bearing)
    escalation: bool = True

    def __post_init__(self) -> None:
        if self.backoff_base_cycles < 0 or self.jitter_cycles < 0:
            raise ConfigError("backoff cycles must be non-negative")
        if self.backoff_max_exponent < 0:
            raise ConfigError("backoff_max_exponent must be >= 0")
        if self.attempt_budget < 1:
            raise ConfigError("attempt_budget must be >= 1")
        if self.starvation_age_cycles < 1:
            raise ConfigError("starvation_age_cycles must be >= 1")
        if self.stall_budget < 1:
            raise ConfigError("stall_budget must be >= 1")

    def delay(self, attempt: int, rng: SplitRandom) -> int:
        """Backoff ticks to charge for a transaction's Nth abort."""
        exponent = min(attempt, self.backoff_max_exponent)
        delay = self.backoff_base_cycles * (1 << exponent)
        if self.jitter_cycles:
            delay += rng.randrange(self.jitter_cycles)
        return delay

    def stall_starved(self, consecutive_stalls: int) -> bool:
        """Begin-site starvation: the stall budget is exhausted.

        Stalls never abort, so the attempt budget alone cannot catch a
        permanent begin-stall storm — this predicate runs on every
        engine begin stall (and on every shed/parked begin in the live
        store).
        """
        return consecutive_stalls >= self.stall_budget

    def abort_starved(self, attempts: int, age: int) -> bool:
        """Abort-site starvation: attempt budget or age watermark hit.

        ``age`` is ticks since the transaction's first attempt began,
        in whatever time base the caller uses (engine: cycles; store:
        milliseconds).
        """
        return (attempts >= self.attempt_budget
                or age >= self.starvation_age_cycles)

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (stable key set)."""
        return {
            "backoff_base_cycles": self.backoff_base_cycles,
            "backoff_max_exponent": self.backoff_max_exponent,
            "jitter_cycles": self.jitter_cycles,
            "attempt_budget": self.attempt_budget,
            "starvation_age_cycles": self.starvation_age_cycles,
            "stall_budget": self.stall_budget,
            "escalation": self.escalation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        """Inverse of :meth:`to_dict` (tolerates missing keys)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class RetryState:
    """Per-transaction retry tracker over an arbitrary time base.

    The engine keeps the equivalent state inline on its thread records
    (``retries``/``first_attempt_clock``/``consecutive_stalls``); this
    class packages the same bookkeeping for callers that live outside
    the simulator — the store's sessions track one ``RetryState`` per
    logical transaction with ``now`` in wall-clock milliseconds.  All
    decisions delegate to the policy's shared predicates, so sim and
    service starvation behaviour can only drift together.
    """

    __slots__ = ("policy", "attempts", "first_attempt_at",
                 "consecutive_stalls", "_rng")

    def __init__(self, policy: RetryPolicy, rng: SplitRandom,
                 now: int = 0):
        self.policy = policy
        self._rng = rng
        self.attempts = 0
        self.first_attempt_at = now
        self.consecutive_stalls = 0

    def note_first_attempt(self, now: int) -> None:
        """Record when the first attempt began (starvation age base)."""
        if self.attempts == 0:
            self.first_attempt_at = now

    def note_stall(self) -> None:
        """One begin-site stall (shed, parked, or Δ-protocol stall)."""
        self.consecutive_stalls += 1

    def note_progress(self) -> None:
        """A begin succeeded: the stall streak resets."""
        self.consecutive_stalls = 0

    def note_abort(self) -> int:
        """Record an abort; returns the backoff delay for this attempt."""
        delay = self.policy.delay(self.attempts, self._rng)
        self.attempts += 1
        return delay

    def starving(self, now: int) -> bool:
        """Is this transaction starving (either predicate)?"""
        return (self.policy.stall_starved(self.consecutive_stalls)
                or self.policy.abort_starved(
                    self.attempts, now - self.first_attempt_at))

    def reset(self, now: int) -> None:
        """The transaction committed: forget its retry history."""
        self.attempts = 0
        self.first_attempt_at = now
        self.consecutive_stalls = 0
