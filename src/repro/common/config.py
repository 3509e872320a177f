"""Machine and runtime configuration.

:class:`MachineConfig` defaults reproduce Table 1 of the paper (the simulated
Nehalem-class 32-core machine).  :class:`MVMConfig` captures the
multiversioned-memory parameters of section 3 (version cap of four, 32-bit
indirection pointers, coalescing) and :class:`TMConfig` the runtime policies
of sections 4 and 6 (lazy vs eager detection, backoff tuning, conflict
granularity).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.faults import FaultPlan
    from repro.sim.retry import RetryPolicy


class VersionCapPolicy(enum.Enum):
    """What the MVM does when a write would create one version too many.

    Section 3.1 describes three options and reports that the first two differ
    by less than 1% in abort rate and performance (our ablation bench checks
    this claim):

    * ``ABORT_WRITER`` — the paper's default: abort the transaction trying to
      create a fifth version.
    * ``DROP_OLDEST`` — discard the oldest version; readers abort with
      ``SNAPSHOT_TOO_OLD`` if no version old enough survives.
    * ``UNBOUNDED`` — keep every version (used for the Table 2 census).
    """

    ABORT_WRITER = "abort-writer"
    DROP_OLDEST = "drop-oldest"
    UNBOUNDED = "unbounded"


class ConflictGranularity(enum.Enum):
    """Granularity at which write-write conflicts are validated.

    The evaluation (section 6.1) uses cache-line granularity for every system
    so that false sharing affects them all equally; SI-TM additionally
    supports word granularity (section 4.2), which filters false sharing and
    silent stores — our ablation bench measures that headroom.
    """

    LINE = "line"
    WORD = "word"


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: geometry and access latency."""

    size_bytes: int
    associativity: int
    latency_cycles: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.associativity} ways x {self.line_bytes}B lines")

    @property
    def num_lines(self) -> int:
        """Total number of line frames in the cache."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of associative sets."""
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine; defaults are the paper's Table 1."""

    cores: int = 32
    clock_ghz: float = 3.0
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, associativity=4, latency_cycles=4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=256 * 1024, associativity=8, latency_cycles=8))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024 * 1024, associativity=16, latency_cycles=30))
    #: Portion of the L3 reserved for MVM version-list entries (Table 1).
    l3_mvm_partition_bytes: int = 8 * 1024 * 1024
    memory_controllers: int = 4
    memory_bandwidth_gbps: float = 10.0
    memory_latency_cycles: int = 100
    line_bytes: int = 64
    word_bytes: int = 8
    #: coherence-fabric topology: "mesh" (default), "bus", or "ideal"
    #: (constant-cost).  Eager TMs pay it on every conflict-detection
    #: broadcast; SI-TM's lazy design emits none (section 4.4).
    interconnect: str = "mesh"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("need at least one core")
        if self.interconnect not in ("bus", "mesh", "ideal"):
            raise ConfigError(
                f"unknown interconnect {self.interconnect!r}")
        if self.line_bytes % self.word_bytes:
            raise ConfigError("line size must be a multiple of the word size")
        for level in (self.l1d, self.l2, self.l3):
            if level.line_bytes != self.line_bytes:
                raise ConfigError("all cache levels must share one line size")

    @property
    def words_per_line(self) -> int:
        """Number of machine words per cache line."""
        return self.line_bytes // self.word_bytes

    def scaled(self, factor: float) -> "MachineConfig":
        """Return a copy with cache capacities scaled by ``factor``.

        Used to model contention on scaled-down workloads: shrinking the
        working set without shrinking caches would remove all capacity
        misses that the paper's full-size runs experience.
        """
        def scale(c: CacheConfig) -> CacheConfig:
            lines = max(c.associativity, int(c.num_lines * factor))
            lines -= lines % c.associativity
            return dataclasses.replace(
                c, size_bytes=lines * c.line_bytes)
        return dataclasses.replace(
            self, l1d=scale(self.l1d), l2=scale(self.l2), l3=scale(self.l3),
            l3_mvm_partition_bytes=max(
                self.line_bytes,
                int(self.l3_mvm_partition_bytes * factor)))


@dataclass(frozen=True)
class MVMConfig:
    """Multiversioned-memory parameters (section 3)."""

    #: Maximum retained versions per line; the paper settles on 4 (section 3.1).
    max_versions: int = 4
    cap_policy: VersionCapPolicy = VersionCapPolicy.ABORT_WRITER
    #: Enable version coalescing (Figure 4).
    coalescing: bool = True
    #: Indirection pointer width in bits (section 3.2, 32-bit -> 256 GB).
    pointer_bits: int = 32
    #: Timestamp width in bits per version-list entry.
    timestamp_bits: int = 32
    #: Lines per allocation bundle (section 3.2: 8 lines -> 6% worst case).
    bundle_lines: int = 1
    #: Delta for the commit-race timestamp protocol (section 4.2).
    commit_delta: int = 64
    #: Timestamp-counter ceiling; ``None`` = practically unbounded.  A
    #: real 32-bit counter overflows; section 4.1 aborts all active
    #: transactions and traps to software when it does.
    max_timestamp: "int | None" = None
    #: Collect the per-version access census used by Table 2.
    census: bool = False
    #: Account HICAMP-style line-deduplication opportunity (section 3.3).
    dedup: bool = False

    def __post_init__(self) -> None:
        if self.max_versions < 1:
            raise ConfigError("max_versions must be >= 1")
        if self.bundle_lines < 1:
            raise ConfigError("bundle_lines must be >= 1")
        if self.commit_delta < 1:
            raise ConfigError("commit_delta must be >= 1")
        if self.max_timestamp is not None \
                and self.max_timestamp <= self.commit_delta:
            raise ConfigError(
                "max_timestamp must exceed commit_delta, or no commit can "
                "ever reserve an end timestamp")


@dataclass(frozen=True)
class TMConfig:
    """Transactional-memory runtime policies (sections 4 and 6.1)."""

    granularity: ConflictGranularity = ConflictGranularity.LINE
    #: Exponential backoff for the eager baselines (section 6.4): the paper
    #: tunes it for performance, not abort rate.
    backoff_enabled: bool = True
    backoff_base_cycles: int = 64
    backoff_max_exponent: int = 12
    #: Maximum automatic retries before the runtime raises (0 = unlimited).
    max_retries: int = 0
    #: L1-as-version-buffer capacity in lines for bounded baselines; 2PL with
    #: lazy versioning aborts when a transaction's write set exceeds this
    #: (section 4.3).  ``0`` disables the bound.
    version_buffer_lines: int = 0
    #: SI-TM word-granularity commit filtering of false sharing/silent stores.
    word_grain_commit_filter: bool = False
    #: Capacity bound on the tracked read set, in lines (POWER-style
    #: limited-capacity HTM).  Exceeding it aborts with ``read-capacity``.
    #: ``0`` (the default) disables the bound and is omitted from the
    #: canonical dict so pre-capacity fingerprints survive.
    read_set_limit: int = 0
    #: Capacity bound on the tracked write set, in lines.  Exceeding it
    #: aborts with ``write-capacity``.  ``0`` disables; omitted when unset.
    write_set_limit: int = 0
    #: Capacity bound on the speculative version buffer — buffered store
    #: words for lazy-versioning backends, undo-log entries for eager
    #: ones.  Exceeding it aborts with ``version-capacity``.  ``0``
    #: disables; omitted when unset.
    version_buffer_limit: int = 0
    #: HybridHTM only: hardware attempts before a transaction falls back
    #: to the serialized global-lock path.  ``0`` (the default) uses the
    #: backend's built-in budget; omitted when unset.
    hybrid_hw_attempts: int = 0

    def __post_init__(self) -> None:
        if self.backoff_base_cycles < 1:
            raise ConfigError("backoff_base_cycles must be >= 1")
        if self.backoff_max_exponent < 0:
            raise ConfigError("backoff_max_exponent must be >= 0")
        for name in ("read_set_limit", "write_set_limit",
                     "version_buffer_limit", "hybrid_hw_attempts"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Bundle of all configuration consumed by a simulation run."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    mvm: MVMConfig = field(default_factory=MVMConfig)
    tm: TMConfig = field(default_factory=TMConfig)
    #: Cycles charged for one non-memory "compute" step inside a transaction.
    compute_cycles: int = 1
    #: Cycles charged for begin/commit bookkeeping (timestamp fetch etc.).
    txn_overhead_cycles: int = 20
    #: Fault-injection plan (:class:`repro.faults.FaultPlan`); ``None``
    #: (the default) injects nothing and is omitted from the canonical
    #: dict so every pre-existing config fingerprint is unchanged.
    faults: "Optional[FaultPlan]" = None
    #: Engine retry/escalation policy
    #: (:class:`repro.sim.retry.RetryPolicy`); ``None`` (the default)
    #: keeps the legacy behaviour — backend backoff only, unbounded
    #: retries — and is omitted from the canonical dict.
    retry: "Optional[RetryPolicy]" = None

    def replace(self, **kwargs) -> "SimConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Serialise to plain JSON-safe types (enums become their values)."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Inverse of :meth:`to_dict`; validates via each ``__post_init__``."""
        faults = data.get("faults")
        retry = data.get("retry")
        if faults is not None:
            # imported lazily: repro.faults itself imports this module
            from repro.faults import FaultPlan
            faults = FaultPlan.from_dict(faults)
        if retry is not None:
            from repro.sim.retry import RetryPolicy
            retry = RetryPolicy.from_dict(retry)
        return cls(
            machine=_machine_from_dict(data["machine"]),
            mvm=_mvm_from_dict(data["mvm"]),
            tm=_tm_from_dict(data["tm"]),
            compute_cycles=data["compute_cycles"],
            txn_overhead_cycles=data["txn_overhead_cycles"],
            faults=faults,
            retry=retry)

    def canonical_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace) for hashing."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """Stable hex digest of the full configuration.

        Two :class:`SimConfig` instances share a fingerprint iff every
        field (machine geometry, MVM, TM policies, cost model) is equal —
        the experiment cache keys results on it so a config change can
        never serve stale numbers.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]


#: Config fields serialized omitted-when-unset (0/None/False): their
#: defaults predate nothing — they were added after fingerprints, cache
#: keys and golden digests already existed, so a default value must
#: leave the canonical dict byte-identical to the pre-feature form.
OMITTED_WHEN_UNSET = frozenset({
    "read_set_limit", "write_set_limit", "version_buffer_limit",
    "hybrid_hw_attempts",
})


def _config_to_dict(config) -> dict:
    """Recursively convert a config dataclass tree to JSON-safe types."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name in ("faults", "retry"):
            # omitted-when-None so pre-existing fingerprints survive;
            # these carry their own canonical to_dict (tuple -> list)
            if value is not None:
                out[f.name] = value.to_dict()
        elif f.name in OMITTED_WHEN_UNSET:
            if value:
                out[f.name] = value
        elif dataclasses.is_dataclass(value):
            out[f.name] = _config_to_dict(value)
        elif isinstance(value, enum.Enum):
            out[f.name] = value.value
        else:
            out[f.name] = value
    return out


def _cache_from_dict(data: dict) -> CacheConfig:
    return CacheConfig(**data)


def _machine_from_dict(data: dict) -> MachineConfig:
    kwargs = dict(data)
    for level in ("l1d", "l2", "l3"):
        kwargs[level] = _cache_from_dict(kwargs[level])
    return MachineConfig(**kwargs)


def _mvm_from_dict(data: dict) -> MVMConfig:
    kwargs = dict(data)
    kwargs["cap_policy"] = VersionCapPolicy(kwargs["cap_policy"])
    return MVMConfig(**kwargs)


def _tm_from_dict(data: dict) -> TMConfig:
    kwargs = dict(data)
    kwargs["granularity"] = ConflictGranularity(kwargs["granularity"])
    return TMConfig(**kwargs)


def table1_dict() -> dict:
    """Table 1 of the paper as an ordered mapping, for reports and tests."""
    m = MachineConfig()
    return {
        "CPU Cores": m.cores,
        "CPU Clock (GHz)": m.clock_ghz,
        "L1D cache size (KB)": m.l1d.size_bytes // 1024,
        "L1 associativity": m.l1d.associativity,
        "L1 latency (cycles)": m.l1d.latency_cycles,
        "L2 cache size (KB)": m.l2.size_bytes // 1024,
        "L2 associativity": m.l2.associativity,
        "L2 latency (cycles)": m.l2.latency_cycles,
        "L3 cache size (MB)": m.l3.size_bytes // (1024 * 1024),
        "L3 MVM partition (MB)": m.l3_mvm_partition_bytes // (1024 * 1024),
        "L3 associativity": m.l3.associativity,
        "L3 latency (cycles)": m.l3.latency_cycles,
        "Memory controllers": m.memory_controllers,
        "Memory bandwidth (GB/s)": m.memory_bandwidth_gbps,
        "Memory latency (cycles)": m.memory_latency_cycles,
    }
