"""Exception hierarchy for the SI-TM reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching programming errors.  Transaction
aborts are *control flow*, not errors, and are modelled by
:class:`TransactionAborted`, which carries a machine-readable
:class:`AbortCause` taxonomy used by the Figure 1 / Figure 7 experiments.
"""

from __future__ import annotations

import enum
import sys
from typing import Callable


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """An invalid machine or workload configuration was supplied."""


def cli_exit_code(prog: str, command: Callable[[], int]) -> int:
    """Run a console script's ``command`` under the shared exit-code
    contract: its own code (1 for a detected violation or a failed
    campaign, 0 for success), 2 for a :class:`ConfigError` and 1 for any
    other :class:`ReproError`, each error one line on stderr and no
    traceback."""
    try:
        return command()
    except ReproError as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


class MemoryError_(ReproError):
    """An invalid memory operation (bad address, double free, ...)."""


class AllocationError(MemoryError_):
    """The heap allocator ran out of space or was misused."""


class MVMError(ReproError):
    """An invalid multiversioned-memory operation."""


class TimestampOverflowError(MVMError):
    """The global timestamp counter overflowed (section 4.1).

    The paper handles this by aborting all active transactions and raising an
    interrupt; the simulator surfaces it as this exception so the runtime can
    implement that policy.
    """


class CheckpointRollbackError(MVMError):
    """Checkpoint rollback was attempted with transactions in flight.

    Rolling back truncates version history; an active transaction's
    snapshot (or a commit's reserved end timestamp) would dangle.  The
    caller must drain or abort every active transaction first — the
    store's shard-crash recovery does exactly that before restoring.
    """


class TMError(ReproError):
    """Misuse of the transactional-memory API (e.g. read outside a txn)."""


class StoreError(ReproError):
    """A live-store (``repro.store``) server- or client-side failure."""


class ProtocolError(StoreError):
    """A malformed frame or request on the store's wire protocol.

    Servers answer these with a structured ``BAD_REQUEST`` error (and
    drop the connection when the framing itself is unparseable); clients
    raise them when a peer violates the framing contract.
    """


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency."""


class SkewToolError(ReproError):
    """The write-skew analysis tool was driven incorrectly."""


class StructureCorrupted(ReproError):
    """A transactional data structure reached an impossible shape.

    Raised by traversal guards when a pointer cycle (the observable result
    of an un-fixed write-skew anomaly, section 5) would otherwise loop a
    transaction forever.
    """


class AbortCause(enum.Enum):
    """Why a transaction aborted.

    The taxonomy follows the paper: 2PL aborts on read-write and write-write
    conflicts (Figure 1 splits these), SI-TM aborts only on write-write
    conflicts plus the MVM resource causes of section 3.1, and SSI-TM adds
    dangerous-structure aborts (section 5.2).
    """

    #: Eager read-write conflict (2PL: a reader hit a concurrent writer's
    #: write set, or a writer hit a concurrent reader's read set).
    READ_WRITE = "read-write"
    #: Write-write conflict (all systems).
    WRITE_WRITE = "write-write"
    #: SONTM: the serializability-order-number range became empty.
    SON_RANGE_EMPTY = "son-range-empty"
    #: SI-TM: creating this version would exceed the version cap (section 3.1).
    VERSION_OVERFLOW = "version-overflow"
    #: SI-TM drop-oldest policy: a read could not find a version old enough.
    SNAPSHOT_TOO_OLD = "snapshot-too-old"
    #: Conventional HTM: the L1 version buffer overflowed (section 4.3).
    VERSION_BUFFER_OVERFLOW = "version-buffer-overflow"
    #: Capacity-bounded HTM: the tracked read set outgrew the backend's
    #: declared ``read_set_limit`` (POWER-style limited-capacity HTM).
    READ_CAPACITY = "read-capacity"
    #: Capacity-bounded HTM: the tracked write set outgrew the backend's
    #: declared ``write_set_limit``.
    WRITE_CAPACITY = "write-capacity"
    #: Capacity-bounded HTM: the speculative version buffer (write buffer
    #: or undo log) outgrew the backend's declared ``version_buffer_limit``.
    VERSION_CAPACITY = "version-capacity"
    #: SSI-TM: incoming and outgoing rw-antidependency observed (section 5.2).
    DANGEROUS_STRUCTURE = "dangerous-structure"
    #: Global timestamp counter overflow (section 4.1).
    TIMESTAMP_OVERFLOW = "timestamp-overflow"
    #: The user's transaction body requested an explicit abort/retry.
    EXPLICIT = "explicit"

    # members are singletons: identity hashing agrees with equality and,
    # unlike Enum.__hash__, runs no Python frame
    __hash__ = object.__hash__

    @property
    def is_read_write(self) -> bool:
        """True when the cause counts as a read-write abort in Figure 1."""
        return self in (AbortCause.READ_WRITE, AbortCause.DANGEROUS_STRUCTURE)

    @property
    def is_write_write(self) -> bool:
        """True when the cause counts as a write-write abort in Figure 1."""
        return self is AbortCause.WRITE_WRITE


#: each cause's ``value``: reading ``cause.value`` runs the enum
#: descriptor's frames, a lookup here runs none
CAUSE_VALUES = {cause: cause.value for cause in AbortCause}


class TransactionAborted(Exception):
    """Raised inside a transaction body when the transaction must abort.

    This intentionally derives from :class:`Exception`, not
    :class:`ReproError`: it is control flow used by the retry loop in
    :mod:`repro.tm.api`, and user code should never swallow it.
    """

    def __init__(self, cause: AbortCause, detail: str = ""):
        self.cause = cause
        self.detail = detail
        super().__init__(f"transaction aborted ({CAUSE_VALUES[cause]})"
                         + (f": {detail}" if detail else ""))
