"""Checkpointing on the MVM indirection layer (section 3.3).

The paper lists checkpointing as a further use of the multiversioned
memory: "snapshots can be applied not only to multiversion concurrency
control but also to provide an efficient checkpointing mechanism that can
be utilized by speculation techniques or for resiliency by allowing
rollback to a consistent state in response to an error."

A checkpoint here is exactly a pinned snapshot: creating one registers a
start timestamp in the active-transaction table (so garbage collection
and coalescing preserve every version the checkpoint can see — zero data
is copied), reading through it uses ordinary snapshot reads, and rollback
truncates every line's version history back to the checkpoint's
timestamp.  Release simply unpins.

Limitations follow from the mechanism, as in the paper: only
*multiversioned* memory is checkpointed (conventional-region data is
updated in place), and rollback requires that no transactions are active
(attempting it raises the typed
:class:`~repro.common.errors.CheckpointRollbackError`).

**Configuration**: a long-lived checkpoint pins version history, so under
the default 4-version ABORT_WRITER cap, transactions that keep writing a
hot line will abort on VERSION_OVERFLOW for as long as the pin exists —
potentially forever.  :meth:`CheckpointManager.create` emits a one-time
warning when a checkpoint is created under that cap policy.  Run
checkpointing workloads with
``MVMConfig(cap_policy=VersionCapPolicy.UNBOUNDED)`` (the paper's noted
fallback for deep history is reverting to page-level copy-on-write, which
unbounded versions model).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.common.config import VersionCapPolicy
from repro.common.errors import CheckpointRollbackError, MVMError

if TYPE_CHECKING:  # avoid a circular import: sim.machine imports repro.mvm
    from repro.sim.machine import Machine

#: process-wide one-shot latch for the capped-pin footgun warning
_warned_capped_pin = False


@dataclass(frozen=True)
class Checkpoint:
    """A pinned point-in-time view of multiversioned memory."""

    checkpoint_id: int
    timestamp: int


class CheckpointManager:
    """Create, read through, roll back to, and release MVM checkpoints."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self._mvm = machine.mvm
        self._clock = machine.clock
        self._next_id = 0
        self._live: Dict[int, Checkpoint] = {}

    def create(self) -> Checkpoint:
        """Capture the current committed state (O(1): a pinned timestamp)."""
        global _warned_capped_pin
        if (not _warned_capped_pin
                and self._mvm.config.cap_policy
                is VersionCapPolicy.ABORT_WRITER):
            _warned_capped_pin = True
            warnings.warn(
                "checkpoint created under the ABORT_WRITER version cap "
                f"(max_versions={self._mvm.config.max_versions}): while "
                "the pin exists, writers to a hot line can abort on "
                "VERSION_OVERFLOW forever (pin-induced livelock); use "
                "VersionCapPolicy.UNBOUNDED for checkpointing workloads",
                RuntimeWarning, stacklevel=2)
        timestamp = self._clock.next_start()
        if timestamp is None:
            raise MVMError("cannot checkpoint while a commit is in flight")
        checkpoint = Checkpoint(self._next_id, timestamp)
        self._next_id += 1
        self._mvm.active.add(timestamp)
        self._live[checkpoint.checkpoint_id] = checkpoint
        return checkpoint

    def read(self, checkpoint: Checkpoint, addr: int) -> int:
        """Read one word as of the checkpoint."""
        self._require_live(checkpoint)
        amap = self.machine.address_map
        if not amap.is_mvm(addr):
            raise MVMError(
                f"address {addr:#x} is not in multiversioned memory; only "
                "the MVM region is checkpointed (section 3.3)")
        line = amap.line_of(addr)
        data = self._mvm.snapshot_read(line, checkpoint.timestamp)
        if data is None:
            return 0
        return data[amap.word_in_line(addr)]

    def rollback(self, checkpoint: Checkpoint) -> int:
        """Restore the MVM to the checkpoint; returns versions discarded.

        Every version newer than the checkpoint's timestamp is removed —
        the pre-existing versions *are* the rollback data, so nothing is
        copied (the "no time-consuming undo" property of section 4.3).
        Raises :class:`~repro.common.errors.CheckpointRollbackError`
        when transactions are still in flight.
        """
        self._require_live(checkpoint)
        if len(self._mvm.active) > self.live_count:
            raise CheckpointRollbackError(
                f"cannot roll back to checkpoint "
                f"{checkpoint.checkpoint_id}: "
                f"{len(self._mvm.active) - self.live_count} "
                "transaction(s) still in flight — drain or abort them "
                "first")
        return self._mvm.truncate_after(checkpoint.timestamp)

    def release(self, checkpoint: Checkpoint) -> None:
        """Unpin the checkpoint; its versions become collectable."""
        self._require_live(checkpoint)
        self._mvm.active.remove(checkpoint.timestamp)
        del self._live[checkpoint.checkpoint_id]

    def _require_live(self, checkpoint: Checkpoint) -> None:
        if checkpoint.checkpoint_id not in self._live:
            raise MVMError(
                f"checkpoint {checkpoint.checkpoint_id} is not live")

    @property
    def live_count(self) -> int:
        """Number of currently pinned checkpoints."""
        return len(self._live)
