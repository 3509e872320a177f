"""``repro.store``: a fault-hardened concurrent transactional KV service.

The simulator proves the SI-TM protocol under virtual time; this package
runs the same multiversioned machinery — per-shard
:class:`~repro.mvm.controller.MVMController` instances on one store
clock — against *wall-clock* concurrency: an asyncio front-end
speaking a length-prefixed JSON protocol (``READ``/``COMMIT``/``ABORT``;
a transaction's begin and writes ride on its ``READ``s and ``COMMIT``),
one snapshot per transaction across every shard, a commit judged by
first-committer-wins at the latest snapshot its reads still hold at
and published at one commit timestamp, and robustness as a
first-class feature:

* per-transaction **deadlines** with structured ``TIMEOUT`` errors;
* **retry/backoff** reusing the simulator's
  :class:`~repro.sim.retry.RetryPolicy` semantics over milliseconds,
  including golden-token escalation of starving transactions;
* **admission control** — bounded in-flight transactions, shed with
  explicit ``OVERLOADED`` responses, never silent queueing;
* **session GC** — client disconnects mid-transaction unregister their
  snapshots so the active-transaction tables cannot leak and wedge
  version GC;
* **shard crash/restart**: a crash loses volatile state — the open
  transactions that touched the shard abort with ``shard-crashed`` —
  and keeps committed state, with nothing to roll back (every commit
  applies in one atomic step);
* a seeded :class:`~repro.store.chaos.ChaosPlan` injecting disconnects,
  slow-loris clients, shard stalls and forced crashes; and
* a **live oracle monitor** (:mod:`repro.oracle.live`) replaying every
  completed transaction through the SI checker while the server runs.

Entry point: the ``sitm-store`` console script
(:mod:`repro.store.cli`).  See ``docs/store.md`` for the wire protocol
and semantics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.store.chaos": ("ChaosPlan", "run_chaos_campaign"),
    "repro.store.loadgen": ("StoreClient", "ZipfKeys", "run_load"),
    "repro.store.server": ("StoreServer",),
    "repro.store.session": ("StoreConfig",),
})
