"""The store server: asyncio front-end, commit coordinator, monitor feed.

One :class:`StoreServer` owns the shard set, the session table, the
admission counters, and (optionally) a live oracle monitor.  Each client
connection is a :class:`~repro.store.protocol.FrameReceiver`
(:class:`_Connection`) that parses frames out of what the transport
reads and **answers a request where it arrives**: ``buffer_updated``
steps :meth:`StoreServer._dispatch` and writes the response before it
returns.  Nearly every request finishes
that way — a shard command is a plain call — so a round trip costs the
server no ``Task``, no future wake-up and no turn of the event loop.
The request path waits in two places only, a shard under an injected
stall and the golden gate, both through :func:`_within`; a dispatch
that reaches one is carried on by a task created at that moment, and
the connection serves its later frames when that task has answered.
The robustness contract, end to end:

* **Admission**: a begin past ``max_inflight`` open transactions sheds
  the frame that carries it immediately with ``OVERLOADED`` plus a
  backoff hint — the server never queues work it has not admitted.
* **Deadlines**: every transaction carries an absolute deadline.  It is
  enforced at command arrival, in the shard, and around every wait;
  expiry aborts the transaction server-side and answers ``TIMEOUT``.
* **Peers**: a connection that does not deliver a whole frame within
  ``idle_timeout_ms`` of the server starting to wait for one — idle, or
  trickling bytes — is closed; so is one that sends an oversize, junk
  or non-object frame.  A peer that stops reading its responses stops
  being read from.
* **One snapshot**: the server owns the one store clock.  The frame
  that carries a begin draws the transaction's ``start_ts`` and
  registers it on every shard; every read, on any shard, is at it.
* **Commit protocol**: a commit takes its turn (a ``prepare``) on
  each written shard in sorted shard order; then phase 2 runs
  **synchronously with no awaits** and decides it in one place — doom
  check; the snapshot, moved to the latest timestamp at which every
  read still holds; first-committer-wins validation against it; one
  commit timestamp, applied on every written shard — so in a
  single-threaded event loop a multi-shard commit publishes
  atomically, and nothing ever waits on the commit protocol.  A crash
  dooms every transaction that read or wrote the shard, so a commit
  it interrupts aborts with ``shard-crashed``; committed state is kept
  as it is, with nothing to roll back.
* **Stalls** (chaos): :meth:`StoreServer.stall_shard` holds one shard's
  reads and prepares for a while.  A request that meets the stall waits
  for its end, bounded by what is left of its deadline, and in arrival
  order per connection; a crash of that shard ends the stall, and its
  waiters answer ``shard-crashed``.
* **Retry/escalation**: every abort response carries ``retry_after_ms``
  from the session's :class:`~repro.sim.retry.RetryState`; a starving
  session's next transaction takes the server-wide **golden token**,
  and other commits touching its home shard wait until it finishes —
  the store-side analogue of the engine's serial escalation.
* **Session GC**: a lost connection ends its session in
  ``connection_lost`` — a request still waiting is cancelled first —
  and an open transaction is aborted with ``disconnect``, unregistering
  its snapshot so the active-transaction tables cannot leak and wedge
  version GC.
* **Monitoring**: every completed transaction is fed to the
  :class:`~repro.oracle.live.LiveHistoryMonitor` as a span-schema-
  compatible session row (also persisted when ``record_path`` is set),
  and the store's GC watermark is reported after each completion so
  the monitor can fold what no later transaction can overlap.  The
  monitor checks a row once, when it is fed, and relies on arrival
  order for that: a commit is applied and its row fed with no ``await``
  between (``_do_commit`` phase 2 into ``_finish_txn``).

A second tiny listener serves the Prometheus exposition of the metrics
registry on ``/metrics`` (:func:`repro.obs.prom.exposition_http_response`);
one request per connection, it stays on asyncio streams.
"""

from __future__ import annotations

import asyncio
import json
import types
from typing import Dict, Generator, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.mvm.timestamps import GlobalClock
from repro.obs.export import SPAN_SCHEMA_VERSION
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import exposition_http_response
from repro.oracle.live import LiveHistoryMonitor
from repro.sim.retry import RetryState
from repro.store import protocol
from repro.store.session import Session, StoreConfig, Txn, shard_of
from repro.store.shard import CRASHED, OK, SHUTDOWN, TIMEOUT, Shard
from repro.common.rng import SplitRandom

__all__ = ["StoreServer"]


@types.coroutine
def _within(seconds: float, future: "asyncio.Future") -> Generator:
    """``future``'s result, or ``asyncio.TimeoutError`` after ``seconds``
    (what is left of a transaction's deadline): the one way a request
    waits.

    A request is first stepped in place, outside any task, by
    :meth:`_Connection._serve`.  The bare ``yield`` is the suspension it
    sees; the task it then creates resumes here, so ``wait_for`` runs
    inside that task.  Called from the in-place step ``wait_for`` works
    on Python 3.10 and 3.11 and raises ``RuntimeError: Timeout should be
    used inside a task`` on 3.12 and later.
    """
    if asyncio.current_task() is None:
        yield
    return (yield from asyncio.wait_for(future, seconds))


class _Connection(protocol.FrameReceiver):
    """One client connection: its session, its frames, its read deadline.

    ``buffer_updated`` answers a request where it arrives: it steps
    :meth:`StoreServer._dispatch` once and writes the response when that
    finishes without waiting, which is every request that meets no
    stalled shard and no golden gate.  A dispatch that suspends
    (:func:`_within`) is carried on by a task made at that moment;
    until it answers, later frames stay in the parser, so a connection
    has one request in flight and responses keep request order.

    The read deadline is one ``call_at`` timer per connection that
    re-arms itself when it fires (a timer made and cancelled per frame
    piles cancelled handles up in the loop's heap:
    ``docs/performance.md``, "Store request path").  It starts when the
    server starts waiting for a frame — on connect and after each
    response — and only a whole frame satisfies it, so an idle peer and
    one trickling bytes are both dropped ``idle_timeout_ms`` later,
    progress or not.  While a request is served it is off: how long
    that may take is the transaction deadline's business, not the
    peer's fault.
    """

    def __init__(self, server: "StoreServer"):
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._timeout = server.config.idle_timeout_ms / 1000.0
        self._frames = protocol.FrameParser()
        self._transport: Optional[asyncio.Transport] = None
        self._session: Optional[Session] = None
        #: loop time the awaited frame must be whole by (None: not
        #: waiting for one — a request is being served, or the peer is
        #: not taking our responses)
        self._deadline: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        #: the task carrying on a request that had to wait
        self._carrying: Optional["asyncio.Task"] = None
        self._write_paused = False
        self._lost = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._session = self._server._open_session()
        self._await_frame(self._loop.time())

    # -- read deadline

    def _await_frame(self, now: float) -> None:
        """Wait for a whole frame, from loop time ``now``."""
        self._deadline = now + self._timeout
        if self._timer is None:
            self._timer = self._loop.call_at(self._deadline,
                                             self._check_deadline)

    def _check_deadline(self) -> None:
        self._timer = None
        if self._deadline is None:
            return  # not waiting for a frame; the next wait starts a timer
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline,
                                             self._check_deadline)
        else:
            self._transport.close()  # idle or slow-loris peer

    # -- requests

    def buffer_updated(self, nbytes: int) -> None:
        frames = self._frames
        frames.buffer += frames.inbox[:nbytes]
        if self._carrying is None and not self._write_paused:
            self._serve()
        elif len(self._frames) > protocol.MAX_FRAME:
            # enough pipelined behind the peer's own waiting request
            self._transport.pause_reading()

    def _serve(self) -> None:
        """Answer the buffered frames, in order, until one has to wait.

        A frame's arrival time is read once: every deadline test of a
        request answered in place, and the read deadline armed after
        it, are from that one reading.
        """
        dispatch, session = self._server._dispatch, self._session
        frames, clock = self._frames, self._loop.time
        try:
            while frames.buffer and not self._write_paused:
                request = frames.next_frame()
                if request is None:
                    return
                now = clock()
                step = dispatch(session, request, now)
                try:
                    step.send(None)
                except StopIteration as finished:
                    self._respond(finished.value, now)
                else:
                    self._deadline = None
                    self._carrying = self._loop.create_task(step)
                    self._carrying.add_done_callback(self._carried)
                    return
        except ProtocolError:
            self._transport.close()  # framing violation

    def _respond(self, response: dict, now: float) -> None:
        """Write ``response``; then wait for a frame, from ``now``."""
        self._transport.write(protocol.encode_frame(response))
        if not self._write_paused:
            self._await_frame(now)

    def _carried(self, task: "asyncio.Task") -> None:
        """The request that waited is done: answer it, serve what queued."""
        self._carrying = None
        if self._lost:
            self._end_session()
        elif task.cancelled():  # the loop is shutting down
            self._transport.close()
        else:
            try:
                self._respond(task.result(), self._loop.time())
            except BaseException:
                self._transport.close()
                raise
            if not self._write_paused:
                self._transport.resume_reading()
                self._serve()

    # -- flow control and teardown

    def pause_writing(self) -> None:
        self._write_paused = True
        self._deadline = None
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._transport.resume_reading()
        if self._carrying is None:
            self._await_frame(self._loop.time())
            self._serve()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._carrying is not None:
            # the session ends in _carried, once the request has unwound:
            # a commit past its last wait must not be aborted under it
            self._carrying.cancel()
        else:
            self._end_session()

    def _end_session(self) -> None:
        server, session = self._server, self._session
        if session.txn is not None:
            server._abort_txn(session, session.txn, "disconnect")
            server.metrics.inc("store_disconnects_total")
        del server.sessions[session.session_id]


class StoreServer:
    """A sharded SI transactional KV service over asyncio transports."""

    def __init__(self, config: Optional[StoreConfig] = None,
                 monitor: Optional[LiveHistoryMonitor] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 record_path: Optional[object] = None):
        self.config = config or StoreConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.monitor = monitor
        #: the one store clock: every shard's timestamps come from it
        self.clock = GlobalClock()
        self.shards = [Shard(i, self.config, self.clock)
                       for i in range(self.config.shards)]
        self.sessions: Dict[int, Session] = {}
        self.open_txns: Dict[int, Txn] = {}
        self._next_session = 0
        self._next_txn = 0
        self._seq = 0
        self._rng = SplitRandom(self.config.seed, ("store", "retry"))
        # golden-token escalation state
        self._golden_holder: Optional[int] = None  # txn uid
        self._golden_home: Optional[int] = None    # shard id
        #: resolved when the holder finishes (made when the token is taken)
        self._golden_released: Optional["asyncio.Future"] = None
        self.escalations = 0
        #: chaos: shard id -> resolved when its stall is over
        self._stalls: Dict[int, "asyncio.Future"] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._record = None
        self._record_path = record_path
        self._shutting_down = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start the listener; returns the bound port."""
        if self._record_path is not None:
            import pathlib
            path = pathlib.Path(self._record_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._record = path.open("w", encoding="utf-8")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port)
        return self._server.sockets[0].getsockname()[1]

    async def start_metrics(self, host: str = "127.0.0.1",
                            port: int = 0) -> int:
        """Start the ``/metrics`` exposition listener; returns its port."""
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics, host, port)
        return self._metrics_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listeners and shards; close the session record."""
        self._shutting_down = True
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for shard in self.shards:
            shard.stop()
        for shard_id, over in list(self._stalls.items()):
            self._end_stall(shard_id, over)
        if self._record is not None:
            self._record.close()
            self._record = None

    # ------------------------------------------------------------------
    # connection handling

    def _open_session(self) -> Session:
        # seed first_attempt_at with the current clock: the starvation
        # age is wall time since the session's first attempt, not since
        # the epoch
        session = Session(self._next_session,
                          RetryState(self.config.retry,
                                     self._rng.split(self._next_session),
                                     now=self._now_ms()))
        self._next_session += 1
        self.sessions[session.session_id] = session
        return session

    async def _handle_metrics(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            await asyncio.wait_for(reader.readline(), 5.0)
        except (asyncio.TimeoutError, ConnectionError):
            writer.close()
            return
        self._refresh_gauges()
        writer.write(exposition_http_response(self.metrics.snapshot(),
                                              prefix="sitm_"))
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    def _refresh_gauges(self) -> None:
        self.metrics.set_gauge("store_sessions", len(self.sessions))
        self.metrics.set_gauge("store_inflight", len(self.open_txns))
        for shard in self.shards:
            stats = shard.stats()
            self.metrics.set_gauge("store_shard_generation",
                                   stats["generation"],
                                   shard=shard.shard_id)
            self.metrics.set_gauge("store_shard_pinned_txns",
                                   stats["pinned_transactions"],
                                   shard=shard.shard_id)
            self.metrics.set_gauge("store_shard_watermark",
                                   stats["watermark"],
                                   shard=shard.shard_id)

    # ------------------------------------------------------------------
    # request dispatch

    async def _dispatch(self, session: Session, request: dict,
                        now: float) -> dict:
        """Answer ``request``, which arrived at loop time ``now``.

        A transaction's deadline has expired when nothing of it is left
        (``now >= deadline``), here, in a shard and at the golden gate
        alike; a request that waited reads the clock again.
        """
        op = request.get("op")
        if op not in protocol.OPS:
            return protocol.error_response(
                "BAD_REQUEST", f"unknown op {op!r}")
        if self._shutting_down:
            return protocol.error_response("SERVER_SHUTDOWN",
                                           "server is draining")
        if op == "PING":
            return protocol.ok_response(
                pong=True,
                generations=[s.generation for s in self.shards])
        begun = None
        if "begin" in request:
            # a carried begin: refused, it answers the frame and nothing
            # runs
            refused = self._do_begin(session, request["begin"], now)
            if refused is not None:
                return refused
            begun = session.txn.uid
        # the frame's carried writes, then its op, in the open txn
        txn = session.txn
        if txn is None:
            return protocol.error_response("NO_TXN",
                                           f"{op} outside a transaction")
        if now >= txn.deadline:
            response = self._timed_out(session, txn,
                                       "transaction deadline expired")
        elif txn.doomed is not None:
            cause = txn.doomed
            self._abort_txn(session, txn, cause)
            response = self._aborted_response(session, cause)
        elif "writes" in request and not self._carried_writes(
                txn, request["writes"]):
            response = protocol.error_response(
                "BAD_REQUEST", "writes must be [non-empty key, value] "
                "pairs, and null is not a storable value")
        elif op == "READ":
            response = await self._do_read(session, txn, request.get("key"),
                                           now)
        elif op == "COMMIT":
            response = await self._do_commit(session, txn, now)
        else:  # ABORT
            self._abort_txn(session, txn, "explicit")
            response = protocol.ok_response()
        if begun is not None:
            response["txn"] = begun
        return response

    def _carried_writes(self, txn: Txn, writes: object) -> bool:
        """Record the client's buffered writes, before the op: all of
        them, or (``False``: ill-formed, the transaction still open)
        none."""
        if not isinstance(writes, list) or not all(
                isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and pair[0]
                and pair[1] is not None for pair in writes):
            return False
        for key, value in writes:
            self._do_write(txn, key, value)
        return True

    def _now_ms(self) -> int:
        return int(asyncio.get_running_loop().time() * 1000)

    def _aborted_response(self, session: Session, cause: str) -> dict:
        delay = session.retry.note_abort()
        return protocol.error_response(
            "ABORTED", f"transaction aborted ({cause})",
            retry_after_ms=delay, cause=cause)

    def _timed_out(self, session: Session, txn: Txn, detail: str) -> dict:
        """The one ``TIMEOUT`` answer: ``txn`` aborts, and it counts as
        one ``store_timeouts_total`` wherever its deadline ran out."""
        self._abort_txn(session, txn, "timeout")
        self.metrics.inc("store_timeouts_total")
        return protocol.error_response("TIMEOUT", detail)

    # ------------------------------------------------------------------
    # operations

    def _do_begin(self, session: Session, fields: object,
                  now: float) -> Optional[dict]:
        """Open the session's transaction from a frame's ``begin``
        object: ``None``, or the response that refuses it."""
        if not isinstance(fields, dict):
            return protocol.error_response("BAD_REQUEST",
                                           "begin must be an object")
        if session.txn is not None:
            return protocol.error_response(
                "TXN_OPEN", "session already has an open transaction")
        # validated before anything below touches the session's retry
        # state; bool is an int, and ``true`` is not a deadline
        deadline_ms = fields.get("deadline_ms", self.config.deadline_ms)
        if (not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool)
                or deadline_ms < 1):
            return protocol.error_response(
                "BAD_REQUEST", f"bad deadline_ms {deadline_ms!r}")
        if len(self.open_txns) >= self.config.max_inflight:
            session.retry.note_stall()
            self.metrics.inc("store_shed_total", reason="admission")
            return protocol.error_response(
                "OVERLOADED",
                f"{len(self.open_txns)} transactions in flight "
                f"(limit {self.config.max_inflight})",
                retry_after_ms=self.config.retry.delay(
                    session.retry.consecutive_stalls, self._rng))
        # starving? — judged before note_progress resets the stall
        # streak the sheds built up
        now_ms = int(now * 1000)
        starving = session.retry.starving(now_ms)
        session.retry.note_progress()
        session.retry.note_first_attempt(now_ms)
        deadline_ms = min(deadline_ms, self.config.max_deadline_ms)
        label = fields.get("label", f"session-{session.session_id}")
        self._seq += 1
        # no commit is ever in flight outside the atomic apply step, so
        # a start timestamp is always free
        txn = Txn(uid=self._next_txn, session_id=session.session_id,
                  label=str(label), deadline=now + deadline_ms / 1000.0,
                  begin_seq=self._seq, start_ts=self.clock.next_start())
        self._next_txn += 1
        session.txn = txn
        self.open_txns[txn.uid] = txn
        for shard in self.shards:
            shard._do_snapshot(txn)
        # golden-token escalation: a starving session's transaction
        # serializes against other commits on its home shard
        policy = self.config.retry
        if (policy.escalation and self._golden_holder is None
                and starving):
            self._golden_holder = txn.uid
            self._golden_home = None  # set at first shard touch
            self._golden_released = \
                asyncio.get_running_loop().create_future()
            self.escalations += 1
            self.metrics.inc("store_escalations_total")
        return None

    async def _stalled(self, txn: Txn, sid: int,
                       now: float) -> Tuple[str, float]:
        """Wait out shard ``sid``'s stall from loop time ``now``: ``OK``
        and the loop time it ended, or what cut the wait short —
        ``TIMEOUT`` (the txn deadline) or ``CRASHED`` (the shard)."""
        shard = self.shards[sid]
        generation = shard.generation
        self.metrics.inc("store_stalled_requests_total", shard=sid)
        try:
            # shielded: a timeout cancels what it waited on, and this
            # future is every waiter's
            await _within(txn.deadline - now,
                          asyncio.shield(self._stalls[sid]))
        except asyncio.TimeoutError:
            return TIMEOUT, now
        if shard.generation != generation:
            return CRASHED, now
        return OK, asyncio.get_running_loop().time()

    def _touch(self, txn: Txn, sid: int) -> None:
        """The golden holder's home is the first shard it touches."""
        if self._golden_holder == txn.uid and self._golden_home is None:
            self._golden_home = sid

    async def _do_read(self, session: Session, txn: Txn, key: object,
                       now: float) -> dict:
        if not isinstance(key, str) or not key:
            return protocol.error_response("BAD_REQUEST",
                                           f"bad key {key!r}")
        sid = shard_of(key, self.config.shards)
        writes = txn.writes
        if (sid, key) in writes:
            # read-your-writes from the buffered write set
            value = writes[(sid, key)]
        else:
            if self._golden_holder is not None:
                self._touch(txn, sid)
            if sid in self._stalls:
                status, now = await self._stalled(txn, sid, now)
                if status != OK:
                    return self._shard_failure(session, txn, status)
            status, value = self.shards[sid].submit("read", txn, key,
                                                    now).result()
            if status != OK:
                return self._shard_failure(session, txn, status)
            keys = txn.read_keys.get(sid)
            if keys is None:
                keys = txn.read_keys[sid] = set()
            keys.add(key)
        txn.ops.append(("r", sid, key, value))
        txn.reads += 1
        return {"ok": True, "value": value}

    def _do_write(self, txn: Txn, key: str, value: object) -> None:
        sid = shard_of(key, self.config.shards)
        txn.writes[(sid, key)] = value
        txn.ops.append(("w", sid, key, value))

    def _shard_failure(self, session: Session, txn: Txn,
                       status: str) -> dict:
        """Translate a failed shard command into a structured response."""
        if status == TIMEOUT:
            return self._timed_out(
                session, txn, "transaction deadline expired in a shard")
        if status == SHUTDOWN:
            self._abort_txn(session, txn, "explicit")
            return protocol.error_response("SERVER_SHUTDOWN",
                                           "server is draining")
        # a shard refuses a doomed transaction with CONFLICT, and a
        # crash dooms what it fails: surface the doom's cause (e.g. a
        # crash on another shard), not the refusal itself
        cause = txn.doomed or ("shard-crashed" if status == CRASHED
                               else str(status))
        self._abort_txn(session, txn, cause)
        return self._aborted_response(session, cause)

    async def _do_commit(self, session: Session, txn: Txn,
                         now: float) -> dict:
        if not txn.writes:
            self._finish_txn(session, txn, committed=True, now=now)
            return {"ok": True, "commit_ts": None, "read_only": True}
        by_shard: Dict[int, Dict[str, object]] = {}
        for (sid, key), value in txn.writes.items():
            by_shard.setdefault(sid, {})[key] = value
        # golden-token gate: while a starving transaction holds the
        # token, other commits touching its home shard wait
        if self._golden_holder is not None:
            now = await self._golden_gate(txn, now)
            if now is None:
                return self._timed_out(
                    session, txn, "deadline expired waiting for escalation")
        # phase 1: take each written shard's turn
        shards = [self.shards[sid] for sid in sorted(by_shard)]
        if self._golden_holder is not None:
            self._touch(txn, shards[0].shard_id)
        for shard in shards:
            if shard.shard_id in self._stalls:
                status, now = await self._stalled(txn, shard.shard_id, now)
                if status != OK:
                    return self._shard_failure(session, txn, status)
            status, _ = shard.submit("prepare", txn, None, now).result()
            if status != OK:
                return self._shard_failure(session, txn, status)
        # phase 2: decide and apply — NO awaits from here to _finish_txn
        cause = txn.doomed
        if cause is None:
            snapshot = self._snapshot(txn)
            if not all(shard.validate(by_shard[shard.shard_id], snapshot)
                       for shard in shards):
                cause = "write-write"
        if cause is not None:
            self._abort_txn(session, txn, cause)
            return self._aborted_response(session, cause)
        txn.commit_ts = self.clock.begin_commit()
        for shard in shards:
            shard.apply(txn, by_shard[shard.shard_id])
        self.clock.finish_commit(txn.commit_ts)
        self._finish_txn(session, txn, committed=True, snapshot=snapshot,
                         now=now)
        return {"ok": True, "commit_ts": txn.commit_ts, "read_only": False}

    def _snapshot(self, txn: Txn) -> int:
        """The latest timestamp at which every read of ``txn`` still
        returns what it returned: just below the oldest version written
        since its start to a key it read from a shard (a key no commit
        had written when it was read included), else the present."""
        newer = [ts for ts in (
            self.shards[sid].oldest_version_after(keys, txn.start_ts)
            for sid, keys in txn.read_keys.items()) if ts is not None]
        return min(newer) - 1 if newer else self.clock.now

    async def _golden_gate(self, txn: Txn, now: float) -> Optional[float]:
        """Wait while another txn's golden token covers our shards: the
        loop time it passed at (``None``: the deadline expired first)."""
        while (self._golden_holder is not None
               and self._golden_holder != txn.uid
               and self._golden_home is not None
               and self._golden_home in txn.touched_shards):
            if now >= txn.deadline:
                return None
            try:
                # shielded: a timeout cancels what it waited on, and
                # this future is every waiter's
                await _within(txn.deadline - now,
                              asyncio.shield(self._golden_released))
            except asyncio.TimeoutError:
                return None
            now = asyncio.get_running_loop().time()
        return now

    # ------------------------------------------------------------------
    # completion (synchronous: safe inside the atomic apply step)

    def _release_golden(self, txn: Txn) -> None:
        if self._golden_holder == txn.uid:
            self._golden_holder = None
            self._golden_home = None
            self._golden_released.set_result(None)

    def _abort_txn(self, session: Session, txn: Txn, cause: str) -> None:
        """Server-side abort: unregister, session bookkeeping."""
        txn.doom(cause)
        self._finish_txn(session, txn, committed=False, cause=cause)

    def _finish_txn(self, session: Session, txn: Txn, committed: bool,
                    cause: Optional[str] = None,
                    snapshot: Optional[int] = None,
                    now: Optional[float] = None) -> None:
        """End ``txn``; ``snapshot`` is the one a writer committed at,
        ``now`` the loop time of a commit (read here when not given)."""
        self._seq += 1
        row = None
        if self.monitor is not None or self._record is not None:
            row = self._session_row(
                session, txn, committed, cause,
                txn.start_ts if snapshot is None else snapshot)
        for shard in self.shards:
            shard.release_snapshot(txn)
        self.open_txns.pop(txn.uid, None)
        if session.txn is txn:
            session.txn = None
        self._release_golden(txn)
        if committed:
            session.committed += 1
            session.retry.reset(self._now_ms() if now is None
                                else int(now * 1000))
            self.metrics.inc("store_txn_commits_total")
        else:
            session.aborted += 1
            self.metrics.inc("store_txn_aborts_total",
                             cause=cause or "unknown")
        if row is not None:
            self._emit_row(row)

    def _emit_row(self, row: dict) -> None:
        if self._record is not None:
            self._record.write(json.dumps(row, sort_keys=True) + "\n")
            self._record.flush()
        if self.monitor is not None:
            self.monitor.feed_row(row)
            # every shard registers every open snapshot at begin, so one
            # shard's watermark is the store's
            self.monitor.note_watermark(self.shards[0].watermark)

    def _session_row(self, session: Session, txn: Txn, committed: bool,
                     cause: Optional[str], start_ts: int) -> dict:
        """The span-schema-compatible record of one completed txn."""
        return {
            "uid": txn.uid,
            "thread": session.session_id,
            "label": txn.label,
            "begin_cycle": txn.begin_seq,
            "end_cycle": self._seq,
            "outcome": "commit" if committed else "abort",
            "cause": None if committed else (cause or "explicit"),
            "retries": session.retry.attempts,
            "reads": txn.reads,
            "writes": len(txn.writes),
            "start_ts": start_ts,
            "commit_ts": txn.commit_ts,
            "schema_version": SPAN_SCHEMA_VERSION,
            "store": {"ops": txn.ops},
        }

    # ------------------------------------------------------------------
    # chaos hooks

    def crash_shard(self, shard_id: int) -> List[Txn]:
        """Force-crash one shard; dooms and returns affected txns, and
        ends the shard's stall."""
        shard = self.shards[shard_id]
        doomed = shard.crash_now(list(self.open_txns.values()))
        self._end_stall(shard_id, self._stalls.get(shard_id))
        self.metrics.inc("store_shard_crashes_total", shard=shard_id)
        return doomed

    def stall_shard(self, shard_id: int, ms: float) -> None:
        """Hold one shard's reads and prepares for ``ms`` from now (a
        stall under way runs its course)."""
        if shard_id not in self._stalls:
            loop = asyncio.get_running_loop()
            over = self._stalls[shard_id] = loop.create_future()
            loop.call_later(ms / 1000.0, self._end_stall, shard_id, over)
        self.metrics.inc("store_shard_stalls_total", shard=shard_id)

    def _end_stall(self, shard_id: int,
                   over: Optional["asyncio.Future"]) -> None:
        """Release the requests waiting on ``over`` if it is still shard
        ``shard_id``'s stall."""
        if over is not None and self._stalls.get(shard_id) is over:
            del self._stalls[shard_id]
            over.set_result(None)

    @property
    def golden_holder(self) -> Optional[int]:
        """Txn uid currently holding the golden token (or None)."""
        return self._golden_holder
