"""The store's wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length ``N`` (at most
:data:`MAX_FRAME` bytes) followed by ``N`` bytes of UTF-8 JSON encoding
a single object.  Requests carry an ``op`` field; the operations are

===========  =====================================================
``BEGIN``    open a transaction (``label``, optional ``deadline_ms``)
``READ``     snapshot-read ``key`` within the open transaction
``WRITE``    buffer ``value`` for ``key`` (``null`` is not a value)
``COMMIT``   first-committer-wins commit of the buffered writes
``ABORT``    discard the open transaction
``PING``     liveness probe; returns shard generations
===========  =====================================================

Responses are ``{"ok": true, ...}`` on success or
``{"ok": false, "error": <code>, "detail": ..., "retry_after_ms": ...,
"cause": ...}`` on failure, with the error codes of :data:`ERROR_CODES`:

* ``BAD_REQUEST`` — unparseable or ill-formed request;
* ``NO_TXN`` / ``TXN_OPEN`` — operation outside / inside a transaction;
* ``OVERLOADED`` — admission control or a full shard queue shed the
  request (structured load-shedding, never silent queueing);
* ``TIMEOUT`` — the transaction's deadline expired server-side;
* ``ABORTED`` — the transaction aborted (``cause`` names why:
  ``write-write``, ``shard-crashed``, ...; ``retry_after_ms`` carries
  the server's backoff hint);
* ``SERVER_SHUTDOWN`` — the server is draining.

The framing helpers here are shared by the server, the load-generator
client and the chaos harness, so a framing change cannot desynchronise
them.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

from repro.common.errors import ProtocolError

__all__ = ["MAX_FRAME", "ERROR_CODES", "OPS", "ReadGuard", "encode_frame",
           "read_frame", "error_response", "ok_response"]

#: largest accepted frame payload, in bytes
MAX_FRAME = 1 << 20

#: the request operations the server understands
OPS = ("BEGIN", "READ", "WRITE", "COMMIT", "ABORT", "PING")

#: structured error codes a response may carry
ERROR_CODES = ("BAD_REQUEST", "NO_TXN", "TXN_OPEN", "OVERLOADED",
               "TIMEOUT", "ABORTED", "SERVER_SHUTDOWN")

_LEN = struct.Struct(">I")
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_frame(obj: dict) -> bytes:
    """Serialise one message as a length-prefixed JSON frame."""
    payload = _encode(obj).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte limit")
    return _LEN.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader,
                     timeout: Optional[float] = None) -> dict:
    """Read one frame; raises on EOF, oversize, junk, or idle timeout.

    ``timeout`` (seconds) bounds the *whole* frame — header and body —
    so a slow-loris peer trickling one byte per second cannot hold a
    connection open: the clock starts with the read and is not reset by
    partial progress.  It is a :class:`ReadGuard` armed for this one
    frame, and like the guard it fails the reader for good.
    """
    if timeout is not None:
        guard = ReadGuard(reader, timeout)
        try:
            return await guard.read_frame()
        finally:
            guard.close()
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME})")
    payload = await reader.readexactly(length)
    try:
        obj = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ProtocolError(f"frame payload is not JSON: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return obj


class ReadGuard:
    """The idle / slow-loris deadline of one connection's reads.

    Each :meth:`read_frame` must finish within ``timeout`` seconds of
    being called, idle wait included; an overrun fails the reader with
    :class:`ProtocolError`, so that read and every later one raise.
    Between reads the guard is off: how long *serving* a request may
    take is the transaction deadline's business, not the peer's fault.

    It is one ``call_at`` timer per connection that re-arms itself when
    it fires.  A timer made and cancelled per frame costs half of what
    dropping the per-frame ``Task`` gains: cancelled timers pile up in
    the loop's heap (``docs/performance.md``, "Store request path").
    """

    def __init__(self, reader: asyncio.StreamReader, timeout: float):
        self._reader = reader
        self._timeout = timeout
        self._loop = asyncio.get_running_loop()
        #: loop time the read in progress must finish by (None: no read)
        self._deadline: Optional[float] = None
        self._timer: Optional[asyncio.TimerHandle] = None

    async def read_frame(self) -> dict:
        """:func:`read_frame` on the guarded reader, under the deadline."""
        self._deadline = self._loop.time() + self._timeout
        if self._timer is None:
            self._timer = self._loop.call_at(self._deadline, self._check)
        try:
            return await read_frame(self._reader)
        finally:
            self._deadline = None

    def _check(self) -> None:
        self._timer = None
        if self._deadline is None:
            return  # between reads; the next read starts a new timer
        if self._loop.time() < self._deadline:
            self._timer = self._loop.call_at(self._deadline, self._check)
        else:
            self._reader.set_exception(ProtocolError(
                f"peer idle/stalled beyond {self._timeout:.3f}s"))

    def close(self) -> None:
        """Drop the timer (the connection is going away)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


def ok_response(**fields: object) -> dict:
    """A success response with extra fields merged in."""
    out: dict = {"ok": True}
    out.update(fields)
    return out


def error_response(code: str, detail: str = "",
                   retry_after_ms: Optional[int] = None,
                   cause: Optional[str] = None) -> dict:
    """A structured error response (code from :data:`ERROR_CODES`)."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    out: dict = {"ok": False, "error": code, "detail": detail}
    if retry_after_ms is not None:
        out["retry_after_ms"] = int(retry_after_ms)
    if cause is not None:
        out["cause"] = cause
    return out
