"""The store's wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length ``N`` (at most
:data:`MAX_FRAME` bytes) followed by ``N`` bytes of UTF-8 JSON encoding
a single object.  Frames are canonical: :func:`encode_frame` sorts keys,
separates with ``,`` and ``:`` and escapes non-ASCII, so a message has
one encoding (``json.dumps(obj, sort_keys=True, separators=(",",
":"))``).  :func:`decode_payload` accepts one JSON object with JSON
whitespace around it and nothing else; nesting deeper than the
interpreter's recursion limit is a violation like any other, and the
connection is closed.  Both ends of every round trip pay the codec once
per frame, so its encoder and decoder are built once, at import, and
only the C codec runs per frame.  Requests carry an ``op`` field; the
operations are

===========  =====================================================
``READ``     snapshot-read ``key`` within the open transaction
``COMMIT``   first-committer-wins commit of the buffered writes
``ABORT``    discard the open transaction
``PING``     liveness probe; returns shard generations
===========  =====================================================

A begin has no op: a transaction's first ``READ`` or ``COMMIT`` carries
it as a ``begin`` object (``label?``, ``deadline_ms?``), run first.  The
frame's outcome is the begin's: refused, nothing else in it runs;
accepted, the response adds ``txn`` (the uid).  Nor has a write:
``READ`` and ``COMMIT`` take an optional ``writes`` list of ``[key,
value]`` pairs (``null`` is not a value), recorded in order before the
op.  A write's outcome is that request's outcome; an ill-formed list is
``BAD_REQUEST`` and records none of them.

Responses are ``{"ok": true, ...}`` on success or
``{"ok": false, "error": <code>, "detail": ..., "retry_after_ms": ...,
"cause": ...}`` on failure, with the error codes of :data:`ERROR_CODES`:

* ``BAD_REQUEST`` — unparseable or ill-formed request;
* ``NO_TXN`` / ``TXN_OPEN`` — operation outside / inside a transaction;
* ``OVERLOADED`` — admission control shed the frame carrying a begin
  (structured load-shedding, never silent queueing);
* ``TIMEOUT`` — the transaction's deadline expired server-side;
* ``ABORTED`` — the transaction aborted (``cause`` names why:
  ``write-write``, ``shard-crashed``, ...; ``retry_after_ms`` carries
  the server's backoff hint);
* ``SERVER_SHUTDOWN`` — the server is draining.

The framing helpers here are shared by the server, the load-generator
client and the chaos harness, so a framing change cannot desynchronise
them.  Both ends of a store connection are :class:`FrameReceiver`
protocols: the transport reads into one buffer per connection, and a
:class:`FrameParser` takes the frames off the bytes of each read;
:func:`read_frame` applies the same limits and the same
:func:`decode_payload` to a ``StreamReader``, for the peers that are
written against streams (the chaos harness's slow loris, raw-socket
tests, perfbench's protocol replay).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

from repro.common.errors import ProtocolError

__all__ = ["MAX_FRAME", "ERROR_CODES", "OPS", "FrameParser",
           "FrameReceiver", "encode_frame", "decode_payload", "read_frame",
           "error_response", "ok_response"]

#: largest accepted frame payload, in bytes
MAX_FRAME = 1 << 20
#: bytes one read off a connection may take
RECV_BUFFER = 1 << 16

#: the request operations the server understands
OPS = ("READ", "COMMIT", "ABORT", "PING")

#: structured error codes a response may carry
ERROR_CODES = ("BAD_REQUEST", "NO_TXN", "TXN_OPEN", "OVERLOADED",
               "TIMEOUT", "ABORTED", "SERVER_SHUTDOWN")

_LEN = struct.Struct(">I")
_HEADER = _LEN.size

# The C encoder ``JSONEncoder(sort_keys=True, separators=(",", ":"))``
# builds on every ``encode`` call, built once.  The positional arguments:
# markers, default, string encoder, indent, key and item separators,
# sort_keys, skipkeys, allow_nan.  Its circular-reference marks live in
# ``_markers``, one dict for every frame: encoding plain JSON values runs
# no Python code, so two encodes never interleave on it.
_markers: dict = {}
_encoder = json.encoder.c_make_encoder(
    _markers, json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True)
_scan = json.JSONDecoder().raw_decode
#: the whitespace JSON allows around a value (``json.decoder.WHITESPACE``)
_SPACE = " \t\n\r"


def encode_frame(obj: dict) -> bytes:
    """Serialise one message as a length-prefixed JSON frame."""
    try:
        payload = "".join(_encoder(obj, 0)).encode("utf-8")
    except BaseException:
        # the encoder leaves the containers it was inside marked: cleared,
        # so the next frame is not taken for a circular reference
        _markers.clear()
        raise
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte limit")
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """One frame's payload as the JSON object it must encode."""
    try:
        text = payload.decode("utf-8")
        obj, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
        if text[end:].strip(_SPACE):
            raise ValueError(f"extra data at char {end}")
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ProtocolError(f"frame payload is not JSON: {exc}")
    except RecursionError:
        raise ProtocolError("frame payload is nested too deeply")
    if not isinstance(obj, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return obj


def _payload_length(header: bytes) -> int:
    (length,) = _LEN.unpack_from(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME})")
    return length


class FrameParser:
    """Incremental frame decoder of one connection's incoming bytes.

    The transport reads into :attr:`inbox`, and the receiver appends
    the ``nbytes`` it read to :attr:`buffer` (:meth:`feed` takes bytes
    from elsewhere), in whatever pieces; then take whole frames off with
    :meth:`next_frame` until it returns ``None``.  A violation raises
    :class:`ProtocolError` as soon as the bytes that prove it are in —
    an oversize announcement with the header, before any of the body is
    buffered — and the connection is then beyond repair: the owner
    closes it.
    """

    __slots__ = ("buffer", "inbox")

    def __init__(self) -> None:
        #: bytes fed and not yet taken off as frames
        self.buffer = bytearray()
        #: the buffer a :class:`FrameReceiver`'s transport reads into
        self.inbox = memoryview(bytearray(RECV_BUFFER))

    def __len__(self) -> int:
        """Bytes fed and not yet taken off as frames."""
        return len(self.buffer)

    def feed(self, data: bytes) -> None:
        self.buffer += data

    def next_frame(self) -> Optional[dict]:
        """The next whole frame, or ``None`` while only part of one is in."""
        buffer = self.buffer
        if len(buffer) < _HEADER:
            return None
        # the header, as :func:`_payload_length` reads it
        (length,) = _LEN.unpack_from(buffer)
        if length > MAX_FRAME:
            raise ProtocolError(
                f"peer announced a {length}-byte frame (limit {MAX_FRAME})")
        end = _HEADER + length
        if len(buffer) < end:
            return None
        payload = buffer[_HEADER:end]
        del buffer[:end]
        return decode_payload(payload)


class FrameReceiver(asyncio.BufferedProtocol):
    """The receiving half of both store endpoints.

    The transport reads into the connection's :class:`FrameParser`
    (``recv_into`` its :attr:`~FrameParser.inbox`), and the subclass's
    ``buffer_updated`` appends what it read to the parser's
    :attr:`~FrameParser.buffer` and takes the frames off.  A plain
    :class:`asyncio.Protocol` has the transport allocate a new 256 KiB
    ``bytes`` for every read instead, which costs a few microseconds or
    fresh pages per frame depending on the allocator's state
    (``docs/performance.md``, "A store process loads the store").
    """

    _frames: FrameParser

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._frames.inbox


async def read_frame(reader: asyncio.StreamReader) -> dict:
    """Read one frame off a stream; raises on EOF, oversize or junk.

    The store's own endpoints parse with :class:`FrameParser`; this is
    the same decoding for callers that hold a ``StreamReader``.
    """
    header = await reader.readexactly(_HEADER)
    return decode_payload(await reader.readexactly(_payload_length(header)))


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
