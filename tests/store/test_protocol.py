"""Wire-protocol framing tests: the server/client/chaos shared layer."""

import asyncio
import struct

import pytest

from repro.common.errors import ProtocolError
from repro.store.protocol import (ERROR_CODES, MAX_FRAME, OPS, encode_frame,
                                  error_response, ok_response, read_frame)
from repro.store.protocol import ReadGuard


def feed(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    """A StreamReader preloaded with ``data`` (call under a running loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def read_one(data: bytes, timeout=None, eof: bool = True) -> dict:
    async def runner() -> dict:
        return await read_frame(feed(data, eof=eof), timeout)

    return asyncio.run(runner())


class TestFraming:
    def test_round_trip(self):
        message = {"op": "BEGIN", "label": "t", "deadline_ms": 250}
        assert read_one(encode_frame(message)) == message

    def test_round_trip_unicode_payload(self):
        message = {"op": "WRITE", "key": "k", "value": "héllo ☃"}
        assert read_one(encode_frame(message)) == message

    def test_two_frames_back_to_back(self):
        async def runner():
            reader = feed(encode_frame({"op": "PING"})
                          + encode_frame({"op": "ABORT"}))
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second

        first, second = asyncio.run(runner())
        assert first == {"op": "PING"}
        assert second == {"op": "ABORT"}

    def test_eof_mid_frame_raises(self):
        with pytest.raises((ProtocolError, asyncio.IncompleteReadError)):
            read_one(encode_frame({"op": "PING"})[:-2])

    def test_oversize_announcement_rejected(self):
        header = struct.pack(">I", MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="limit"):
            read_one(header)

    def test_junk_payload_rejected(self):
        body = b"\xff\xfe not json"
        with pytest.raises(ProtocolError, match="not JSON"):
            read_one(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_rejected(self):
        body = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="object"):
            read_one(struct.pack(">I", len(body)) + body)

    def test_oversize_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_slow_loris_header_times_out(self):
        """A trickled header must not hold the read open past timeout."""
        with pytest.raises(ProtocolError, match="stalled"):
            read_one(b"\x00\x00", timeout=0.05, eof=False)

    def test_slow_loris_body_times_out(self):
        """The timeout covers the whole frame, not just the header."""
        partial = struct.pack(">I", 64) + b'{"op":'
        with pytest.raises(ProtocolError, match="stalled"):
            read_one(partial, timeout=0.05, eof=False)


class TestResponses:
    def test_ok_response_merges_fields(self):
        assert ok_response(value=3) == {"ok": True, "value": 3}

    def test_error_response_shape(self):
        response = error_response("ABORTED", "write-write conflict",
                                  retry_after_ms=7, cause="write-write")
        assert response == {"ok": False, "error": "ABORTED",
                            "detail": "write-write conflict",
                            "retry_after_ms": 7, "cause": "write-write"}

    def test_error_response_omits_absent_fields(self):
        assert error_response("NO_TXN") == \
            {"ok": False, "error": "NO_TXN", "detail": ""}

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ProtocolError):
            error_response("EXPLODED")

    def test_every_declared_code_encodes(self):
        for code in ERROR_CODES:
            assert error_response(code)["error"] == code

    def test_declared_ops_are_canonical(self):
        assert OPS == ("BEGIN", "READ", "WRITE", "COMMIT", "ABORT", "PING")


class TestReadGuard:
    """The per-connection deadline ``read_frame(reader, timeout)`` arms."""

    def guarded(self, scenario, timeout=0.05):
        async def runner():
            reader = asyncio.StreamReader()
            guard = ReadGuard(reader, timeout)
            try:
                return await scenario(reader, guard)
            finally:
                guard.close()

        return asyncio.run(runner())

    @pytest.mark.parametrize("partial", [
        b"\x00\x00", struct.pack(">I", 64) + b'{"op":'],
        ids=["header", "body"])
    def test_trickled_frame_is_dropped_in_time(self, partial):
        async def scenario(reader, guard):
            loop = asyncio.get_running_loop()
            reader.feed_data(partial)
            started = loop.time()
            with pytest.raises(ProtocolError, match="idle/stalled"):
                await guard.read_frame()
            assert 0.04 <= loop.time() - started < 0.5
            # the reader is failed for good, not just this read
            with pytest.raises(ProtocolError):
                await guard.read_frame()

        self.guarded(scenario)

    def test_progress_does_not_extend_the_deadline(self):
        """One byte every 20 ms never completes a frame in 50 ms."""
        async def scenario(reader, guard):
            async def trickle():
                for byte in encode_frame({"op": "PING"}):
                    reader.feed_data(bytes([byte]))
                    await asyncio.sleep(0.02)

            feeder = asyncio.ensure_future(trickle())
            with pytest.raises(ProtocolError, match="stalled"):
                await guard.read_frame()
            feeder.cancel()

        self.guarded(scenario)

    def test_time_between_reads_is_not_counted(self):
        """Disarmed while the caller serves a request: only reads count."""
        async def scenario(reader, guard):
            for _ in range(3):
                reader.feed_data(encode_frame({"op": "PING"}))
                assert await guard.read_frame() == {"op": "PING"}
                await asyncio.sleep(0.07)   # longer than the timeout
            return guard

        guard = self.guarded(scenario)
        assert guard._timer is None

    def test_one_timer_serves_many_frames(self):
        async def scenario(reader, guard):
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at
            loop.call_at = lambda *a, **kw: (timers.append(a),
                                             call_at(*a, **kw))[1]
            try:
                for _ in range(100):
                    reader.feed_data(encode_frame({"op": "PING"}))
                    await guard.read_frame()
            finally:
                del loop.call_at
            return len(timers)

        assert self.guarded(scenario, timeout=5.0) == 1

    def test_read_frame_timeout_leaves_no_timer_behind(self):
        async def runner():
            loop = asyncio.get_running_loop()
            await read_frame(feed(encode_frame({"op": "PING"})), 5.0)
            return [h for h in loop._scheduled if not h.cancelled()]

        assert asyncio.run(runner()) == []
