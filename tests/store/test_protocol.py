"""Wire-protocol framing tests: the server/client/chaos shared layer."""

import asyncio
import struct

import pytest

from repro.common.errors import ProtocolError
from repro.store.protocol import (ERROR_CODES, MAX_FRAME, OPS, FrameParser,
                                  encode_frame, error_response, ok_response,
                                  read_frame)
from repro.store.server import StoreServer
from repro.store.session import StoreConfig


def feed(data: bytes) -> asyncio.StreamReader:
    """A StreamReader preloaded with ``data`` (call under a running loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_one(data: bytes) -> dict:
    async def runner() -> dict:
        return await read_frame(feed(data))

    return asyncio.run(runner())


def parse_one(data: bytes) -> dict:
    parser = FrameParser()
    parser.feed(data)
    return parser.next_frame()


class TestFraming:
    def test_round_trip(self):
        message = {"op": "BEGIN", "label": "t", "deadline_ms": 250}
        assert read_one(encode_frame(message)) == message

    def test_round_trip_unicode_payload(self):
        message = {"op": "COMMIT", "writes": [["k", "héllo ☃"]]}
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


class TestFrameParser:
    FRAMES = [{"op": "READ", "key": "k", "writes": [["k", "héllo ☃"]]},
              {"op": "PING"}]

    def test_every_split_point_of_two_frames(self):
        data = b"".join(encode_frame(frame) for frame in self.FRAMES)
        for cut in range(len(data) + 1):
            parser, frames = FrameParser(), []
            for piece in (data[:cut], data[cut:]):
                parser.feed(piece)
                while True:
                    frame = parser.next_frame()
                    if frame is None:
                        break
                    frames.append(frame)
            assert frames == self.FRAMES, cut
            assert len(parser) == 0

    def test_byte_at_a_time(self):
        parser, frames = FrameParser(), []
        for byte in encode_frame(self.FRAMES[0]):
            assert parser.next_frame() is None
            parser.feed(bytes([byte]))
        assert parser.next_frame() == self.FRAMES[0]
        assert parser.next_frame() is None

    @pytest.mark.parametrize("body, complaint", [
        (b"{not json", "not JSON"),
        (b'{"k":"\xff\xfe"}', "not JSON"),
        (b"[1,2,3]", "object"),
        (b"7", "object")],
        ids=["junk", "invalid-utf8", "array", "number"])
    def test_bad_payloads_are_refused(self, body, complaint):
        with pytest.raises(ProtocolError, match=complaint):
            parse_one(struct.pack(">I", len(body)) + body)

    def test_oversize_is_refused_on_the_header_alone(self):
        parser = FrameParser()
        parser.feed(struct.pack(">I", MAX_FRAME + 1)[:3])
        assert parser.next_frame() is None
        parser.feed(struct.pack(">I", MAX_FRAME + 1)[3:])
        with pytest.raises(ProtocolError, match="limit"):
            parser.next_frame()

    def test_largest_frame_is_accepted(self):
        body = b'{"v":"' + b"x" * (MAX_FRAME - 8) + b'"}'
        assert len(body) == MAX_FRAME
        frame = parse_one(struct.pack(">I", len(body)) + body)
        assert len(frame["v"]) == MAX_FRAME - 8


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
        # a begin and a write are fields of READ and COMMIT (``begin``,
        # ``writes``), not ops
        assert OPS == ("READ", "COMMIT", "ABORT", "PING")


def connected(scenario, timeout_ms=50):
    """Run ``scenario(server, reader, writer)`` on a fresh raw connection."""
    async def runner():
        server = StoreServer(StoreConfig(shards=2,
                                         idle_timeout_ms=timeout_ms))
        port = await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await scenario(server, reader, writer)
        finally:
            writer.close()
            await server.stop()

    return asyncio.run(runner())


async def hung_up(reader) -> bool:
    """Does the server close the connection (within 2 s)?"""
    return await asyncio.wait_for(reader.read(), 2.0) == b""


class TestFramingViolations:
    @pytest.mark.parametrize("bad", [
        struct.pack(">I", MAX_FRAME + 1),
        struct.pack(">I", 9) + b"{not json",
        struct.pack(">I", 7) + b"[1,2,3]",
        struct.pack(">I", 10) + b'{"k":"\xff"}'],
        ids=["oversize", "junk", "non-object", "invalid-utf8"])
    def test_violation_closes_the_connection(self, bad):
        async def scenario(server, reader, writer):
            writer.write(encode_frame({"op": "READ", "key": "k",
                                       "begin": {}}) + bad
                         + encode_frame({"op": "PING"}))
            assert (await read_frame(reader))["ok"]
            assert await hung_up(reader)     # and the PING went unanswered
            assert server.sessions == {} and server.open_txns == {}
            assert server.metrics.counter("store_txn_aborts_total",
                                          cause="disconnect") == 1

        connected(scenario, timeout_ms=5000)


class TestReadGuard:
    """The read deadline of a server connection, over a raw socket: the
    peer has ``idle_timeout_ms`` from when the server starts waiting for
    a frame to deliver all of it."""

    @pytest.mark.parametrize("partial", [
        b"\x00\x00", struct.pack(">I", 64) + b'{"op":'],
        ids=["header", "body"])
    def test_trickled_frame_is_dropped_in_time(self, partial):
        async def scenario(server, reader, writer):
            loop = asyncio.get_running_loop()
            started = loop.time()
            writer.write(encode_frame({"op": "READ", "key": "k",
                                       "begin": {}}) + partial)
            assert (await read_frame(reader))["ok"]
            assert await hung_up(reader)
            assert 0.04 <= loop.time() - started < 0.5
            # and the open transaction went with the session
            assert server.sessions == {} and server.open_txns == {}
            assert server.metrics.counter("store_txn_aborts_total",
                                          cause="disconnect") == 1

        connected(scenario)

    def test_progress_does_not_extend_the_deadline(self):
        """One byte every 20 ms never completes a frame in 50 ms."""
        async def scenario(server, reader, writer):
            loop = asyncio.get_running_loop()
            started = loop.time()

            async def trickle():
                for byte in encode_frame({"op": "PING"}):
                    writer.write(bytes([byte]))
                    await asyncio.sleep(0.02)

            feeder = asyncio.ensure_future(trickle())
            assert await hung_up(reader)
            assert loop.time() - started < 0.2  # 16 bytes would take 0.3
            feeder.cancel()

        connected(scenario)

    def test_time_between_reads_is_not_counted(self):
        """Each wait for a frame gets the whole budget: 100 ms of silence
        before every request, half the 200 ms budget, adds up to twice
        it."""
        async def scenario(server, reader, writer):
            for _ in range(4):
                await asyncio.sleep(0.1)
                writer.write(encode_frame({"op": "PING"}))
                assert (await read_frame(reader))["pong"]
            assert len(server.sessions) == 1

        connected(scenario, timeout_ms=200)

    def test_one_timer_serves_many_frames(self):
        async def scenario(server, reader, writer):
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at
            loop.call_at = lambda *a, **kw: (timers.append(a),
                                             call_at(*a, **kw))[1]
            try:
                for _ in range(100):
                    writer.write(encode_frame({"op": "PING"}))
                    assert (await read_frame(reader))["pong"]
            finally:
                del loop.call_at
            return len(timers)

        # the connection's one timer was armed before the count began
        assert connected(scenario, timeout_ms=5000) == 0

    def test_closed_connection_leaves_no_timer_behind(self):
        async def scenario(server, reader, writer):
            loop = asyncio.get_running_loop()
            writer.write(encode_frame({"op": "PING"}))
            assert (await read_frame(reader))["pong"]
            writer.close()
            while server.sessions:
                await asyncio.sleep(0.005)
            return [h for h in loop._scheduled if not h.cancelled()
                    and "_check_deadline" in repr(h)]

        assert connected(scenario, timeout_ms=5000) == []
