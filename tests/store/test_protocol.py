"""Wire-protocol framing tests: the server/client/chaos shared layer."""

import asyncio
import json
import logging
import struct
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.store.protocol import (ERROR_CODES, MAX_FRAME, OPS, FrameParser,
                                  decode_payload, encode_frame,
                                  error_response, ok_response, read_frame)
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
        (b"7", "object"),
        (b"[" * 200000, "nested too deeply")],
        ids=["junk", "invalid-utf8", "array", "number", "deep"])
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


# -- the codec against the stdlib reference

def canonical(obj: object) -> bytes:
    """The reference encoding: what ``encode_frame`` must put on the wire."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _weave(parts) -> str:
    """Alternate the characters of two strings, cut to eight."""
    return "".join(a + b for a, b in zip_longest(*parts, fillvalue=""))[:8]


#: any string of up to eight code points, lone surrogates included, with
#: the four boundary surrogates woven in often.  Two whole-string draws
#: per value: an alphabet that is a union of strategies draws each
#: character on its own, which doubled the time of the tests below.
_text = st.tuples(
    st.text(alphabet=st.characters(exclude_categories=()), max_size=8),
    st.text(alphabet=st.sampled_from("\ud800\udbff\udc00\udfff"),
            max_size=8)).map(_weave)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2 ** 64, max_value=2 ** 200).map(
                lambda n: n if n % 2 else -n)
            | st.floats() | st.sampled_from([float("nan"), float("inf"),
                                             float("-inf")])
            | _text)
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=24)
_objects = st.dictionaries(_text, _values, max_size=6)
#: JSON's whitespace and some that is not JSON's
_padding = st.text(alphabet=" \t\n\r\x0b\x0c\xa0\u2028\ufeff", max_size=3)


@st.composite
def payloads(draw) -> bytes:
    """A frame payload: mostly an object, well-formed or nearly so."""
    value = draw(_objects | _values)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([(",", ":"),
                                                       (", ", ": ")])))
    text = draw(_padding) + text + draw(_padding)
    mutation = draw(st.sampled_from(["none", "bom", "trailing", "truncated",
                                     "junk-byte"]))
    if mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "trailing":
        text += draw(st.text(max_size=4))
    # a lone surrogate left raw is not UTF-8: the payload is refused
    data = text.encode("utf-8", "surrogatepass")
    if mutation == "truncated":
        data = data[:draw(st.integers(0, max(0, len(data) - 1)))]
    elif mutation == "junk-byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
    return data


class TestCodecAgainstStdlib:
    """``encode_frame`` and ``decode_payload`` build their codec once; the
    stdlib's per-call ``json.dumps``/``json.loads`` stay the reference."""

    @settings(max_examples=300, deadline=None)
    @given(_objects)
    def test_encode_is_the_canonical_dumps(self, obj):
        frame = encode_frame(obj)
        assert frame[4:] == canonical(obj)
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4

    @settings(max_examples=500, deadline=None)
    @given(payloads())
    def test_decode_accepts_what_loads_accepts(self, payload):
        try:
            expected = json.loads(payload.decode("utf-8"))
        except ValueError:
            expected = None
        if not isinstance(expected, dict):
            with pytest.raises(ProtocolError):
                decode_payload(payload)
        else:  # NaN != NaN: compared re-encoded
            assert canonical(decode_payload(payload)) == canonical(expected)


class TestEncoderState:
    """A frame that fails to encode leaves nothing behind for the next."""

    ORDINARY = {"op": "READ", "key": "k", "writes": [["k", {"a": [1]}]]}

    def test_unserialisable_value_then_an_ordinary_frame(self):
        first = encode_frame(self.ORDINARY)
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_frame({"v": {1, 2}})
        assert encode_frame(self.ORDINARY) == first
        writes = [["k", 1], {1, 2}]
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_frame({"op": "COMMIT", "writes": writes})
        assert encode_frame(self.ORDINARY) == first
        # the list the failed encode was inside, now well-formed
        writes.pop()
        assert encode_frame({"op": "COMMIT", "writes": writes})[4:] == \
            canonical({"op": "COMMIT", "writes": writes})

    def test_circular_reference_then_an_ordinary_frame(self):
        first = encode_frame(self.ORDINARY)
        loop = {"op": "PING"}
        loop["self"] = loop
        with pytest.raises(ValueError, match="Circular reference detected"):
            encode_frame(loop)
        assert encode_frame(self.ORDINARY) == first
        del loop["self"]
        assert encode_frame(loop)[4:] == b'{"op":"PING"}'


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
        struct.pack(">I", 10) + b'{"k":"\xff"}',
        struct.pack(">I", 200000) + b"[" * 200000],
        ids=["oversize", "junk", "non-object", "invalid-utf8", "deep"])
    def test_violation_closes_the_connection(self, bad, caplog):
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
        # closed by the server, not by asyncio after buffer_updated raised
        assert not [record for record in caplog.records
                    if record.name == "asyncio"
                    and record.levelno >= logging.ERROR]


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
