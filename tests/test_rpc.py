"""Tests for the one frame codec, client and listener (``repro.rpc``)
and for the three servers that sit on it: the fabric coordinator, the
asyncio serve front and the chaos proxy.

Covers the wire-format pins against the parent commit, the shared
header/payload validator (non-object frames, the size cap, the float64
tail and every way one can be malformed), a byte-level fuzz of all three
servers, the two client fixes (stale replies after a timeout, the
atomically written epoch file), the ``query --json`` edge where buffers
become lists again, and the leaf-module import contract.
"""

import asyncio
import dataclasses
import hashlib
import json
import socket
import subprocess
import sys
import threading
import time
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import rpc
from repro.analysis.catalog import build_model_catalog
from repro.jobs.fabric import Coordinator, FabricClient
from repro.jobs.fabric.coordinator import EPOCH_FILE
from repro.resilience import ChaosProxy
from repro.serve import (
    AsyncServeClient,
    CatalogStore,
    ServeClient,
    ServeError,
    ServeFront,
    SimulationBroker,
)
from repro.serve.fallback import PRODUCTION_TEMPLATE

# -- helpers ------------------------------------------------------------

def exchange(address, data: bytes, timeout: float = 5.0) -> bytes:
    """Send ``data``, half-close, and read until the server closes (a
    reset counts: it hung up with our bytes unread); fails when it does
    not close within ``timeout``."""
    chunks = []
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):  # socket.timeout = it hung
                chunks.append(chunk)
        except TimeoutError:
            raise
        except OSError:  # reset / pipe / not connected: it hung up first
            pass
    return b"".join(chunks)


def split_frames(data: bytes) -> list[dict]:
    """Decode a byte stream of whole frames (asserting it is one)."""
    out = []
    while data:
        n = rpc.frame_length(data[:4])
        out.append(rpc.decode_payload(data[4:4 + n]))
        data = data[4 + n:]
    return out


def wait_until(predicate, timeout: float = 5.0) -> bool:
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class LoopThread:
    """An asyncio loop in a background thread, recording everything that
    reaches the loop's exception handler."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.errors: list[dict] = []
        self.loop.set_exception_handler(
            lambda loop, context: self.errors.append(context))
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()

    def run(self, coro, timeout: float = 30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop) \
            .result(timeout)

    def task_count(self) -> int:
        async def count():
            return len(asyncio.all_tasks()) - 1  # minus this probe
        return self.run(count())

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture(scope="module")
def front(tmp_path_factory):
    """A live ServeFront on its own loop thread: (address, LoopThread)."""
    store = CatalogStore(tmp_path_factory.mktemp("store"))
    store.ingest_model_catalog(build_model_catalog(
        (1.0, 2.0), samples=256, duration=100.0))
    lt = LoopThread()

    async def boot():
        f = ServeFront(store)
        return f, await f.start()

    f, address = lt.run(boot())
    yield address, lt, f
    lt.run(f.stop())
    lt.close()


@pytest.fixture(scope="module")
def coordinator(tmp_path_factory):
    with Coordinator(tmp_path_factory.mktemp("coord"), lease_seconds=30.0,
                     reap_interval=60.0) as coord:
        yield coord


@pytest.fixture(scope="module")
def proxy(coordinator):
    with ChaosProxy(coordinator.address, seed=5) as p:
        yield p


@pytest.fixture
def thread_errors():
    """Exceptions that escaped any thread while the test ran."""
    seen: list = []
    old = threading.excepthook
    threading.excepthook = lambda args: seen.append(args.exc_value)
    try:
        yield seen
    finally:
        threading.excepthook = old


# -- the codec ----------------------------------------------------------

FRAME_SET = [
    {"op": "claim", "token": "0" * 32, "worker": "w0", "pid": "h!1"},
    {"ok": True, "value": {"id": "j0000-a", "n": [1, 2.5, None]},
     "token": None, "server_wall": 1700000000.25},
    {"op": "query", "mass_ratio": 2.0, "détecteur": "cé"},
    {},
    [1, 2],
]


class TestCodec:
    def test_encode_frame_bytes_pinned_to_parent(self):
        # generated at the parent commit from jobs.fabric.protocol
        blob = b"".join(rpc.encode_frame(m) for m in FRAME_SET)
        assert hashlib.sha256(blob).hexdigest() == (
            "1e9e61215ef4fe146625f79c7251cb5d"
            "d9a7e2e2b04349fdeee5ea9b4ebb971a")
        assert rpc.encode_frame(FRAME_SET[0]).hex().startswith(
            "000000537b226f70223a22636c61696d222c")

    def test_every_public_name_imports_from_where_it_did(self):
        import repro.jobs
        import repro.jobs.fabric as fabric
        import repro.jobs.fabric.protocol as protocol

        for name in ("encode_frame", "send_frame", "recv_frame",
                     "parse_address", "new_token", "ProtocolError",
                     "MAX_FRAME_BYTES"):
            assert getattr(fabric, name) is getattr(rpc, name)
        assert protocol.encode_frame is rpc.encode_frame
        assert repro.jobs.Backoff is rpc.Backoff
        assert fabric.FabricClient is rpc.Client
        assert issubclass(fabric.CoordinatorUnreachable, fabric.FabricError)
        assert issubclass(fabric.RpcRemoteError, fabric.FabricError)

    @pytest.mark.parametrize("body", [b"[1,2]", b'"x"', b"3", b"null"])
    def test_non_object_payload_rejected_by_every_reader(self, body):
        frame = len(body).to_bytes(4, "big") + body
        a, b = socket.socketpair()
        try:
            a.sendall(frame + frame)
            with pytest.raises(rpc.ProtocolError, match="not an object"):
                rpc.recv_frame(b)
            assert rpc.recv_frame_bytes(b) == frame  # raw reader: no parse
        finally:
            a.close()
            b.close()

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await rpc.read_frame_async(reader)

        with pytest.raises(rpc.ProtocolError, match="not an object"):
            asyncio.run(read())

    def test_raw_reader_enforces_the_size_cap(self):
        a, b = socket.socketpair()
        try:
            a.sendall((rpc.MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x")
            with pytest.raises(rpc.ProtocolError, match="exceeds"):
                rpc.recv_frame_bytes(b)
        finally:
            a.close()
            b.close()

    def test_async_reader_matches_blocking_contract(self):
        async def read(data: bytes):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await rpc.read_frame_async(reader)

        frame = rpc.encode_frame({"op": "x"})
        assert asyncio.run(read(frame)) == {"op": "x"}
        assert asyncio.run(read(b"")) is None  # clean EOF
        for torn in (frame[:2], frame[:-1]):
            with pytest.raises(rpc.ProtocolError):
                asyncio.run(read(torn))

    def test_parse_address_one_parser(self):
        assert rpc.parse_address("10.0.0.1:9999") == ("10.0.0.1", 9999)
        assert rpc.parse_address(("h", "1")) == ("h", 1)
        # the fabric and serve parsers used to disagree on a bare port
        assert rpc.parse_address("7777") == ("127.0.0.1", 7777)
        assert rpc.parse_address(":7777") == ("127.0.0.1", 7777)
        for bad in ("no-port", "host:", "host:http"):
            with pytest.raises(ValueError):
                rpc.parse_address(bad)


# -- the float64 tail ----------------------------------------------------

def old_encode_frame(obj) -> bytes:
    """The encoder as it was before frames could carry a tail."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return len(payload).to_bytes(4, "big") + payload


def tailed(header, tail: bytes = b"", *, hlen: int | None = None) -> bytes:
    """A tailed frame built by hand: ``header`` (an object, or raw JSON
    bytes) then ``tail``, under a header length that may lie."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    body = (len(header) if hlen is None else hlen).to_bytes(4, "big") \
        + header + tail
    return len(body).to_bytes(4, "big") + body


def ref(offset, count) -> dict:
    return {"__f64__": [offset, count]}


D = b"\0" * 8  # one double

#: every way a tail can be wrong, each a whole length-prefixed frame
BAD_TAILS = {
    "truncated tail": tailed({"a": ref(0, 3)}, 2 * D),
    "header length past the frame": tailed({"a": ref(0, 1)}, D, hlen=4096),
    "header length cuts the JSON": tailed({"a": ref(0, 1)}, D, hlen=5),
    "no room for a header length": (2).to_bytes(4, "big") + b"\0\0",
    "reference out of bounds": tailed({"a": ref(1, 2)}, 2 * D),
    "negative offset": tailed({"a": ref(-1, 1)}, D),
    "negative count": tailed({"a": ref(0, -1)}, D),
    "float offset": tailed({"a": ref(0.0, 1)}, D),
    "float count": tailed({"a": ref(0, 1.0)}, D),
    "boolean count": tailed({"a": ref(0, True)}, D),
    "overlapping": tailed({"a": ref(0, 2), "b": ref(1, 2)}, 3 * D),
    "out of order": tailed({"a": ref(1, 1), "b": ref(0, 1)}, 2 * D),
    "a gap between references": tailed({"a": ref(0, 1), "b": ref(2, 1)},
                                       3 * D),
    "unreferenced tail bytes": tailed({"a": ref(0, 1)}, 2 * D),
    "tail without any reference": tailed({"op": "ping"}, D),
    "odd byte count": tailed({"a": ref(0, 1)}, D + b"\0\0\0"),
    "reference with a sibling key": tailed(
        {"a": {"__f64__": [0, 1], "x": 1}}, D),
    "reference that is no pair": tailed({"a": {"__f64__": [0, 1, 2]}}, D),
    "reference that is no list": tailed({"a": {"__f64__": "0,1"}}, D),
    "the message itself a reference": tailed(ref(0, 1), D),
    "header not an object": tailed(b"[1,2]"),
    "header not JSON": tailed(b"\xff{}"),
}

FINITE_OR_NOT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf")]))
ARRAYS = st.lists(FINITE_OR_NOT, max_size=20).map(lambda xs: array("d", xs))
JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=8))
PLAIN = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=8)
WITH_ARRAYS = st.recursive(st.one_of(JSON_LEAF, ARRAYS), lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)), max_leaves=10)


def readers(frame: bytes) -> list:
    """``frame`` through the blocking, the raw and the asyncio reader:
    what each handed out, or the ProtocolError it raised."""
    def attempt(read):
        try:
            return read()
        except rpc.ProtocolError as exc:
            return exc

    def blocking(recv):
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            a.close()
            return recv(b)
        finally:
            b.close()

    async def stream():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await rpc.read_frame_async(reader)

    def raw():
        whole = blocking(rpc.recv_frame_bytes)
        assert whole == frame  # the raw reader: one opaque unit, unparsed
        return rpc.decode_payload(whole[4:])

    return [attempt(lambda: blocking(rpc.recv_frame)), attempt(raw),
            attempt(lambda: asyncio.run(stream()))]


def same(sent, got) -> bool:
    """Deep equality where a sent buffer must come back as a float64
    memoryview holding the same bits."""
    if isinstance(sent, array):
        return (isinstance(got, memoryview) and got.format == "d"
                and got.readonly and got.tobytes() == sent.tobytes())
    if isinstance(sent, dict):
        return (isinstance(got, dict) and list(sent) == list(got)
                and all(same(v, got[k]) for k, v in sent.items()))
    if isinstance(sent, list):
        return (isinstance(got, list) and len(sent) == len(got)
                and all(map(same, sent, got)))
    return type(sent) is type(got) and sent == got


class TestTail:
    @settings(max_examples=60, deadline=None)
    @given(msg=st.dictionaries(st.text(max_size=4), WITH_ARRAYS, max_size=4))
    def test_round_trip_is_bit_for_bit_through_every_reader(self, msg):
        frame = rpc.encode_frame(msg)
        assert rpc.frame_length(frame[:4]) == len(frame) - 4
        for got in readers(frame):
            assert same(msg, got), got

    @settings(max_examples=100, deadline=None)
    @given(msg=st.dictionaries(st.text(max_size=4), PLAIN, max_size=4))
    def test_no_buffers_means_the_old_encoders_bytes(self, msg):
        assert rpc.encode_frame(msg) == old_encode_frame(msg)

    def test_layout_header_then_aligned_little_endian_doubles(self):
        times = np.array([0.0, 0.5, -0.0, np.nan, np.inf, 5e-324])
        frame = rpc.encode_frame({"strain": {"times_s": times, "n": 6},
                                  "empty": np.empty(0), "h": times[:2]})
        body = frame[4:]
        hlen = int.from_bytes(body[:4], "big")
        assert body[0] == 0 and (4 + hlen) % 8 == 0
        assert json.loads(body[4:4 + hlen]) == {
            "strain": {"times_s": ref(0, 6), "n": 6}, "empty": ref(6, 0),
            "h": ref(6, 2)}
        assert body[4 + hlen:] == (times.astype("<f8").tobytes()
                                   + times[:2].astype("<f8").tobytes())
        got = rpc.decode_payload(body)
        wrapped = np.asarray(got["strain"]["times_s"])
        assert wrapped.dtype == np.float64 and wrapped.flags.aligned
        assert not wrapped.flags.owndata and not wrapped.flags.writeable
        assert wrapped.tobytes() == times.tobytes()
        assert len(got["empty"]) == 0
        # a decoded message is itself encodable: same bytes again
        assert rpc.encode_frame(got) == frame

    def test_a_json_only_peer_fails_closed(self):
        body = rpc.encode_frame({"a": np.arange(3.0)})[4:]
        with pytest.raises((UnicodeDecodeError, json.JSONDecodeError)):
            json.loads(body.decode("utf-8"))

    @pytest.mark.parametrize("value", [
        np.arange(4.0)[::2], np.zeros((2, 2)), np.arange(3, dtype=np.float32),
        np.arange(3), np.float32(1.0), b"bytes", {1, 2}])
    def test_only_flat_contiguous_float64_buffers_ride_the_tail(self, value):
        with pytest.raises(TypeError):
            rpc.encode_frame({"v": value})

    def test_refused_above_the_frame_cap(self):
        doubles = np.zeros(rpc.MAX_FRAME_BYTES // 8)  # header tips it over
        with pytest.raises(rpc.ProtocolError, match="exceeds"):
            rpc.encode_frame({"a": doubles})
        assert len(rpc.encode_frame({"a": doubles[:-8]})) \
            <= 4 + rpc.MAX_FRAME_BYTES

    @pytest.mark.parametrize("name", BAD_TAILS)
    def test_malformed_tail_rejected_by_every_reader(self, name):
        for got in readers(BAD_TAILS[name]):
            assert isinstance(got, rpc.ProtocolError), (name, got)

    @settings(max_examples=150, deadline=None)
    @given(refs=st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
                         max_size=4),
           tail_bytes=st.integers(0, 48))
    def test_any_reference_table_is_exact_cover_or_rejected(self, refs,
                                                            tail_bytes):
        """Random (offset, count) tables over random tails: accepted only
        when the references tile the tail in order, end to end."""
        tail = bytes(range(tail_bytes))
        frame = tailed({f"k{i}": ref(o, c) for i, (o, c) in enumerate(refs)},
                       tail)
        tiles, cursor = tail_bytes % 8 == 0, 0
        for offset, count in refs:
            tiles = tiles and offset == cursor and count >= 0
            cursor += count
        tiles = tiles and cursor * 8 == tail_bytes
        try:
            got = rpc.decode_payload(frame[4:])
        except rpc.ProtocolError:
            assert not tiles
        else:
            assert tiles
            assert b"".join(v.tobytes() for v in got.values()) == tail


def test_leaf_modules_load_no_other_repro_module():
    code = ("import json, sys, repro.rpc, repro.jsonl; print(json.dumps("
            "sorted(m for m in sys.modules if m.startswith('repro'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["repro", "repro.jsonl", "repro.rpc"]


# -- the listener base ---------------------------------------------------

class TestListener:
    def test_stop_wakes_blocked_handlers_and_joins_them(self):
        entered = threading.Event()

        class Echo(rpc.Listener):
            def on_connect(self, sock):
                entered.set()
                while (frame := rpc.recv_frame_bytes(sock)) is not None:
                    sock.sendall(frame)

        before = threading.active_count()
        server = Echo(name="echo").start()
        assert server.start() is server  # idempotent
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            rpc.send_frame(sock, {"n": 1})
            assert rpc.recv_frame(sock) == {"n": 1}
            assert entered.is_set()
            t0 = time.monotonic()
            server.stop()  # handler is blocked in recv: must be woken
            assert time.monotonic() - t0 < 4.0
            assert rpc.recv_frame(sock) is None  # we were hung up on
        finally:
            sock.close()
        assert wait_until(lambda: threading.active_count() == before)
        with pytest.raises(RuntimeError):
            server.address

    def test_handler_reading_after_stop_sees_end_of_stream(self,
                                                            thread_errors):
        """stop() shuts connections down and leaves closing to after the
        join: a handler that reaches recv only once stop() has begun
        reads a clean EOF, not EBADF from a closed descriptor."""
        entered, release = threading.Event(), threading.Event()
        got = []

        class Late(rpc.Listener):
            def on_connect(self, sock):
                entered.set()
                release.wait(5.0)
                got.append(sock.recv(1))

        server = Late(name="late").start()
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            assert entered.wait(5.0)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            assert sock.recv(1) == b""  # the server side is shut down
            time.sleep(0.2)  # stop() is joining the handler by now
            release.set()
            stopper.join(10.0)
            assert not stopper.is_alive()
        finally:
            sock.close()
        assert got == [b""]
        assert thread_errors == []


# -- malformed input against the three servers ---------------------------

def _valid(obj) -> bytes:
    return rpc.encode_frame(obj)


MALFORMED = st.one_of(
    st.binary(max_size=64),                                  # noise
    st.binary(max_size=3),                                   # torn header
    st.integers(rpc.MAX_FRAME_BYTES + 1, 2**32 - 1).map(      # oversize
        lambda n: n.to_bytes(4, "big") + b"junk"),
    st.binary(min_size=1, max_size=32).map(                  # bad UTF-8
        lambda b: (len(b) + 1).to_bytes(4, "big") + b"\xff" + b),
    st.sampled_from([[1, 2], "s", 7, None, True]).map(_valid),  # non-object
    st.integers(1, 40).map(                                  # short payload
        lambda n: (n + 5).to_bytes(4, "big") + b"x" * n),
    st.tuples(st.sampled_from([{"op": "nope"}, {"op": "hello"},
                               {"op": "ping", "token": "t"}]),
              st.binary(min_size=1, max_size=16)).map(        # trailing junk
        lambda t: _valid(t[0]) + t[1]),
    st.sampled_from(sorted(BAD_TAILS)).map(BAD_TAILS.get),    # bad tail
    st.binary(max_size=40).map(                              # noise as tail
        lambda b: tailed({"op": "ping", "x": ref(0, 2)}, b)),
    st.tuples(st.sampled_from(["hello", "ping", "nope"]),     # good tail,
              st.binary(max_size=3)).map(                     # then junk
        lambda t: _valid({"op": t[0], "token": "t",
                          "x": array("d", [1.0, 2.0])}) + t[1]),
)

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _check_replies(reply_bytes: bytes) -> None:
    """Whatever came back before the close is whole ``{ok: …}`` frames."""
    for reply in split_frames(reply_bytes):
        assert "ok" in reply


class TestMalformedFrames:
    @FUZZ
    @given(data=MALFORMED)
    def test_coordinator_closes_and_keeps_serving(self, coordinator, data,
                                                  thread_errors):
        idle = len(coordinator._threads)
        _check_replies(exchange(coordinator.address, data))
        with FabricClient(coordinator.address) as client:
            assert client.call("hello")["epoch"] == coordinator.epoch
        assert wait_until(lambda: len(coordinator._threads) == idle)
        assert thread_errors == []

    @FUZZ
    @given(data=MALFORMED)
    def test_proxy_closes_and_keeps_forwarding(self, coordinator, proxy,
                                               data, thread_errors):
        idle = len(proxy._threads), len(coordinator._threads)
        _check_replies(exchange(proxy.address, data))
        with FabricClient(proxy.address) as client:
            assert client.call("hello")["epoch"] == coordinator.epoch
        assert wait_until(lambda: (len(proxy._threads),
                                   len(coordinator._threads)) == idle)
        assert not proxy._socks
        assert thread_errors == []

    @FUZZ
    @given(data=MALFORMED)
    def test_serve_front_closes_and_keeps_serving(self, front, data):
        address, lt, _ = front
        idle = lt.task_count()
        _check_replies(exchange(address, data))

        async def ping():
            client = AsyncServeClient(address)
            try:
                return await client.request({"op": "ping"})
            finally:
                await client.close()

        assert lt.run(ping())["ok"] is True
        assert wait_until(lambda: lt.task_count() == idle)
        assert lt.errors == []

    def test_proxy_refuses_to_buffer_an_oversize_frame(self, proxy):
        # a garbage header used to make the proxy buffer up to 4 GiB
        with socket.create_connection(proxy.address, timeout=5.0) as sock:
            sock.sendall((2**32 - 1).to_bytes(4, "big") + b"x" * 1024)
            try:  # hung up on without our EOF (socket.timeout = it waits)
                assert sock.recv(16) == b""
            except ConnectionResetError:
                pass


class TestNonObjectFrames:
    """A well-formed frame holding a JSON list used to kill the
    coordinator's connection thread with AttributeError and leave an
    unretrieved task exception in the serve front."""

    def test_coordinator_thread_does_not_die(self, coordinator,
                                             thread_errors):
        assert exchange(coordinator.address, _valid([1, 2])) == b""
        for t in threading.enumerate():
            if t.name == "fabric-conn":
                t.join(5.0)
        assert thread_errors == []

    def test_serve_front_task_does_not_raise(self, front):
        address, lt, _ = front
        assert exchange(address, _valid([1, 2])) == b""
        assert wait_until(lambda: lt.task_count() == 0)
        assert lt.errors == []


# -- the blocking serve client -------------------------------------------

class TestServeClient:
    def test_ping_query_stats(self, front):
        address, _, _ = front
        with ServeClient(address) as client:
            pong = client.ping()
            assert pong["ok"] and pong["op"] == "ping" and pong["token"]
            hit = client.query(2.0, max_samples=8)
            assert hit["outcome"] == "exact" and len(hit["times"]) <= 8
            for name in ("times", "h_re", "h_im"):  # raw doubles, no lists
                assert isinstance(hit[name], memoryview)
                assert hit[name].format == "d"
            miss = client.query(40.0)
            assert miss["outcome"] == "miss" and miss["ticket"] is None
            stats = client.stats()
            assert stats["store"]["entries"] == 2
            assert stats["hot_set"]["entries"] >= 1
            assert client.ingest()["ingested"] == 0

    def test_reply_arrays_equal_the_stores_bit_for_bit(self, front):
        address, _, f = front
        arrays = f.store.load_arrays(f.store.query_plan(2.0)["key"])
        with ServeClient(address) as client:
            full = client.query(2.0, detector="ce")
            some = client.query(2.0, max_samples=100)
        assert np.asarray(full["times"]).tobytes() == \
            arrays["times"].tobytes()
        assert np.asarray(full["h_re"]).tobytes() == \
            arrays["h22"].real.tobytes()
        assert np.asarray(full["h_im"]).tobytes() == \
            arrays["h22"].imag.tobytes()
        assert np.array_equal(some["h_im"], arrays["h22"].imag[::3])
        strain = full["strain"]
        assert len(strain["times_s"]) == len(strain["strain"]) == 256
        assert np.all(np.isfinite(strain["strain"]))

    def test_query_json_prints_lists(self, front, capsys):
        """``query --json`` is where a reply becomes text again: the
        float64 buffers must print as JSON lists."""
        from repro.serve.cli import main

        (host, port), _, _ = front
        assert main(["query", f"{host}:{port}", "-q", "2", "--json",
                     "--max-samples", "8", "--detector", "aplus"]) == 0
        resp = json.loads(capsys.readouterr().out)
        assert resp["outcome"] == "exact"
        lengths = {len(resp[k]) for k in ("times", "h_re", "h_im")}
        assert lengths == {len(resp["strain"]["times_s"]),
                           len(resp["strain"]["strain"])} == {8}
        assert all(isinstance(x, float) for x in resp["times"])

    def test_ok_false_raises_serve_error(self, front):
        address, _, _ = front
        with ServeClient(f"{address[0]}:{address[1]}") as client:
            with pytest.raises(ServeError, match="unknown detector"):
                client.query(1.0, detector="nope")
            with pytest.raises(ServeError, match="no simulation broker"):
                client.ticket("t-0")
            raw = client.request({"op": "made-up"})  # request(): as is
            assert raw["ok"] is False and "unknown op" in raw["error"]
            assert isinstance(ServeError("x"), rpc.RpcError)

    def test_reconnects_after_the_server_drops_the_socket(self, front):
        address, _, _ = front
        with ServeClient(address) as client:
            assert client.shutdown()["ok"]  # the front hangs up after it
            first = client._sock
            assert client.ping()["ok"]  # dead socket: re-dialled once
            assert client._sock is not first

    def test_ticket_round_trip(self, front, tmp_path):
        _, lt, f = front
        template = dataclasses.replace(
            PRODUCTION_TEMPLATE, domain_half_width=4.0, base_level=1,
            max_level=2, t_end=2.0, extraction_radii=[2.0], extract_every=2)

        async def boot():
            g = ServeFront(f.store, broker=SimulationBroker(
                tmp_path / "campaign", template=template))
            return g, await g.start()

        g, address = lt.run(boot())
        try:
            with ServeClient(address) as client:
                ticket = client.query(40.0)["ticket"]
                status = client.ticket(ticket["id"])
                assert status["known"] and status["state"] == "pending"
                assert client.ticket("t-unknown")["known"] is False
        finally:
            lt.run(g.stop())

    def test_unreachable_within_the_timeout(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()  # nothing listens here
        t0 = time.monotonic()
        with pytest.raises(rpc.Unreachable):
            ServeClient(address, timeout=0.3).ping()
        assert time.monotonic() - t0 < 3.0


# -- the two client fixes -------------------------------------------------

class TestAsyncClientAfterTimeout:
    def test_late_reply_never_answers_the_next_request(self, front):
        """timeout 0.1 s, a 0.3 s ``stats``, then ``ping``: the ping
        used to be answered with the stats body."""
        address, lt, f = front
        real_handle = f.handle

        async def slow_handle(req):
            if req.get("op") == "stats":
                await asyncio.sleep(0.3)
            return await real_handle(req)

        async def scenario():
            client = AsyncServeClient(address, timeout=0.1)
            f.handle = slow_handle
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.request({"op": "stats"})
                assert client._writer is None  # closed, not reused
                client.timeout = 5.0
                return await client.request({"op": "ping"})
            finally:
                await client.close()
                await asyncio.sleep(0.35)  # let the slow handler finish
                f.handle = real_handle

        reply = lt.run(scenario())
        assert reply["op"] == "ping" and "store" not in reply

    def test_reply_with_a_foreign_token_is_discarded(self):
        async def scenario():
            async def serve(reader, writer):
                req = await rpc.read_frame_async(reader)
                await rpc.write_frame_async(
                    writer, {"ok": True, "op": "stale", "token": "old"})
                await rpc.write_frame_async(
                    writer, {"ok": True, "op": "fresh",
                             "token": req["token"]})
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            client = AsyncServeClient(server.sockets[0].getsockname()[:2])
            try:
                return await client.request({"op": "ping"})
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario())["op"] == "fresh"


class TestEpochFile:
    def test_written_through_temp_and_rename(self, tmp_path, monkeypatch):
        import os

        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            replaced.append((str(src), str(dst))), real_replace(src, dst)))
        assert Coordinator(tmp_path).epoch == 1
        assert Coordinator(tmp_path).epoch == 2
        path = tmp_path / EPOCH_FILE
        assert replaced[-1][1] == str(path)
        assert json.loads(path.read_text()) == {"epoch": 2}
        assert [p.name for p in tmp_path.iterdir()
                if p.name.startswith("fabric-epoch")] == [EPOCH_FILE]

    def test_crash_mid_write_keeps_the_old_epoch(self, tmp_path,
                                                 monkeypatch):
        import os

        assert Coordinator(tmp_path).epoch == 1

        def power_cut(fd):
            raise OSError("power cut before the epoch reached the disk")

        monkeypatch.setattr(os, "fsync", power_cut)
        with pytest.raises(OSError):
            Coordinator(tmp_path)
        monkeypatch.undo()
        # the torn write never replaced the file: no epoch is repeated
        assert json.loads((tmp_path / EPOCH_FILE).read_text()) == \
            {"epoch": 1}
        assert Coordinator(tmp_path).epoch == 2
