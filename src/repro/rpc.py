"""One way to move a frame: the wire format, the blocking client and the
threaded listener every socket in the repo is built from.

One frame is a 4-byte big-endian payload length followed by that many
payload bytes.  A message without arrays is UTF-8 JSON holding one
*object*, which any language or a ten-line netcat script can speak.  A
message holding float64 arrays (any value, top-level or nested, that
exports a 1-D C-contiguous ``"d"`` buffer) travels as a header and a
tail inside the same payload::

    4-byte big-endian header length | JSON object, space-padded to an
    8-byte boundary | the arrays' doubles, little-endian, back to back

with each array spelt ``{"__f64__": [offset, count]}`` in the header,
counted in doubles from the start of the tail.  The first payload byte
tells the two apart (``{`` against the zero high byte of a length below
:data:`MAX_FRAME_BYTES`), so a JSON-only peer handed a tailed frame
fails closed with :class:`ProtocolError`.  Nothing is handed out before
the whole frame checks; arrays come back as read-only ``memoryview``
objects of format ``"d"`` over the received bytes (``np.asarray`` wraps
one without a copy).  To everything that does not parse it a frame is
still one opaque unit: a partial read is detectable (the stream dies
mid-frame, never mid-field), one size cap covers header and tail, and
the chaos proxy can drop/duplicate/delay *whole messages*.

A stdlib-only leaf — it imports nothing from :mod:`repro` — so the
campaign fabric, the catalog front and the chaos proxy all sit on it
without importing each other.  The asyncio serve loop is deliberately
*not* here: it coalesces futures on an event loop while the coordinator
blocks on a flock'd journal per request, and a shared loop would branch
on its caller.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import socket
import struct
import sys
import threading
import time

#: frames above this are a protocol violation, not a big message
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")
#: the header's stand-in for an array: ``{_REF: [offset, count]}``
_REF = "__f64__"


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a well-formed frame."""


class RpcError(RuntimeError):
    """Base class of client-side RPC failures."""


class Unreachable(RpcError):
    """Every attempt within the deadline failed to get a reply."""


class RemoteError(RpcError):
    """The server answered with a definitive error (no retry)."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


def new_token() -> str:
    """A fresh idempotency token (128 random bits, hex)."""
    return os.urandom(16).hex()


def parse_address(spec) -> tuple[str, int]:
    """``"host:port"``, a bare ``"port"`` (loopback) or an (host, port)
    pair → (host, port)."""
    if isinstance(spec, (tuple, list)):
        return str(spec[0]), int(spec[1])
    host, _, port = str(spec).rpartition(":")
    if not port.isdigit():
        raise ValueError(f"expected host:port, got {spec!r}")
    return host or "127.0.0.1", int(port)


class Backoff:
    """Bounded exponential backoff with full jitter::

        delay(k) = uniform(0, min(cap, base * factor**k))

    which decorrelates retries across many clients — idle workers
    polling one shared filesystem or coordinator spread out instead of
    thundering in lockstep — while ``cap`` bounds the reaction latency
    once work appears.  One policy for the RPC client, the worker idle
    loop and the degraded-mode re-attach probe.  ``seed`` makes the
    jitter reproducible (the chaos tests pin it).
    """

    def __init__(self, base: float = 0.05, *, factor: float = 2.0,
                 cap: float = 2.0, seed: int | None = None):
        if base <= 0 or factor < 1.0 or cap < base:
            raise ValueError("need base > 0, factor >= 1, cap >= base")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.attempt = 0
        self._rng = random.Random(seed)

    def peek_ceiling(self) -> float:
        """The current attempt's delay ceiling (no jitter, no advance)."""
        return min(self.cap, self.base * self.factor ** self.attempt)

    def next(self) -> float:
        """The next jittered delay in seconds; advances the schedule."""
        delay = self._rng.uniform(0.0, self.peek_ceiling())
        self.attempt += 1
        return delay

    def sleep(self) -> float:
        """Sleep the next jittered delay; returns the delay slept."""
        delay = self.next()
        if delay > 0:
            time.sleep(delay)
        return delay

    def reset(self) -> None:
        """Re-arm the schedule (call after a successful attempt)."""
        self.attempt = 0


# -- the frame codec ------------------------------------------------------

def _little_endian_host() -> None:
    """The tail is the doubles' memory as it is: little-endian hosts."""
    if sys.byteorder != "little":
        raise ProtocolError("float64 tails need a little-endian host")


def encode_frame(obj) -> bytes:
    """Serialise one message to its on-wire bytes."""
    tail: list[memoryview] = []
    doubles = 0

    def reference(value) -> dict:
        """``json.dumps(default=)``: move a float64 buffer to the tail."""
        nonlocal doubles
        view = memoryview(value)  # TypeError, as json raises, if it is none
        if view.format != "d" or view.ndim != 1 or not view.c_contiguous:
            raise TypeError(f"{type(value).__name__} is neither JSON nor a "
                            "1-D C-contiguous float64 buffer")
        tail.append(view)
        doubles += len(view)
        return {_REF: [doubles - len(view), len(view)]}

    payload = json.dumps(obj, separators=(",", ":"),
                         default=reference).encode("utf-8")
    if tail:
        _little_endian_host()
        pad = b" " * (-(_LEN.size + len(payload)) % 8)  # aligns the tail
        payload = b"".join([_LEN.pack(len(payload) + len(pad)), payload, pad,
                            *tail])
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    return _LEN.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Payload length announced by a 4-byte header (size-capped)."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds "
                            f"{MAX_FRAME_BYTES}")
    return length


def _load_object(text: bytes, object_hook=None) -> dict:
    try:
        msg = json.loads(text.decode("utf-8"), object_hook=object_hook)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"frame payload is a JSON "
                            f"{type(msg).__name__}, not an object")
    return msg


def decode_payload(payload: bytes) -> dict:
    """The message a frame body holds; anything but a UTF-8 JSON
    *object*, alone or as the header of a well-formed tail, is a
    protocol violation."""
    if payload[:1] != b"\0":  # JSON; a header length (< 2**24) starts with 0
        return _load_object(payload)
    _little_endian_host()
    start = _LEN.size + int.from_bytes(payload[:_LEN.size], "big")
    if not _LEN.size <= start <= len(payload) or (len(payload) - start) % 8:
        raise ProtocolError(f"header length {start - _LEN.size} past the "
                            f"{len(payload)}-byte frame, or a tail that is "
                            "not whole doubles")
    tail = memoryview(payload)[start:].cast("d")
    cursor = 0

    def resolve(obj: dict):
        """``object_hook``: a reference becomes its slice of the tail,
        which the references must tile in order, end to end."""
        nonlocal cursor
        if _REF not in obj:
            return obj
        ref = obj[_REF]
        if (len(obj) != 1 or type(ref) is not list
                or [type(x) for x in ref] != [int, int] or ref[0] != cursor
                or not 0 <= ref[1] <= len(tail) - cursor):
            raise ProtocolError(f"bad array reference {obj!r} at double "
                                f"{cursor} of {len(tail)}")
        cursor += ref[1]
        return tail[ref[0]:cursor]

    msg = _load_object(payload[_LEN.size:start], resolve)
    if cursor != len(tail):
        raise ProtocolError(f"{len(tail) - cursor} doubles of the tail are "
                            "covered by no reference")
    return msg


def read_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or None on clean EOF at a frame
    boundary.  EOF *inside* a frame raises :class:`ProtocolError`;
    socket timeouts propagate as :class:`socket.timeout`."""
    chunks, got = [], 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame "
                                f"({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, obj) -> None:
    """Write one message as a frame (blocking, honours socket timeout)."""
    sock.sendall(encode_frame(obj))


def recv_frame_bytes(sock: socket.socket) -> bytes | None:
    """Read one whole frame as its on-wire bytes (header + payload,
    length-checked, body not parsed), or None on clean EOF between
    frames — what a proxy forwards."""
    header = read_exact(sock, _LEN.size)
    if header is None:
        return None
    payload = read_exact(sock, frame_length(header))
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    return header + payload


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one message, or None on clean EOF between frames."""
    raw = recv_frame_bytes(sock)
    return None if raw is None else decode_payload(raw[_LEN.size:])


async def read_frame_async(reader: asyncio.StreamReader) -> dict | None:
    """Asyncio twin of :func:`recv_frame`: one message, None on clean
    EOF between frames, :class:`ProtocolError` on EOF inside one."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)}/"
            f"{_LEN.size} bytes)") from exc
    try:
        payload = await reader.readexactly(frame_length(header))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed between header and payload") \
            from exc
    return decode_payload(payload)


async def write_frame_async(writer: asyncio.StreamWriter, obj) -> None:
    """Write one message as a frame and drain the transport."""
    writer.write(encode_frame(obj))
    await writer.drain()


def _close(sock: socket.socket) -> None:
    """Wake any thread blocked on ``sock``, then close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# -- the blocking client --------------------------------------------------

class Client:
    """One connection to a server, retried transparently.

    Every request gets a per-attempt socket deadline (``rpc_timeout``)
    and an overall ``deadline`` (then :class:`Unreachable`); full-jitter
    backoff between attempts, so a server back from a crash is not met
    by a retry stampede; the caller's idempotency ``token`` reused
    verbatim across retries, resends flagged ``retry: true``; and a
    reconnect after any failure — closing the connection kills a stale
    reply still in flight on it, and the echoed token is checked besides.

    ``metrics`` (optional, a :class:`repro.telemetry.MetricsRegistry`)
    receives ``rpc_retries{op}``, ``rpc_latency_seconds{op}`` and the
    ``rpc_clock_offset_seconds`` gauge.
    """

    def __init__(self, address, *, rpc_timeout: float = 2.0,
                 deadline: float = 15.0, backoff: Backoff | None = None,
                 metrics=None):
        self.address = parse_address(address)
        self.rpc_timeout = float(rpc_timeout)
        self.deadline = float(deadline)
        self.backoff = backoff or Backoff(base=0.02, cap=1.0)
        self.metrics = metrics
        self._sock: socket.socket | None = None
        # a heartbeat thread may share this client with a worker loop;
        # one request owns the connection at a time
        self._lock = threading.RLock()
        #: estimated server_wall − local_wall [s], from the
        #: ``server_wall`` echo replies may carry; the minimum-RTT
        #: sample wins (tightest bound on the true offset)
        self.clock_offset = 0.0
        self._offset_rtt = math.inf

    def close(self) -> None:
        """Drop the connection (next request reconnects)."""
        if self._sock is not None:
            _close(self._sock)
            self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, msg: dict, *, deadline: float | None = None) -> dict:
        """One logical round trip: ``msg`` is resent until a reply
        echoing its ``token`` arrives (returned as is, ``ok`` or not)
        or the deadline passes (:class:`Unreachable`)."""
        overall = self.deadline if deadline is None else float(deadline)
        op = msg.get("op")
        with self._lock:
            give_up = time.monotonic() + overall
            request = dict(msg)
            self.backoff.reset()
            attempt = 0
            last_exc: Exception | None = None
            while True:
                budget = give_up - time.monotonic()
                if attempt > 0 and budget <= 0:
                    break
                t0 = time.perf_counter()
                wall_t0 = time.time()
                try:
                    reply = self._attempt(request, max(0.05, min(
                        self.rpc_timeout,
                        budget if attempt else self.rpc_timeout,
                    )))
                except (OSError, ProtocolError) as exc:
                    last_exc = exc
                    self.close()
                    if self.metrics is not None:
                        self.metrics.counter("rpc_retries", op=op).inc()
                    # the first attempt may have committed server-side:
                    # flag the resend so dedup paths (e.g. the cross-
                    # shard claim-token scan) run only when needed
                    request["retry"] = True
                    attempt += 1
                    delay = self.backoff.next()
                    if time.monotonic() + delay >= give_up:
                        break
                    time.sleep(delay)
                    continue
                elapsed = time.perf_counter() - t0
                self._observe_offset(reply, wall_t0, time.time(), elapsed)
                if self.metrics is not None:
                    self.metrics.histogram("rpc_latency_seconds", op=op) \
                        .observe(elapsed)
                return reply
        raise Unreachable(
            f"{op} to {self.address[0]}:{self.address[1]} failed after "
            f"{attempt} attempts in {overall:.1f}s: {last_exc!r}"
        )

    def call(self, op: str, *, token: str | None = None,
             deadline: float | None = None, **args):
        """:meth:`request` for ``{ok, value}`` servers: returns the
        reply's ``value`` or raises :class:`RemoteError`.  Mutating ops
        should pass a ``token`` minted once, before the first attempt
        (:func:`new_token`)."""
        reply = self.request({"op": op, "token": token, **args},
                             deadline=deadline)
        if reply.get("ok"):
            return reply.get("value")
        raise RemoteError(reply.get("kind", "error"),
                          reply.get("error", ""))

    def _observe_offset(self, reply: dict, wall_t0: float,
                        wall_t1: float, rtt: float) -> None:
        """Fold one ``server_wall`` echo into the clock-offset estimate:
        offset = server_wall − midpoint(send, receive), kept from the
        lowest-RTT exchange seen (NTP's classic bound — the shorter the
        round trip, the less room for asymmetry error)."""
        server_wall = reply.get("server_wall")
        if server_wall is None:
            return
        if rtt <= self._offset_rtt:
            self._offset_rtt = rtt
            self.clock_offset = float(server_wall) - 0.5 * (wall_t0
                                                            + wall_t1)
            if self.metrics is not None:
                self.metrics.gauge("rpc_clock_offset_seconds") \
                    .set(self.clock_offset)

    def _attempt(self, request: dict, timeout: float) -> dict:
        if self._sock is None:
            self._sock = socket.create_connection(self.address,
                                                  timeout=timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock = self._sock
        sock.settimeout(timeout)
        send_frame(sock, request)
        while True:
            reply = recv_frame(sock)
            if reply is None:
                raise ProtocolError("connection closed awaiting reply")
            if reply.get("token") == request.get("token"):
                return reply
            # else: stale reply to an abandoned earlier request


# -- the threaded listener ------------------------------------------------

class Listener:
    """A threaded TCP listener: :meth:`start` binds (``SO_REUSEADDR``)
    and accepts in a daemon thread, every connection runs
    :meth:`on_connect` in its own thread, :meth:`stop` closes the
    listener and every tracked socket and joins the threads.

    Subclasses override :meth:`on_connect`; a connection handler that
    opens further sockets registers them with :meth:`track` so
    :meth:`close_connections` can sever them too.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 name: str = "rpc"):
        self._host, self._port, self._name = host, int(port), name
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._mutex = threading.Lock()  # guards _socks and _threads
        self._socks: set[socket.socket] = set()
        self._threads: set[threading.Thread] = set()

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) being listened on."""
        if self._listener is None:
            raise RuntimeError(f"{self._name} listener is not started")
        return self._listener.getsockname()[:2]

    def start(self):
        """Bind and start accepting.  Idempotent once started."""
        if self._listener is not None:
            return self
        self._stop.clear()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(64)
        sock.settimeout(0.2)
        self._listener = sock
        self.spawn(self._accept_loop, label="accept")
        return self

    def stop(self) -> None:
        """Stop serving: close the listener and every live connection
        (no goodbye is sent — to a peer this is a crash), then join
        the threads."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None
        for _ in range(2):  # twice: the accept thread may track one
            self.close_connections()  # more socket while the first runs
            with self._mutex:
                threads = list(self._threads)
            for t in threads:
                t.join(5.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def spawn(self, target, *args, label: str) -> None:
        """Run ``target(*args)`` in a daemon thread :meth:`stop` joins."""
        def run():
            try:
                target(*args)
            finally:
                with self._mutex:
                    self._threads.discard(thread)

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"{self._name}-{label}")
        with self._mutex:
            self._threads.add(thread)
        thread.start()

    def track(self, sock: socket.socket) -> None:
        """Register a socket for :meth:`close_connections`."""
        with self._mutex:
            self._socks.add(sock)

    def close_connections(self, socks=None) -> None:
        """Close the given tracked sockets (default: all of them),
        waking whichever threads block on them."""
        with self._mutex:
            socks = list(self._socks if socks is None else socks)
            self._socks.difference_update(socks)
        for s in socks:
            _close(s)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.track(conn)
            self.spawn(self._run_connection, conn, label="conn")

    def _run_connection(self, conn: socket.socket) -> None:
        try:
            self.on_connect(conn)
        finally:
            self.close_connections([conn])

    def on_connect(self, sock: socket.socket) -> None:
        """Serve one accepted connection; the socket is closed when
        this returns."""
        raise NotImplementedError
