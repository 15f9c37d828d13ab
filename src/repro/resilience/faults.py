"""Deterministic fault injection: state corruption, a faulty comm, and
a network chaos proxy.

Three injectors, all driven by seeded generators so every failure
schedule replays exactly:

* :class:`FaultInjector` corrupts *solver state* — NaN bursts at chosen
  steps, the signature of an under-resolved puncture blowing up.
* :class:`FaultyComm` wraps the simulated communicator and corrupts
  *messages*: drops, NaN-corruption, delayed delivery, and rank death.
  It subclasses :class:`repro.parallel.SimComm`, so every solver and
  halo-exchange path accepts it unchanged.
* :class:`ChaosProxy` sits between fabric clients and the campaign
  coordinator (:mod:`repro.jobs.fabric`) as a frame-aware TCP proxy
  that drops, delays, and duplicates whole RPC messages and partitions
  the link — the network-level sibling of :class:`FaultyComm`, and what
  the CI chaos matrix drives.

Every injected fault is appended to the injector's ``log`` (and the run
journal, when one is attached), which is what the deterministic-replay
tests compare.
"""

from __future__ import annotations

import math
import socket
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import rpc
from repro.parallel.comm import RankDeadError, SimComm


@dataclass
class FaultInjector:
    """Seeded state corruptor: NaN bursts at scheduled steps.

    ``nan_burst_steps`` lists the solver step counts at which one burst
    fires (each fires once); ``burst_vars``/``burst_points`` size the
    burst.  ``maybe_corrupt`` mutates the state in place and returns an
    event record, or None when nothing fired.
    """

    seed: int = 0
    nan_burst_steps: tuple = ()
    burst_vars: int = 2
    burst_points: int = 16
    log: list = field(default_factory=list)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self._pending = set(int(s) for s in self.nan_burst_steps)

    def maybe_corrupt(self, state, step: int):
        """Fire a scheduled NaN burst into ``state`` (in place)."""
        if step not in self._pending:
            return None
        self._pending.discard(step)
        arrays = state if isinstance(state, (list, tuple)) else [state]
        u = arrays[int(self.rng.integers(len(arrays)))]
        nvars = u.shape[0]
        vs = self.rng.integers(nvars, size=min(self.burst_vars, nvars))
        flat_size = int(np.prod(u.shape[1:]))
        pts = self.rng.integers(flat_size, size=min(self.burst_points, flat_size))
        for v in vs:
            u[int(v)].reshape(-1)[pts] = np.nan
        event = {
            "fault": "nan-burst",
            "step": int(step),
            "vars": [int(v) for v in vs],
            "points": int(len(pts)),
        }
        self.log.append(event)
        return event


class FaultyComm(SimComm):
    """A :class:`SimComm` that injects message faults deterministically.

    Per-message faults are drawn from a seeded generator in send order,
    so a fixed (seed, traffic pattern) pair yields an identical fault
    schedule on every run:

    * ``drop_prob`` — message vanishes after being counted as sent (the
      bytes left the NIC; delivery failed);
    * ``corrupt_prob`` — a contiguous span of the payload is overwritten
      with NaNs (detectable by the resilient halo exchange);
    * ``delay_prob`` — delivery is withheld for ``max_delay`` recv
      attempts on that (src, dst) edge, then the message appears
      (retry-with-backoff absorbs this without a resend);
    * :meth:`kill_rank` — the rank stops sending and every recv from it
      raises :class:`RankDeadError` until it has failed ``dead_for``
      times, after which it auto-revives (simulating a restarted rank).
    """

    def __init__(
        self,
        size: int,
        *,
        seed: int = 0,
        drop_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        delay_prob: float = 0.0,
        max_delay: int = 2,
    ):
        super().__init__(size)
        self.rng = np.random.default_rng(seed)
        self.drop_prob = float(drop_prob)
        self.corrupt_prob = float(corrupt_prob)
        self.delay_prob = float(delay_prob)
        self.max_delay = int(max_delay)
        #: structured record of every injected fault, in injection order
        self.log: list[dict] = []
        #: rank -> remaining RankDeadError raises before auto-revive
        self._dead: dict[int, int] = {}
        #: (src, dst) -> deque of [remaining_attempts, payload]
        self._delayed: dict[tuple[int, int], deque] = {}
        self._msg_counter = 0

    # -- rank death ----------------------------------------------------
    def kill_rank(self, rank: int, *, dead_for: int = 2) -> None:
        """Mark ``rank`` dead: its sends are lost and receives from it
        raise :class:`RankDeadError` ``dead_for`` times before the rank
        auto-revives."""
        if not 0 <= rank < self.size:
            raise ValueError("rank out of range")
        self._dead[rank] = int(dead_for)
        self.log.append({"fault": "rank-death", "rank": int(rank),
                         "dead_for": int(dead_for)})

    def revive_rank(self, rank: int) -> None:
        """Explicitly revive a dead rank."""
        self._dead.pop(rank, None)

    def dead_ranks(self) -> set[int]:
        """Currently-dead ranks."""
        return set(self._dead)

    # -- fault-injecting overrides ------------------------------------
    def _send(self, src: int, dst: int, payload: np.ndarray) -> None:
        if src in self._dead:
            self.log.append({"fault": "send-from-dead", "src": src, "dst": dst})
            return
        n = self._msg_counter
        self._msg_counter += 1
        roll = float(self.rng.random())
        if roll < self.drop_prob:
            # counted as sent (bytes left the source), never delivered;
            # the sequence number is consumed like a real lost packet's
            payload = np.asarray(payload)
            self._next_seq(src, dst)
            self.bytes_sent[src] += payload.nbytes
            self.messages_sent[src] += 1
            self.log.append({"fault": "drop", "src": src, "dst": dst, "msg": n})
            return
        if roll < self.drop_prob + self.corrupt_prob:
            # private C-ordered copy to corrupt: the incoming payload may
            # be a non-contiguous view, where reshape(-1) would silently
            # copy and the NaN write would be lost
            payload = np.array(payload, order="C")
            flat = payload.reshape(-1)
            span = max(1, flat.size // 8)
            start = int(self.rng.integers(max(1, flat.size - span)))
            flat[start : start + span] = np.nan
            self.log.append({"fault": "corrupt", "src": src, "dst": dst,
                             "msg": n, "span": span})
            super()._send(src, dst, payload)
            return
        if roll < self.drop_prob + self.corrupt_prob + self.delay_prob:
            payload = np.asarray(payload)
            seq = self._next_seq(src, dst)
            self.bytes_sent[src] += payload.nbytes
            self.messages_sent[src] += 1
            self._delayed.setdefault((src, dst), deque()).append(
                [self.max_delay, seq, payload.copy()]
            )
            self.log.append({"fault": "delay", "src": src, "dst": dst,
                             "msg": n, "attempts": self.max_delay})
            return
        super()._send(src, dst, payload)

    def _recv_tagged(self, src: int, dst: int) -> tuple:
        if src in self._dead:
            self._dead[src] -= 1
            if self._dead[src] <= 0:
                self.revive_rank(src)
                self.log.append({"fault": "rank-revived", "rank": int(src)})
            raise RankDeadError(f"rank {src} is dead")
        q = self._delayed.get((src, dst))
        if q:
            # age the delayed messages by one recv attempt; release the
            # ones whose hold expired into the real queue (original
            # sequence numbers preserved, so stale releases are
            # recognisable downstream)
            while q and q[0][0] <= 1:
                _, seq, payload = q.popleft()
                self._queues.setdefault((src, dst), deque()).append(
                    (seq, payload)
                )
            for item in q:
                item[0] -= 1
        return super()._recv_tagged(src, dst)

    def drain(self) -> None:
        """Clear delayed messages along with the base queues."""
        super().drain()
        self._delayed.clear()


# -- network chaos ------------------------------------------------------

class ChaosProxy(rpc.Listener):
    """Deterministic chaos between fabric workers and their coordinator.

    A frame-aware TCP proxy: it forwards whole length-prefixed RPC
    messages and injects faults *per message*, each direction of each
    connection drawing from its own generator seeded by
    ``(seed, connection index, direction)`` — so a fixed (seed, traffic
    pattern) yields an identical fault schedule, exactly like
    :class:`FaultyComm`:

    * ``drop_prob`` — the message vanishes (the peer times out and the
      RPC layer retries under its idempotency token);
    * ``dup_prob`` — the message is delivered twice back-to-back (a
      retried claim/complete must be applied exactly once);
    * ``delay_prob`` — delivery is withheld ``delay_seconds`` (deadline
      and stale-response handling get exercised);
    * :meth:`partition` — the link goes away entirely: live connections
      are severed and new ones refused until :meth:`heal` (or the
      ``seconds`` deadline) — workers degrade to direct-file mode and
      re-attach afterwards.

    Every injected fault is recorded in ``log``.
    """

    def __init__(self, upstream, *, host: str = "127.0.0.1", port: int = 0,
                 seed: int = 0, drop_prob: float = 0.0,
                 dup_prob: float = 0.0, delay_prob: float = 0.0,
                 delay_seconds: float = 0.05):
        super().__init__(host, port, name="chaos")
        self.upstream = (upstream[0], int(upstream[1]))
        self.seed = int(seed)
        self.drop_prob = float(drop_prob)
        self.dup_prob = float(dup_prob)
        self.delay_prob = float(delay_prob)
        self.delay_seconds = float(delay_seconds)
        #: structured record of every injected fault, in injection order
        self.log: list[dict] = []
        self._conn_counter = 0
        self._partition_until = 0.0

    # -- partition control ---------------------------------------------
    def partitioned(self) -> bool:
        return time.monotonic() < self._partition_until

    def partition(self, seconds: float | None = None) -> None:
        """Sever the link: existing connections die, new ones are
        refused, for ``seconds`` (or until :meth:`heal`)."""
        self._partition_until = (math.inf if seconds is None
                                 else time.monotonic() + float(seconds))
        self.log.append({"fault": "partition",
                         "seconds": seconds})
        self.close_connections()

    def heal(self) -> None:
        """End a partition immediately."""
        self._partition_until = 0.0
        self.log.append({"fault": "heal"})

    # -- data path ------------------------------------------------------
    def on_connect(self, client: socket.socket) -> None:
        """Pair one accepted client with a fresh upstream connection and
        pump frames both ways until either side goes away."""
        if self.partitioned():
            return  # the network is gone: instant EOF
        try:
            server = socket.create_connection(self.upstream, timeout=2.0)
        except OSError:
            return
        server.settimeout(None)
        server.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.track(server)
        with self._mutex:
            conn_id = self._conn_counter
            self._conn_counter += 1
        self.spawn(self._pump, server, client, conn_id, 1,
                   label=f"pump-{conn_id}-1")
        self._pump(client, server, conn_id, 0)

    def _pump(self, src: socket.socket, dst: socket.socket,
              conn_id: int, direction: int) -> None:
        rng = np.random.default_rng((self.seed, conn_id, direction))
        label = "c2s" if direction == 0 else "s2c"
        n = 0
        while not self._stop.is_set():
            try:
                frame = rpc.recv_frame_bytes(src)
            except (rpc.ProtocolError, OSError):
                break  # not a frame (or over the size cap), or dead peer
            if frame is None or self.partitioned():
                break
            roll = float(rng.random())
            event = None
            try:
                if roll < self.drop_prob:
                    event = {"fault": "drop", "dir": label,
                             "conn": conn_id, "msg": n}
                elif roll < self.drop_prob + self.dup_prob:
                    dst.sendall(frame + frame)
                    event = {"fault": "duplicate", "dir": label,
                             "conn": conn_id, "msg": n}
                elif roll < (self.drop_prob + self.dup_prob
                             + self.delay_prob):
                    time.sleep(self.delay_seconds)
                    dst.sendall(frame)
                    event = {"fault": "delay", "dir": label,
                             "conn": conn_id, "msg": n,
                             "seconds": self.delay_seconds}
                else:
                    dst.sendall(frame)
            except OSError:
                break
            if event is not None:
                self.log.append(event)
            n += 1
        self.close_connections([src, dst])
