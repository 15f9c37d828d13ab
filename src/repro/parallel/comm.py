"""An in-process simulated communicator.

Stands in for MPI (mpi4py is not available offline, and the scaling
studies are driven by the performance model anyway).  Ranks exchange
NumPy arrays through per-pair queues; all traffic is counted, which is
what the halo-exchange accounting and the communication model consume.

Failure semantics mirror the MPI realities a production run survives:
an empty queue raises :class:`MessageTimeout` (a receive that never
completed), :meth:`RankComm.recv` takes a bounded retry budget with
exponential polling backoff, and a dead peer surfaces as
:class:`RankDeadError`.  The fault-injecting subclass lives in
:class:`repro.resilience.FaultyComm`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


class MessageTimeout(RuntimeError):
    """No message available from the requested source (recv timed out)."""


class RankDeadError(RuntimeError):
    """The peer rank is dead (simulated process failure)."""


class SimComm:
    """A world of ``size`` ranks with counted point-to-point messaging."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        self._size = size
        self._queues: dict[tuple[int, int], deque] = {}
        #: per-edge monotone sequence numbers (MPI-tag analogue); lets a
        #: resilient receive discard stale duplicates from earlier rounds
        self._edge_seq: dict[tuple[int, int], int] = {}
        self.bytes_sent = np.zeros(size, dtype=np.int64)
        self.messages_sent = np.zeros(size, dtype=np.int64)
        self.recv_retries = np.zeros(size, dtype=np.int64)

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self._size

    def rank(self, r: int) -> "RankComm":
        """Endpoint for one rank."""
        if not 0 <= r < self._size:
            raise ValueError("rank out of range")
        return RankComm(self, r)

    # internal
    def _next_seq(self, src: int, dst: int) -> int:
        seq = self._edge_seq.get((src, dst), 0) + 1
        self._edge_seq[(src, dst)] = seq
        return seq

    def edge_seq(self, src: int, dst: int) -> int:
        """Sequence number of the last message sent on (src → dst)."""
        return self._edge_seq.get((src, dst), 0)

    def _send(self, src: int, dst: int, payload: np.ndarray) -> None:
        if not 0 <= dst < self._size:
            raise ValueError("destination rank out of range")
        payload = np.asarray(payload)
        seq = self._next_seq(src, dst)
        self._queues.setdefault((src, dst), deque()).append((seq, payload.copy()))
        self.bytes_sent[src] += payload.nbytes
        self.messages_sent[src] += 1

    def _recv_tagged(self, src: int, dst: int) -> tuple[int, np.ndarray]:
        q = self._queues.get((src, dst))
        if not q:
            raise MessageTimeout(f"no message from rank {src} to rank {dst}")
        return q.popleft()

    def pending(self, src: int, dst: int) -> int:
        """Messages queued from ``src`` to ``dst``."""
        q = self._queues.get((src, dst))
        return len(q) if q else 0

    def drain(self) -> None:
        """Discard every in-flight message (rollback after a failed
        collective: stale partial traffic must not leak into the retry)."""
        self._queues.clear()

    def total_bytes(self) -> int:
        """Total bytes sent by all ranks."""
        return int(self.bytes_sent.sum())


@dataclass
class RankComm:
    """One rank's endpoint."""

    world: SimComm
    rank: int

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.size

    def send(self, dst: int, payload: np.ndarray) -> None:
        """Send an array to ``dst`` (copied)."""
        self.world._send(self.rank, dst, payload)

    def recv(self, src: int, *, retries: int = 0) -> np.ndarray:
        """Receive the next message from ``src``.

        With ``retries > 0`` an empty queue is re-polled up to that many
        times before :class:`MessageTimeout` propagates.  In this
        simulated world a retry is what gives delayed messages (see
        ``FaultyComm``) the chance to arrive; the polling attempts are
        counted in ``world.recv_retries`` so tests and the comm model
        can account for the extra latency a real exponential backoff
        (1, 2, 4, ... poll intervals) would cost.
        """
        return self.recv_tagged(src, retries=retries)[1]

    def recv_tagged(self, src: int, *, retries: int = 0) -> tuple[int, np.ndarray]:
        """Like :meth:`recv` but returns ``(seq, payload)``; the per-edge
        sequence number lets resilient collectives reject stale
        duplicates from earlier, re-requested rounds."""
        if not 0 <= src < self.world.size:
            raise ValueError("source rank out of range")
        attempt = 0
        while True:
            try:
                return self.world._recv_tagged(src, self.rank)
            except MessageTimeout:
                if attempt >= retries:
                    raise
                attempt += 1
                self.world.recv_retries[self.rank] += 1
