"""Ghost (halo) exchange between SFC partitions (Algorithm 1, line 6).

Each rank owns a contiguous SFC chunk of octants; before every unzip it
must receive the blocks of all neighbouring octants owned by other ranks.
:func:`distributed_unzip` demonstrates the full functional path: exchange
ghosts through a :class:`SimComm`, then run the scatter restricted to the
rank's own patches — and must agree exactly with the single-address-space
unzip (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh import Mesh
from repro.octree import Partition
from .comm import MessageTimeout, SimComm


class HaloExchangeError(RuntimeError):
    """A ghost block could not be obtained within the retry budget."""


@dataclass
class HaloPlan:
    """Per-rank send/recv lists of octant indices."""

    partition: Partition
    #: send_lists[src][dst] -> octant indices owned by src needed by dst
    send_lists: list[dict[int, np.ndarray]]
    #: ghost octants each rank receives (sorted)
    ghost_lists: list[np.ndarray]

    @property
    def num_ranks(self) -> int:
        """Number of ranks in the partition."""
        return self.partition.num_parts

    def bytes_per_exchange(self, r: int = 7, dof: int = 24) -> np.ndarray:
        """Bytes each rank sends in one halo exchange."""
        out = np.zeros(self.num_ranks, dtype=np.int64)
        for src, dsts in enumerate(self.send_lists):
            for _, idx in dsts.items():
                out[src] += len(idx) * dof * r**3 * 8
        return out


def build_halo_plan(mesh: Mesh, partition: Partition) -> HaloPlan:
    """Per-rank send/recv octant lists for one partitioned mesh."""
    adj = mesh.adjacency
    send_lists: list[dict[int, np.ndarray]] = [dict() for _ in range(partition.num_parts)]
    ghost_lists: list[np.ndarray] = []
    for rank in range(partition.num_parts):
        ghosts = partition.ghost_indices(rank, adj)
        ghost_lists.append(ghosts)
        owners = partition.owner[ghosts]
        for src in np.unique(owners):
            send_lists[int(src)][rank] = ghosts[owners == src]
    return HaloPlan(partition=partition, send_lists=send_lists, ghost_lists=ghost_lists)


def contiguous_offsets(partition: Partition) -> np.ndarray:
    """``partition.offsets``, refusing a partition that has none."""
    if partition.offsets is None:
        raise ValueError(
            "the rank-parallel drivers need a contiguous SFC partition "
            "(partition_octree); a curve-reordered one "
            "(partition_octree_hilbert) has per-leaf owners and no offsets"
        )
    return partition.offsets


def rank_view(view: np.ndarray, u: np.ndarray, lo: int, hi: int,
              ghosts: dict[int, np.ndarray]) -> np.ndarray:
    """One rank's picture of the global field ``u``, written into
    ``view``: its own blocks ``lo:hi``, the ``ghosts`` it received
    (octant → block), and zero elsewhere — never read, but a reused
    buffer would otherwise hold the previous rank's blocks."""
    view[...] = 0.0
    view[:, lo:hi] = u[:, lo:hi]
    for g, block in ghosts.items():
        view[:, g] = block
    return view


def exchange_ghosts(
    plan: HaloPlan,
    local_fields: list[np.ndarray],
    comm: SimComm,
    dof: int,
    *,
    max_retries: int = 0,
    validate: bool = False,
    journal=None,
    tracer=None,
    metrics=None,
) -> list[dict[int, np.ndarray]]:
    """Run one halo exchange.

    ``local_fields[r]`` holds rank r's owned blocks, shape
    ``(dof, n_local, ...)`` ordered like its SFC chunk.  Returns, per
    rank, a map from global octant index to the received ghost block.

    ``tracer`` (a :class:`repro.telemetry.Tracer`) spans the exchange on
    the trace timeline with message/byte totals; ``metrics`` (a
    :class:`repro.telemetry.MetricsRegistry`) accumulates per-edge
    ``halo_bytes`` / ``halo_messages`` / ``halo_retries`` counters —
    retransmitted traffic is counted like any other send.

    With ``max_retries > 0`` the exchange is *resilient*: a message that
    times out, arrives mis-shaped, or (with ``validate=True``) arrives
    carrying non-finite values is discarded and **re-requested** — the
    sender still owns the blocks, so it simply re-posts the identical
    payload (retransmitted traffic is counted like any other send, and
    each recovery is recorded in the optional ``journal``).  A fault-free
    exchange takes the exact same code path and produces bitwise-
    identical traffic, so the accounting of clean runs is unchanged.
    Exhausting the budget raises :class:`HaloExchangeError`; a dead peer
    (:class:`repro.parallel.RankDeadError`) propagates to the driver,
    which owns rank-restart policy.
    """
    if tracer is None:
        return _exchange_ghosts(plan, local_fields, comm, dof,
                                max_retries=max_retries, validate=validate,
                                journal=journal, metrics=metrics,
                                traffic=None)
    # the span must close even when the exchange fails (RankDeadError /
    # HaloExchangeError propagate to the supervisor, which keeps running)
    traffic = [0, 0]  # messages, bytes — filled by the impl
    tracer.begin("halo.exchange", "comm")
    try:
        return _exchange_ghosts(plan, local_fields, comm, dof,
                                max_retries=max_retries, validate=validate,
                                journal=journal, metrics=metrics,
                                traffic=traffic)
    finally:
        tracer.end({"messages": traffic[0], "bytes": traffic[1]})


def _exchange_ghosts(
    plan, local_fields, comm, dof, *, max_retries, validate, journal,
    metrics, traffic,
) -> list[dict[int, np.ndarray]]:
    offsets = contiguous_offsets(plan.partition)
    sent_bytes = sent_msgs = 0
    # snapshot per-edge sequence numbers: anything at or below these is
    # a stale duplicate from an earlier round and must be discarded
    epoch = {
        (src, dst): comm.edge_seq(src, dst)
        for src in range(plan.num_ranks)
        for dst in plan.send_lists[src]
    } if max_retries else {}
    # post sends
    for src in range(plan.num_ranks):
        lo = offsets[src]
        ep = comm.rank(src)
        for dst, idx in plan.send_lists[src].items():
            payload = local_fields[src][:, idx - lo]
            ep.send(dst, payload)
            sent_bytes += payload.nbytes
            sent_msgs += 1
            if metrics is not None:
                metrics.counter("halo_bytes", src=int(src),
                                dst=int(dst)).inc(payload.nbytes)
                metrics.counter("halo_messages", src=int(src),
                                dst=int(dst)).inc()
    # receive
    ghosts: list[dict[int, np.ndarray]] = [dict() for _ in range(plan.num_ranks)]
    for src in range(plan.num_ranks):
        lo = offsets[src]
        for dst, idx in plan.send_lists[src].items():
            expect_shape = (dof, len(idx)) + local_fields[src].shape[2:]
            if not max_retries:
                blocks = comm.rank(dst).recv(src)
            else:
                blocks = None
                for attempt in range(max_retries + 1):
                    got = _recv_current(
                        comm, src, dst, epoch[(src, dst)],
                        retries=1 if attempt else 0,
                    )
                    if (
                        got is not None
                        and got.shape == expect_shape
                        and (not validate or bool(np.all(np.isfinite(got))))
                    ):
                        blocks = got
                        break
                    if attempt == max_retries:
                        if traffic is not None:
                            traffic[0], traffic[1] = sent_msgs, sent_bytes
                        raise HaloExchangeError(
                            f"ghost blocks from rank {src} to rank {dst} "
                            f"lost after {max_retries} re-requests"
                        )
                    if journal is not None:
                        journal.event(
                            "halo-retry", src=int(src), dst=int(dst),
                            attempt=attempt + 1,
                            reason="timeout" if got is None else "corrupt",
                        )
                    # re-request: the sender re-posts the same payload
                    payload = local_fields[src][:, idx - lo]
                    comm.rank(src).send(dst, payload)
                    sent_bytes += payload.nbytes
                    sent_msgs += 1
                    if metrics is not None:
                        metrics.counter("halo_retries", src=int(src),
                                        dst=int(dst)).inc()
                        metrics.counter("halo_bytes", src=int(src),
                                        dst=int(dst)).inc(payload.nbytes)
                        metrics.counter("halo_messages", src=int(src),
                                        dst=int(dst)).inc()
            for j, g in enumerate(idx):
                ghosts[dst][int(g)] = blocks[:, j]
    if traffic is not None:
        traffic[0], traffic[1] = sent_msgs, sent_bytes
    return ghosts


def _recv_current(comm, src, dst, epoch_seq, *, retries):
    """Receive the next message on (src → dst) that belongs to the
    current round (seq > ``epoch_seq``); stale duplicates — re-requested
    or delayed copies from earlier rounds — are silently consumed.
    Returns None on timeout."""
    while True:
        try:
            seq, payload = comm.rank(dst).recv_tagged(src, retries=retries)
        except MessageTimeout:
            return None
        if seq > epoch_seq:
            return payload


def distributed_unzip(
    mesh: Mesh, partition: Partition, u: np.ndarray, comm: SimComm | None = None
) -> np.ndarray:
    """Functional multi-rank unzip: each rank sees only its own blocks
    plus exchanged ghosts, fills its own patches, and the results are
    concatenated back in SFC order.

    Agrees exactly with ``mesh.unzip(u)`` (the claim behind halo
    exchange correctness); used by tests and the scaling demos.
    """
    uu = u if u.ndim == 5 else u[None]
    if comm is None:
        comm = SimComm(partition.num_parts)
    offsets = contiguous_offsets(partition)
    ghosts = exchange_ghosts(
        build_halo_plan(mesh, partition),
        [uu[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])],
        comm, uu.shape[0],
    )
    # each rank unzips its view of the global field (own + ghosts only);
    # what that writes to patches it does not own is dropped
    out = np.zeros((uu.shape[0], mesh.num_octants, mesh.P, mesh.P, mesh.P))
    view = np.empty_like(uu)
    for rank, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        out[:, lo:hi] = mesh.unzip(rank_view(view, uu, lo, hi,
                                             ghosts[rank]))[:, lo:hi]
    return out if u.ndim == 5 else out[0]
