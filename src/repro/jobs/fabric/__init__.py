"""Fault-tolerant multi-host campaign fabric (see DESIGN.md §12).

A socket layer that turns one or more file-backed
:class:`repro.jobs.JobQueue` shards into a service remote workers can
claim from — engineered for failure first:

* :mod:`~repro.jobs.fabric.protocol` — the message schema (per-op
  idempotency tokens) over :mod:`repro.rpc`'s length-prefixed frames;
* :class:`ShardedQueue` — the queue surface over N shards as one
  transport-free op table (claim rotation, work stealing, reap);
* :class:`Coordinator` — that table behind a threaded RPC front-end
  that journals every mutation through the crash-safe queues (kill it,
  restart it, nothing is lost or double-run) and reaps expired leases
  on a cadence;
* :class:`FabricClient` / :class:`FabricQueue` — deadline + bounded
  full-jitter backoff + exactly-once retries, degrading to the same
  op table run in-process on the shard files while the coordinator is
  away and re-attaching when it returns;
* the chaos matrix (``python -m repro.jobs chaos``) proves the
  guarantees under coordinator kill+restart, worker death, partitions,
  and duplicate-delivery storms via
  :class:`repro.resilience.ChaosProxy`.
"""

from __future__ import annotations

from repro.rpc import parse_address

from .client import (
    CoordinatorUnreachable,
    FabricClient,
    FabricError,
    FabricQueue,
    RpcRemoteError,
    worker_pid_tag,
)
from .coordinator import Coordinator
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    new_token,
    recv_frame,
    send_frame,
)
from .sharded import ShardedQueue

__all__ = [
    "MAX_FRAME_BYTES",
    "Coordinator",
    "CoordinatorUnreachable",
    "FabricClient",
    "FabricError",
    "FabricQueue",
    "ProtocolError",
    "RpcRemoteError",
    "ShardedQueue",
    "encode_frame",
    "new_token",
    "parse_address",
    "recv_frame",
    "send_frame",
    "worker_pid_tag",
]
