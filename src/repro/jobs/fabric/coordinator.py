"""Fabric coordinator: a socket front-end over crash-safe queue shards.

The coordinator owns no state of its own — every mutation it applies is
journaled through :class:`repro.jobs.JobQueue` (one per shard), so
killing the coordinator at any instant and starting a fresh one on the
same directories loses nothing: the new process replays the same
journals, the persisted epoch counter increments, and attached workers
simply reconnect and carry on.  Exactly-once application of retried
RPCs rests on the queue's idempotency-token replay (DESIGN §12), not on
any in-memory table.

Worker-facing RPC ops (see :mod:`.protocol` for the message schema; the
queue surface itself is :class:`~.sharded.ShardedQueue`'s op table):

``hello``
    attach handshake: epoch, lease seconds, shard count.
``claim``
    claim the best pending job across shards.  Shards are tried in
    rotating order, so workers attached for one shard transparently
    *steal* work from backlogged siblings once their own drains.
``heartbeat``
    renew a running job's lease (False → the worker lost the job).
``complete`` / ``fail`` / ``requeue``
    finish ops, ownership-guarded by (worker, attempt).
``preempt_requested`` / ``drained`` / ``counts`` / ``status`` /
``reap`` / ``submit``
    the remaining queue surface, for remote CLIs and probes.

A background reaper runs on a cadence: any running job whose lease
expired (its worker died, hung, or is partitioned away) is requeued
with its checkpoint intact and counted in the ``lease_expirations``
metric — the next claimant resumes it bitwise-identically via the
existing :class:`repro.resilience.SupervisedRun` path.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time

from repro import rpc
from repro.telemetry import FleetAggregator, MetricsRegistry
from ..queue import DEFAULT_LEASE_SECONDS, JobError, QueueSaturated
from .sharded import ShardedQueue

EPOCH_FILE = "fabric-epoch.json"


class Coordinator(rpc.Listener):
    """Serve one or more campaign queue shards over the fabric protocol.

    ``shards`` is a list of queue directories (default: just ``root``).
    ``lease_seconds`` is the running-job lease workers must renew by
    heartbeating; the reaper requeues anything staler every
    ``reap_interval`` seconds (default: lease/4, floored at 0.5 s).
    """

    def __init__(self, root, *, shards=None, host: str = "127.0.0.1",
                 port: int = 0, lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 reap_interval: float | None = None, metrics=None,
                 fleet=None):
        super().__init__(host, port, name="fabric")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards = ShardedQueue(shards or [root],
                                   lease_seconds=lease_seconds)
        self.lease_seconds = float(lease_seconds)
        self.reap_interval = (max(0.5, self.lease_seconds / 4.0)
                              if reap_interval is None
                              else float(reap_interval))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # fleet telemetry aggregation (DESIGN §13): True → an aggregator
        # persisting beside the queue journal under <root>/fleet/, or
        # pass a ready FleetAggregator; None/False → disabled (workers
        # learn this from the hello response and never ship)
        if fleet is True:
            fleet = FleetAggregator(self.root / "fleet")
        self.fleet = fleet or None
        if self.fleet is not None:
            self.fleet.track_local("coordinator", self.metrics)
        self.epoch = self._bump_epoch()
        #: (shard, job_id, wall) of every lease-expiry requeue this epoch
        self.reaped: list[tuple[int, str, float]] = []
        # the queue surface, with the ops that need the coordinator's
        # own state (fleet, epoch, reap bookkeeping) laid over it
        self._ops = {
            **self.shards.ops,
            "hello": self._op_hello,
            "heartbeat": self._op_heartbeat,
            "telemetry.push": self._op_telemetry_push,
            "fleet": self._op_fleet,
            "reap": lambda msg: self.reap_once(),
            "status": self._op_status,
        }

    # -- lifecycle -------------------------------------------------------
    def _bump_epoch(self) -> int:
        path = self.root / EPOCH_FILE
        try:
            epoch = int(json.loads(path.read_text())["epoch"]) + 1
        except (OSError, ValueError, KeyError):
            epoch = 1
        # temp + fsync + rename: a torn epoch file would read as epoch 1
        # and a restart could then repeat an epoch workers already saw
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"epoch": epoch}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return epoch

    def start(self) -> "Coordinator":
        """Bind, then run the accept loop and the reaper in daemon
        threads.  Idempotent once started."""
        if self._listener is None:
            super().start()
            self.spawn(self._reap_loop, label="reaper")
        return self

    def stop(self) -> None:
        """Stop serving: close the listener and every live connection.

        This models a coordinator crash as far as workers are concerned
        — no goodbye is sent; their next RPC fails and retries.
        """
        super().stop()
        if self.fleet is not None:
            self.fleet.close()  # final window rollup; idempotent

    # -- background loops ------------------------------------------------
    def on_connect(self, conn: socket.socket) -> None:
        conn.settimeout(30.0)
        while not self._stop.is_set():
            try:
                msg = rpc.recv_frame(conn)
                if msg is None:
                    return  # clean EOF
                rpc.send_frame(conn, self.handle(msg))
            except (rpc.ProtocolError, OSError):
                return  # malformed frame, idle timeout or dead peer

    def _reap_loop(self) -> None:
        while not self._stop.wait(self.reap_interval):
            self.reap_once()
            if self.fleet is not None:
                self.fleet.tick()

    def reap_once(self) -> list[tuple[int, str]]:
        """One reaper pass over every shard; returns (shard, job) pairs
        requeued because their lease expired or their worker died."""
        now = time.time()
        out = [(shard, job_id) for shard, job_id in self.shards.reap()]
        self.reaped += [(shard, job_id, now) for shard, job_id in out]
        if out:
            self.metrics.counter("lease_expirations").inc(len(out))
        return out

    # -- dispatch ---------------------------------------------------------
    def handle(self, msg: dict) -> dict:
        """Apply one request dict; returns the response dict.  Exposed
        directly (besides the socket path) so tests can drive the
        dispatch table without a network."""
        op = msg.get("op")
        token = msg.get("token")
        self.metrics.counter("fabric_requests", op=str(op)).inc()
        handler = self._ops.get(op) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "kind": "protocol",
                    "error": f"unknown op {op!r}", "token": token}
        try:
            value = handler(msg)
        except Exception as exc:
            self.metrics.counter("fabric_errors", op=str(op)).inc()
            # the queue's own errors are definitive answers clients map
            # back to their types; anything else is a defensive catch-all
            kind, error = type(exc).__name__, str(exc)
            if not isinstance(exc, (JobError, QueueSaturated)):
                kind, error = "internal", f"{kind}: {error}"
            return {"ok": False, "kind": kind, "error": error,
                    "token": token, "server_wall": time.time()}
        # every response echoes the coordinator's wall clock — clients
        # estimate their skew from it (min-RTT midpoint), which is what
        # clock-normalises per-worker trace lanes at assembly time
        return {"ok": True, "value": value, "token": token,
                "server_wall": time.time()}

    # -- ops that need more than the queue table -------------------------
    def _op_hello(self, msg: dict) -> dict:
        return {
            "epoch": self.epoch,
            "lease_seconds": self.lease_seconds,
            "shards": len(self.shards.queues),
            "root": str(self.root),
            "fleet": self.fleet is not None,
        }

    def _op_heartbeat(self, msg: dict):
        alive = self.shards.handle("heartbeat", msg)
        payload = msg.get("telemetry")
        if payload and self.fleet is not None:
            ack = self.fleet.ingest(payload)
            return {"alive": alive, "telemetry_ack": ack}
        return alive

    def _op_telemetry_push(self, msg: dict) -> int:
        if self.fleet is None:
            raise JobError("fleet telemetry aggregation is disabled")
        return self.fleet.ingest(msg.get("payload") or {})

    def _op_fleet(self, msg: dict) -> dict:
        """The mission-control snapshot: the live fleet rollup plus a
        queue-side job summary (state, priority, §III-D cost) so ``top``
        can render backlog by priority class and a cost-model ETA."""
        if self.fleet is None:
            raise JobError("fleet telemetry aggregation is disabled")
        snap = self.fleet.snapshot()
        snap["epoch"] = self.epoch
        snap["counts"] = self.shards.counts()
        snap["jobs"] = self.shards.backlog()
        return snap

    def _op_status(self, msg: dict) -> dict:
        return {
            "epoch": self.epoch,
            "counts": self.shards.counts(),
            "reaped": [[s, j, w] for s, j, w in self.reaped],
            "shards": [str(q.root) for q in self.shards.queues],
        }
