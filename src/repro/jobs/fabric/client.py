"""Fabric RPC client and the queue facade workers run against.

:class:`FabricClient` is :class:`repro.rpc.Client` — per-attempt
timeout, overall deadline, full-jitter backoff, one idempotency token
per *logical* op reused across retries, stale replies discarded — under
the names the fabric has always exported.

:class:`FabricQueue` presents the :class:`repro.jobs.JobQueue` surface
(claim / complete / fail / requeue / heartbeat / preempt_requested /
drained / counts / reap) over the client, and *degrades gracefully*:
when the coordinator stays unreachable and the shard directories are
locally accessible (shared filesystem), it runs the coordinator's own
op table (:class:`~.sharded.ShardedQueue`) in-process over them —
correct, because the coordinator journals through the very same
crash-safe queues — and probes the socket on a backoff cadence to
re-attach when the coordinator returns.  The ``fabric_degraded`` gauge
tracks which mode the worker is in.
"""

from __future__ import annotations

import os
import socket
import time

from repro.rpc import (
    Backoff,
    Client as FabricClient,
    RemoteError as RpcRemoteError,
    RpcError as FabricError,
    Unreachable as CoordinatorUnreachable,
    new_token,
)
from ..queue import JobError, QueueSaturated
from .sharded import ShardedQueue


def worker_pid_tag(host: str | None = None) -> str:
    """The ``"host!pid"`` tag remote claims are recorded under — never
    probed by a reaper on another machine (see ``JobQueue.reap``)."""
    return f"{host or socket.gethostname()}!{os.getpid()}"


#: ``FabricQueue._call`` default meaning "no fallback value: re-raise"
_RAISE = object()


class _StillAway(CoordinatorUnreachable):
    """Degraded and not due for a re-attach probe: nothing was sent."""


class FabricQueue:
    """The worker-side queue facade: RPC first, direct files as fallback.

    ``roots`` (optional) lists the shard queue directories as seen from
    *this* host; providing them enables degraded direct-file mode when
    the coordinator is unreachable.  Without them the facade keeps
    retrying the socket and reports no work in the meantime.
    """

    def __init__(self, address, *, roots=None, name: str = "worker",
                 rpc_timeout: float = 2.0, deadline: float = 6.0,
                 metrics=None, probe_base: float = 0.5,
                 lease_seconds: float | None = None, shipper=None):
        if metrics is None and shipper is not None:
            metrics = shipper.registry  # rpc latency lands in the fleet
        self.client = FabricClient(address, rpc_timeout=rpc_timeout,
                                   deadline=deadline, metrics=metrics)
        self.name = name
        self.metrics = metrics
        self.shipper = shipper
        self._fleet = False  # set by attach() from the hello response
        self.lease_seconds = lease_seconds
        self.pid_tag = worker_pid_tag()
        self._local = (ShardedQueue(roots, lease_seconds=lease_seconds)
                       if roots else None)
        self._shards: dict[str, int] = {}  # job id -> shard it lives on
        self.degraded = False
        self._probe = Backoff(base=probe_base, cap=8.0)
        self._next_probe = 0.0
        self.coordinator_info: dict | None = None

    # -- mode management -----------------------------------------------
    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("fabric_degraded").set(1.0 if self.degraded
                                                      else 0.0)

    def _enter_degraded(self) -> None:
        if not self.degraded:
            self.degraded = True
            self._probe.reset()
            self._next_probe = time.monotonic() + self._probe.next()
            self._gauge()

    def attach(self) -> dict:
        """Handshake with the coordinator; leaves degraded mode.  On
        failure the facade starts degraded (direct-file mode when
        ``roots`` were given), probing to re-attach in the background.
        """
        try:
            info = self.client.call("hello")
        except CoordinatorUnreachable:
            self._enter_degraded()
            raise
        self.coordinator_info = info
        self._fleet = bool(info.get("fleet")) and self.shipper is not None
        if self.lease_seconds is None:
            self.lease_seconds = info.get("lease_seconds")
        if self.degraded:
            self.degraded = False
            self._gauge()
        return info

    def _maybe_reattach(self) -> bool:
        """In degraded mode, probe the coordinator on a backoff cadence;
        True when re-attached."""
        if not self.degraded:
            return True
        if time.monotonic() < self._next_probe:
            return False
        try:
            self.attach()
            return True
        except FabricError:
            self._next_probe = time.monotonic() + self._probe.next()
            return False

    def _rpc(self, op: str, **args):
        """RPC with degradation bookkeeping; raises
        :class:`CoordinatorUnreachable` while the coordinator is away.
        Definitive remote errors surface as their queue-side types
        (:class:`JobError` / :class:`QueueSaturated`), so callers treat
        the facade exactly like a local :class:`JobQueue`."""
        if not self.degraded or self._maybe_reattach():
            try:
                return self.client.call(op, **args)
            except CoordinatorUnreachable:
                self._enter_degraded()
                raise
            except RpcRemoteError as exc:
                if exc.kind == "JobError":
                    raise JobError(exc.message) from exc
                if exc.kind == "QueueSaturated":
                    raise QueueSaturated(exc.message) from exc
                raise
        raise _StillAway("degraded: coordinator still away")

    def _call(self, op: str, default, **args):
        """One queue op: over RPC, or — while the coordinator is away —
        through the same op table in-process over ``roots``.  Without
        ``roots`` there is nothing to fall back to: ``default`` is the
        answer (``_RAISE`` re-raises :class:`CoordinatorUnreachable`).
        A fallback after an RPC that was actually sent runs as a *retry*
        (same token): the send may have committed on any shard."""
        try:
            return self._rpc(op, **args)
        except CoordinatorUnreachable as exc:
            if self._local is not None:
                return self._local.handle(op, {
                    **args, "retry": not isinstance(exc, _StillAway)})
            if default is _RAISE:
                raise
            return default

    # -- queue surface ---------------------------------------------------
    def claim(self, worker: str | None = None) -> dict | None:
        rec = self._call("claim", None, token=new_token(),
                         worker=worker or self.name, pid=self.pid_tag)
        if rec is not None:
            self._shards[rec["id"]] = int(rec.get("shard", 0))
        return rec

    def _finish(self, op: str, job_id: str, worker: str | None, **args):
        return self._call(op, _RAISE, token=new_token(), id=job_id,
                          shard=self._shards.get(job_id, 0),
                          worker=worker or self.name, **args)

    def complete(self, job_id: str, result: dict | None = None, *,
                 worker: str | None = None,
                 attempt: int | None = None) -> dict:
        return self._finish("complete", job_id, worker, result=result,
                            attempt=attempt)

    def fail(self, job_id: str, error: str, *, worker: str | None = None,
             attempt: int | None = None) -> dict:
        return self._finish("fail", job_id, worker, error=str(error),
                            attempt=attempt)

    def requeue(self, job_id: str, *, checkpoint=None,
                reason: str = "requeue", worker: str | None = None,
                attempt: int | None = None) -> dict:
        return self._finish("requeue", job_id, worker,
                            checkpoint=str(checkpoint) if checkpoint
                            else None,
                            reason=reason, attempt=attempt)

    def heartbeat(self, job_id: str, *, worker: str | None = None) -> bool:
        """Renew the lease.  True also when the coordinator is briefly
        unreachable with no fallback: losing connectivity must not make
        the worker abandon a job the reaper may never requeue —
        exactly-once is enforced by the ownership guard at completion,
        not by the worker's guess.

        When a :class:`~repro.telemetry.TelemetryShipper` is attached
        and the coordinator runs fleet aggregation, the heartbeat
        piggybacks the worker's pending telemetry deltas and commits
        whatever the coordinator acknowledged — telemetry costs no
        extra round trips on the steady-state path."""
        payload = self._telemetry()
        extra = {} if payload is None else {"telemetry": payload}
        value = self._call("heartbeat", True, id=job_id,
                           shard=self._shards.get(job_id, 0),
                           worker=worker or self.name, **extra)
        if isinstance(value, dict):
            if self.shipper is not None:
                self.shipper.commit(value.get("telemetry_ack"))
            return bool(value.get("alive"))
        return bool(value)

    def _telemetry(self, *, full: bool = False) -> dict | None:
        """The shipper's pending deltas, or None when there is nothing
        to ship / no fleet aggregation to ship to."""
        if self.shipper is None or not self._fleet or self.degraded:
            return None
        self.shipper.clock_offset = self.client.clock_offset
        return self.shipper.flush(full=full)

    def push_telemetry(self, *, full: bool = True):
        """Ship every pending telemetry delta now (``telemetry.push``) —
        the full-flush path workers take at job end and on exit.
        Returns the acknowledged sequence number, or None when nothing
        was shipped."""
        payload = self._telemetry(full=full)
        if payload is None:
            return None
        try:
            ack = self._rpc("telemetry.push", payload=payload)
        except FabricError:
            return None  # deltas stay in flight; a later flush retries
        self.shipper.commit(ack)
        return ack

    def preempt_requested(self, job_id: str) -> bool:
        return bool(self._call("preempt_requested", False, id=job_id,
                               shard=self._shards.get(job_id, 0)))

    def drained(self) -> bool:
        # no fallback → unknowable: keep polling, don't exit
        return bool(self._call("drained", False))

    def counts(self) -> dict:
        return self._call("counts", _RAISE)

    def reap(self) -> list:
        """Trigger a reaper pass (coordinator-side when attached)."""
        return self._call("reap", ()) or []

    def submit(self, config: dict, *, cache_key: str, priority: int = 0,
               fault_steps=(), cost: dict | None = None,
               shard: int = 0) -> dict:
        """Remote submit (used by CLIs pointed at a coordinator)."""
        rec = self._rpc("submit", token=new_token(), shard=shard,
                        config=config, cache_key=cache_key,
                        priority=priority,
                        fault_steps=list(fault_steps), cost=cost)
        self._shards[rec["id"]] = shard
        return rec

    def close(self) -> None:
        self.client.close()
