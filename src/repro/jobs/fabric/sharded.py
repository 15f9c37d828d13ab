"""The queue surface over N shards, written once and transport-free.

:class:`ShardedQueue` is one op table — ``handle(op, msg)`` with the
request dict of the fabric protocol — over N :class:`repro.jobs.JobQueue`
shards.  The :class:`~repro.jobs.fabric.Coordinator` serves this table
over a socket; a degraded :class:`~repro.jobs.fabric.FabricQueue` runs
the very same table in-process over the shard directories, so both
modes journal identical ops and walk the shards in the same order.
"""

from __future__ import annotations

import threading

from ..queue import PENDING, RUNNING, JobError, JobQueue


class ShardedQueue:
    """``roots`` are the shard queue directories, in shard order."""

    def __init__(self, roots, *, lease_seconds: float | None = None):
        self.queues = [JobQueue(r, lease_seconds=lease_seconds)
                       for r in roots]
        self._mutex = threading.Lock()  # tokenless claim rotation
        self._rr = 0
        #: op name → handler taking the request dict
        self.ops = {
            "claim": self.claim,
            "heartbeat": lambda m: self._shard(m).heartbeat(
                m["id"], worker=m.get("worker")),
            "complete": lambda m: self._shard(m).complete(
                m["id"], m.get("result"), **_guards(m)),
            "fail": lambda m: self._shard(m).fail(
                m["id"], m.get("error", "unknown"), **_guards(m)),
            "requeue": lambda m: self._shard(m).requeue(
                m["id"], checkpoint=m.get("checkpoint"),
                reason=m.get("reason", "requeue"), **_guards(m)),
            "preempt_requested": lambda m: self._shard(m).preempt_requested(
                m["id"]),
            "submit": lambda m: self._shard(m).submit(
                m["config"], cache_key=m["cache_key"],
                priority=m.get("priority", 0),
                fault_steps=m.get("fault_steps", ()),
                cost=m.get("cost"), token=m.get("token")),
            "drained": lambda m: all(q.drained() for q in self.queues),
            "counts": lambda m: self.counts(),
            "reap": lambda m: self.reap(),
        }

    def handle(self, op: str, msg: dict):
        """Apply one request; returns the op's value or raises the
        queue's own :class:`JobError` / :class:`QueueSaturated`."""
        return self.ops[op](msg)

    def _shard(self, msg: dict) -> JobQueue:
        i = int(msg.get("shard", 0))
        if not 0 <= i < len(self.queues):
            raise JobError(f"no shard {i} (have {len(self.queues)})")
        return self.queues[i]

    def claim(self, msg: dict) -> dict | None:
        """Claim the best pending job across shards, tried in rotating
        order — a worker attached for one shard transparently *steals*
        from backlogged siblings once its own drains."""
        token = msg.get("token")
        n = len(self.queues)
        if token is not None:
            # token-derived rotation: a duplicated or retried claim
            # walks the shards in the SAME order, so the shard that
            # committed it answers from its token dedup before any
            # sibling can hand out a second job
            start = int(token[:8], 16) % n
        else:
            with self._mutex:
                start, self._rr = self._rr, self._rr + 1
        order = [(start + i) % n for i in range(n)]
        if token is not None and msg.get("retry"):
            # a retried claim may have committed on *any* shard — find
            # it before letting a different shard claim a second job.
            # First sends skip this scan: nothing can have committed.
            for shard in order:
                rec = self.queues[shard].claimed(token)
                if rec is not None:
                    rec["shard"] = shard
                    return rec
        for shard in order:
            rec = self.queues[shard].claim(msg["worker"], pid=msg.get("pid"),
                                           token=token)
            if rec is not None:
                rec["shard"] = shard
                return rec
        return None

    def counts(self) -> dict[str, int]:
        """Jobs per state, summed over the shards."""
        totals: dict[str, int] = {}
        for q in self.queues:
            for state, n in q.counts().items():
                totals[state] = totals.get(state, 0) + n
        return totals

    def backlog(self) -> list[dict]:
        """Every pending or running job (state, priority, §III-D cost) —
        what mission control renders by priority class and prices."""
        return [
            {"id": rec["id"], "shard": shard, "state": rec["state"],
             "priority": rec.get("priority", 0),
             "worker": rec.get("worker"), "seq": rec.get("seq", 0),
             "cost": rec.get("cost")}
            for shard, q in enumerate(self.queues)
            for rec in q.jobs((PENDING, RUNNING)).values()
        ]

    def reap(self) -> list[list]:
        """One reaper pass over every shard; returns ``[shard, job]``
        pairs requeued because their lease expired or their worker
        died."""
        out = []
        for shard, q in enumerate(self.queues):
            try:
                out += [[shard, job_id] for job_id in q.reap()]
            except OSError:
                continue
        return out


def _guards(msg: dict) -> dict:
    """The ownership guards + idempotency token of a finish op."""
    return {"worker": msg.get("worker"), "attempt": msg.get("attempt"),
            "token": msg.get("token")}
