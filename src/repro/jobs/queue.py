"""Crash-safe persistent job queue (file-backed JSONL journal).

The queue is one append-only journal of state-transition operations —
``submit`` / ``claim`` / ``done`` / ``failed`` / ``requeue`` /
``cancel`` / ``preempt-request`` — replayed into the current job table
on every read.  All mutations happen under an exclusive file lock, and
every append is flushed + fsynced before the lock is released, so:

* two workers can never claim the same job (the claim append is atomic
  under the lock, and claim re-reads the table first);
* a worker killed mid-job leaves a ``running`` entry whose recorded pid
  is dead; :meth:`JobQueue.reap` detects that and requeues the job —
  with its checkpoint directory intact, the next worker resumes it;
* a crash mid-append leaves at most one torn final line, which replay
  skips (the op never happened — exactly the pre-append state).

Job selection inside :meth:`claim` delegates to
:func:`repro.jobs.scheduler.claim_order` (priority classes, then
shortest-predicted-job-first) and defers any pending job whose
``cache_key`` matches a run already in flight — the duplicate waits and
is then served from the result cache instead of recomputing.

The queue is also the durability substrate of the multi-host fabric
(:mod:`repro.jobs.fabric`): every mutating op can carry an
*idempotency token* that replay materialises onto the record
(``claim_token`` / ``finish_token`` / ``requeue_token``), so a retried
RPC whose first attempt already committed is recognised and answered
from the journal instead of applied twice; ``claim`` accepts a caller
``pid`` tag (remote workers record ``"host!pid"``, which :meth:`reap`
never probes locally — their liveness signal is the heartbeat-renewed
lease alone); and :meth:`heartbeat` appends a lease renewal so a lease
survives exactly as long as its worker keeps proving it is alive.
Completion-side ops accept ``worker=``/``attempt=`` guards: a worker
whose job was reaped and reclaimed elsewhere gets :class:`JobError`
instead of overwriting the new owner's run — the exactly-once argument
in DESIGN §12 rests on these guards plus the token replay.
"""

from __future__ import annotations

import os
import pathlib
import time
from contextlib import contextmanager

from repro import jsonl

try:  # POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

QUEUE_FILE = "queue.jsonl"
LOCK_FILE = "queue.lock"

#: default running-job lease for worker entry points (``run-workers``,
#: the fabric coordinator): a job whose worker has not heartbeat within
#: this window is considered abandoned and requeued by the reaper
DEFAULT_LEASE_SECONDS = 60.0

#: job lifecycle states
PENDING, RUNNING, DONE, FAILED, CANCELLED = (
    "pending", "running", "done", "failed", "cancelled",
)


class QueueSaturated(RuntimeError):
    """Admission control rejected a submit: the queue's pending backlog
    is at ``max_pending`` (backpressure — resubmit later)."""


class JobError(ValueError):
    """An operation referenced a job in an incompatible state."""


def _new_record(job_id: str, config: dict, *, cache_key: str, priority: int,
                fault_steps, cost: dict | None, seq: int) -> dict:
    return {
        "id": job_id,
        "config": config,
        "cache_key": cache_key,
        "priority": int(priority),
        "fault_steps": [int(s) for s in fault_steps],
        "cost": cost,
        "seq": seq,
        "state": PENDING,
        "submitted": time.time(),
        "claimed": None,
        "finished": None,
        "worker": None,
        "pid": None,
        "lease": None,
        "attempts": 0,
        "preemptions": 0,
        "preempt_requested": False,
        "checkpoint": None,
        "result": None,
        "error": None,
        "requeues": [],
        "submit_token": None,
        "claim_token": None,
        "finish_token": None,
        "requeue_token": None,
    }


class JobQueue:
    """Persistent queue rooted at ``root`` (a campaign directory).

    ``max_pending`` bounds the pending backlog (admission control);
    ``lease_seconds`` is the running-job lease after which
    :meth:`reap` considers a claim stale even if its pid looks alive
    (None disables the time-based check — pid death alone requeues).
    """

    def __init__(self, root, *, max_pending: int | None = None,
                 lease_seconds: float | None = None):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / QUEUE_FILE
        self._lock_path = self.root / LOCK_FILE
        self.max_pending = max_pending
        self.lease_seconds = lease_seconds

    # -- locking / journal plumbing -------------------------------------
    @contextmanager
    def _locked(self):
        if fcntl is not None:
            with open(self._lock_path, "a+") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fh, fcntl.LOCK_UN)
        else:  # pragma: no cover - non-POSIX: atomic-mkdir spinlock
            lockdir = self._lock_path.with_suffix(".d")
            while True:
                try:
                    os.mkdir(lockdir)
                    break
                except FileExistsError:
                    time.sleep(0.005)
            try:
                yield
            finally:
                os.rmdir(lockdir)

    def _append(self, op: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            jsonl.append(fh, op, fsync=True)

    def _ops(self) -> list[dict]:
        # a torn final line is skipped: the op never happened
        return jsonl.read(self.path) if self.path.exists() else []

    @staticmethod
    def _apply(jobs: dict[str, dict], op: dict) -> None:
        """Apply one journaled op to the job table — the single
        definition of what each op does, shared by replay and by the
        transitions that have just appended the op."""
        kind = op.get("op")
        if kind == "submit":
            jobs[op["job"]["id"]] = dict(op["job"])
            return
        rec = jobs.get(op.get("id"))
        if rec is None:
            return  # op for an unknown job: ignore
        if kind == "claim":
            rec.update(state=RUNNING, worker=op["worker"], pid=op["pid"],
                       lease=op["wall"], attempts=rec["attempts"] + 1,
                       claim_token=op.get("token"))
            if rec["claimed"] is None:
                rec["claimed"] = op["wall"]
        elif kind == "done":
            rec.update(state=DONE, result=op.get("result"),
                       finished=op["wall"], preempt_requested=False,
                       finish_token=op.get("token"))
        elif kind == "failed":
            rec.update(state=FAILED, error=op.get("error"),
                       finished=op["wall"], preempt_requested=False,
                       finish_token=op.get("token"))
        elif kind == "requeue":
            rec.update(state=PENDING, worker=None, pid=None, lease=None,
                       preempt_requested=False,
                       requeue_token=op.get("token"))
            if op.get("checkpoint"):
                rec["checkpoint"] = op["checkpoint"]
            if op.get("reason") == "preempt":
                rec["preemptions"] += 1
            rec.setdefault("requeues", []).append(
                {"reason": op.get("reason", "requeue"),
                 "wall": op["wall"]}
            )
        elif kind == "heartbeat":
            if rec["state"] == RUNNING:
                rec["lease"] = op["wall"]
        elif kind == "cancel":
            rec.update(state=CANCELLED, finished=op["wall"])
        elif kind == "preempt-request":
            if rec["state"] == RUNNING:
                rec["preempt_requested"] = True

    @classmethod
    def _replay(cls, ops: list[dict]) -> dict[str, dict]:
        jobs: dict[str, dict] = {}
        for op in ops:
            cls._apply(jobs, op)
        return jobs

    # -- reads -----------------------------------------------------------
    def jobs(self) -> dict[str, dict]:
        """Current job table (replayed from the journal)."""
        with self._locked():
            return self._replay(self._ops())

    def counts(self) -> dict[str, int]:
        """Number of jobs per state."""
        out = {s: 0 for s in (PENDING, RUNNING, DONE, FAILED, CANCELLED)}
        for rec in self.jobs().values():
            out[rec["state"]] += 1
        return out

    def drained(self) -> bool:
        """True when no job is pending or running."""
        c = self.counts()
        return c[PENDING] == 0 and c[RUNNING] == 0

    def preempt_requested(self, job_id: str) -> bool:
        """Poll whether a preemption was requested for a running job."""
        rec = self.jobs().get(job_id)
        return bool(rec and rec["preempt_requested"])

    # -- transitions ------------------------------------------------------
    def submit(self, config: dict, *, cache_key: str, priority: int = 0,
               fault_steps=(), cost: dict | None = None,
               name: str | None = None, token: str | None = None) -> dict:
        """Append one pending job; returns its record.

        Raises :class:`QueueSaturated` when the pending backlog is at
        ``max_pending`` — the campaign driver's backpressure signal.
        A retried submit carrying the same idempotency ``token`` as a
        committed one returns the existing record instead of enqueuing
        a duplicate.
        """
        with self._locked():
            ops = self._ops()
            jobs = self._replay(ops)
            if token is not None:
                for r in jobs.values():
                    if r.get("submit_token") == token:
                        return r  # retry of an applied submit
            if self.max_pending is not None:
                backlog = sum(
                    1 for r in jobs.values() if r["state"] == PENDING
                )
                if backlog >= self.max_pending:
                    raise QueueSaturated(
                        f"queue holds {backlog} pending jobs "
                        f"(max_pending={self.max_pending})"
                    )
            seq = sum(1 for op in ops if op.get("op") == "submit")
            label = name or config.get("name") or "job"
            job_id = f"j{seq:04d}-{label}"
            rec = _new_record(job_id, config, cache_key=cache_key,
                              priority=priority, fault_steps=fault_steps,
                              cost=cost, seq=seq)
            rec["submit_token"] = token
            self._append({"op": "submit", "job": rec})
            return rec

    def claim(self, worker: str, *, pid=None, token: str | None = None
              ) -> dict | None:
        """Atomically claim the best claimable pending job, or None.

        Selection follows :func:`repro.jobs.scheduler.claim_order`;
        pending jobs whose ``cache_key`` matches a job already running
        are deferred (in-flight dedup — they will hit the result cache).

        ``pid`` tags the claim for the reaper: the default is this
        process's pid; the fabric coordinator records the remote
        worker's ``"host!pid"`` string, which is never probed locally.
        A retried claim carrying the same idempotency ``token`` as an
        already-committed one returns that claim's record instead of
        claiming a second job.
        """
        from .scheduler import claim_order  # no cycle: scheduler is pure

        with self._locked():
            jobs = self._replay(self._ops())
            if token is not None:
                for r in jobs.values():
                    if r.get("claim_token") == token:
                        return r  # retry of an applied claim
            in_flight = {
                r["cache_key"] for r in jobs.values() if r["state"] == RUNNING
            }
            candidates = [
                r for r in claim_order(jobs.values())
                if r["cache_key"] not in in_flight
            ]
            if not candidates:
                return None
            rec = candidates[0]
            op = {"op": "claim", "id": rec["id"], "worker": worker,
                  "pid": os.getpid() if pid is None else pid,
                  "wall": time.time(), "token": token}
            self._append(op)
            self._apply(jobs, op)
            return rec

    def _transition(self, job_id: str, from_states, op: dict, *,
                    worker: str | None = None, attempt: int | None = None,
                    token_field: str | None = None) -> dict:
        token = op.get("token")
        with self._locked():
            jobs = self._replay(self._ops())
            rec = jobs.get(job_id)
            if rec is None:
                raise JobError(f"unknown job {job_id!r}")
            if (token is not None and token_field
                    and rec.get(token_field) == token):
                return rec  # retry of an op that already committed
            if rec["state"] not in from_states:
                raise JobError(
                    f"job {job_id} is {rec['state']}, expected one of "
                    f"{sorted(from_states)}"
                )
            if worker is not None and rec["worker"] != worker:
                raise JobError(
                    f"job {job_id} is owned by {rec['worker']!r}, not "
                    f"{worker!r} — lease lost and job reclaimed"
                )
            if attempt is not None and rec["attempts"] != attempt:
                raise JobError(
                    f"job {job_id} is on attempt {rec['attempts']}, op "
                    f"targets stale attempt {attempt}"
                )
            self._append(op)
            self._apply(jobs, op)
            return rec

    def complete(self, job_id: str, result: dict | None = None, *,
                 worker: str | None = None, attempt: int | None = None,
                 token: str | None = None) -> dict:
        """running → done (with the worker's result payload).

        Optional ``worker``/``attempt`` assert ownership: a worker whose
        lease expired and whose job was reclaimed gets :class:`JobError`
        instead of completing someone else's attempt.  A retried op with
        the same ``token`` as the committed one is a no-op success.
        """
        return self._transition(job_id, {RUNNING}, {
            "op": "done", "id": job_id, "result": result,
            "wall": time.time(), "token": token,
        }, worker=worker, attempt=attempt, token_field="finish_token")

    def fail(self, job_id: str, error: str, *, worker: str | None = None,
             attempt: int | None = None, token: str | None = None) -> dict:
        """running → failed (terminal; the error string is recorded)."""
        return self._transition(job_id, {RUNNING}, {
            "op": "failed", "id": job_id, "error": str(error),
            "wall": time.time(), "token": token,
        }, worker=worker, attempt=attempt, token_field="finish_token")

    def requeue(self, job_id: str, *, checkpoint=None,
                reason: str = "requeue", worker: str | None = None,
                attempt: int | None = None,
                token: str | None = None) -> dict:
        """running → pending (preemption or reaped dead worker).

        ``checkpoint`` records the directory the next claimant resumes
        from; ``reason='preempt'`` increments the preemption counter.
        """
        return self._transition(job_id, {RUNNING}, {
            "op": "requeue", "id": job_id,
            "checkpoint": str(checkpoint) if checkpoint else None,
            "reason": reason, "wall": time.time(), "token": token,
        }, worker=worker, attempt=attempt, token_field="requeue_token")

    def _signal(self, kind: str, job_id: str,
                worker: str | None = None) -> bool:
        """Journal a ``kind`` op against a *running* job (optionally only
        while ``worker`` still owns it); False when there is none."""
        with self._locked():
            rec = self._replay(self._ops()).get(job_id)
            if rec is None or rec["state"] != RUNNING:
                return False
            if worker is not None and rec["worker"] != worker:
                return False
            self._append({"op": kind, "id": job_id, "wall": time.time()})
            return True

    def heartbeat(self, job_id: str, *, worker: str | None = None) -> bool:
        """Renew the running-job lease; returns False when the job is no
        longer this worker's to renew (reaped + reclaimed, finished, or
        unknown) — the worker should stop executing it."""
        return self._signal("heartbeat", job_id, worker)

    def cancel(self, job_id: str) -> dict:
        """pending → cancelled (running jobs must be preempted instead)."""
        return self._transition(job_id, {PENDING}, {
            "op": "cancel", "id": job_id, "wall": time.time(),
        })

    def request_preempt(self, job_id: str) -> bool:
        """Ask the worker running ``job_id`` to checkpoint and yield.

        Returns False (no-op) when the job is not currently running —
        the request is only meaningful against a live run.
        """
        return self._signal("preempt-request", job_id)

    # -- recovery ---------------------------------------------------------
    def reap(self) -> list[str]:
        """Requeue running jobs whose worker died (or whose lease
        expired, when ``lease_seconds`` is set).  Returns requeued ids.

        Local claims (integer pid) are probed with ``kill(pid, 0)``;
        remote claims (the fabric's ``"host!pid"`` tags) cannot be —
        their only liveness signal is the heartbeat-renewed lease, so
        they are requeued exactly when the lease expires.
        """
        requeued = []
        with self._locked():
            jobs = self._replay(self._ops())
            now = time.time()
            for rec in jobs.values():
                if rec["state"] != RUNNING:
                    continue
                lease_expired = (
                    self.lease_seconds is not None
                    and rec["lease"] is not None
                    and now - rec["lease"] > self.lease_seconds
                )
                stale = lease_expired or _local_pid_dead(rec["pid"])
                if stale:
                    self._append({
                        "op": "requeue", "id": rec["id"],
                        "checkpoint": rec["checkpoint"],
                        "reason": "reaped", "wall": now,
                    })
                    requeued.append(rec["id"])
        return requeued


def _local_pid_dead(pid) -> bool:
    """True when ``pid`` names a local process that is provably gone.
    Remote pid tags (any non-integer) are never probed — False."""
    if pid is None:
        return True
    if isinstance(pid, str) and not pid.isdigit():
        return False  # remote worker: the lease is the liveness signal
    try:
        os.kill(int(pid), 0)
    except (OSError, ValueError):
        return True
    return False
