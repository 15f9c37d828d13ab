"""Crash-safe persistent job queue (file-backed JSONL journal).

The queue is one append-only journal of state-transition operations —
``submit`` / ``claim`` / ``done`` / ``failed`` / ``requeue`` /
``cancel`` / ``preempt-request`` — and every :class:`JobQueue` holds the
job table that journal replays to.  The table is only ever advanced
under an exclusive file lock, from journal bytes, through
:meth:`_Table.apply`: each call takes the lock, reads the bytes appended
since this instance's previous call (by itself, another thread or
another process), applies the complete lines, and — for a mutation —
appends its own op, flushed + fsynced, and applies that line before the
lock is released.  So:

* two workers can never claim the same job (under the lock the claimer
  has seen every claim journaled before its own);
* a worker killed mid-job leaves a ``running`` entry whose recorded pid
  is dead; :meth:`JobQueue.reap` detects that and requeues the job —
  with its checkpoint directory intact, the next worker resumes it;
* a crash mid-append leaves at most one torn final line (no newline),
  which no reader applies and the next writer truncates away before it
  appends (the op never happened — exactly the pre-append state);
* a journal that was replaced or shrank is replayed from byte 0, and a
  complete line that does not parse raises on the op that reads it and
  on every later one, with nothing before it applied twice.

Job selection inside :meth:`claim` delegates to
:func:`repro.jobs.scheduler.claim_order` (priority classes, then
shortest-predicted-job-first) and defers any pending job whose
``cache_key`` matches a run already in flight — the duplicate waits and
is then served from the result cache instead of recomputing.

The queue is also the durability substrate of the multi-host fabric
(:mod:`repro.jobs.fabric`): every mutating op can carry an
*idempotency token* that the table materialises onto the record
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
in DESIGN §12 rests on these guards plus the token replay.  Records
handed to callers are copies; the table itself never leaves the lock.
"""

from __future__ import annotations

import bisect
import json
import os
import pathlib
import time
from contextlib import contextmanager

from repro import jsonl
from .scheduler import claim_key  # no cycle: scheduler is pure

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


def _copy(value):
    """Deep copy of a JSON value (table records are parsed journal
    bytes, so dicts, lists and scalars are all there is)."""
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    return [_copy(v) for v in value] if isinstance(value, list) else value


class _Table:
    """The job table a journal replays to, with the indexes the queue
    ops would otherwise rebuild by scanning it; :meth:`apply` is the
    single definition of what each journaled op does to all of them."""

    def __init__(self):
        self.jobs: dict[str, dict] = {}
        self.counts = dict.fromkeys(
            (PENDING, RUNNING, DONE, FAILED, CANCELLED), 0)
        self.submits = 0  # submit ops applied: the next job's ``seq``
        #: (token field, token) → job id, for submit and claim tokens
        #: (finish/requeue tokens are checked on the addressed record)
        self.tokens: dict[tuple, str] = {}
        self.running_keys: dict[str, int] = {}  # cache_key → running jobs
        self.pending: list[tuple] = []  # sorted (*claim_key, job id)

    def _index(self, rec: dict, n: int) -> None:
        """Enter (``n=1``) or drop (``n=-1``) ``rec`` under its state."""
        state = rec["state"]
        self.counts[state] = self.counts.get(state, 0) + n
        if state == RUNNING:
            key = rec["cache_key"]
            self.running_keys[key] = self.running_keys.get(key, 0) + n
        elif state == PENDING:
            entry = (*claim_key(rec), rec["id"])
            if n > 0:
                bisect.insort(self.pending, entry)
            else:
                del self.pending[bisect.bisect_left(self.pending, entry)]

    def _move(self, rec: dict, state: str, **fields) -> None:
        self._index(rec, -1)
        rec.update(fields, state=state)
        self._index(rec, 1)

    def _note_token(self, field: str, rec: dict) -> None:
        if rec.get(field) is not None:
            self.tokens[field, rec[field]] = rec["id"]

    def by_token(self, field: str, token: str | None) -> dict | None:
        """The record whose ``field`` currently holds ``token`` (a later
        claim of the same job replaces its ``claim_token``)."""
        rec = self.jobs.get(self.tokens.get((field, token)))
        return rec if rec is not None and rec[field] == token else None

    def next_claimable(self) -> dict | None:
        """First pending job in claim order whose ``cache_key`` is not
        already running (in-flight dedup)."""
        for entry in self.pending:
            rec = self.jobs[entry[-1]]
            if not self.running_keys.get(rec["cache_key"]):
                return rec
        return None

    def apply(self, op: dict) -> None:
        kind = op.get("op")
        if kind == "submit":
            rec = dict(op["job"])
            if rec["id"] in self.jobs:
                self._index(self.jobs[rec["id"]], -1)
            self.jobs[rec["id"]] = rec
            self.submits += 1
            self._note_token("submit_token", rec)
            self._index(rec, 1)
            return
        rec = self.jobs.get(op.get("id"))
        if rec is None:
            return  # op for an unknown job: ignore
        if kind == "claim":
            self._move(rec, RUNNING, worker=op["worker"], pid=op["pid"],
                       lease=op["wall"], attempts=rec["attempts"] + 1,
                       claim_token=op.get("token"))
            self._note_token("claim_token", rec)
            if rec["claimed"] is None:
                rec["claimed"] = op["wall"]
        elif kind == "done":
            self._move(rec, DONE, result=op.get("result"),
                       finished=op["wall"], preempt_requested=False,
                       finish_token=op.get("token"))
        elif kind == "failed":
            self._move(rec, FAILED, error=op.get("error"),
                       finished=op["wall"], preempt_requested=False,
                       finish_token=op.get("token"))
        elif kind == "requeue":
            self._move(rec, PENDING, worker=None, pid=None, lease=None,
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
            self._move(rec, CANCELLED, finished=op["wall"])
        elif kind == "preempt-request":
            if rec["state"] == RUNNING:
                rec["preempt_requested"] = True


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
        #: the journal the table was built from — (st_dev, st_ino) — and
        #: the byte offset it has been applied up to
        self._file, self._offset, self._table = None, 0, _Table()

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

    def _ops(self) -> list[dict]:
        # a torn final line is skipped: the op never happened
        return jsonl.read(self.path) if self.path.exists() else []

    @classmethod
    def _replay(cls, ops: list[dict]) -> dict[str, dict]:
        """Job table of a whole journal — the oracle the tests hold the
        tail-following table to."""
        table = _Table()
        for op in ops:
            table.apply(op)
        return table.jobs

    @contextmanager
    def _synced(self):
        """Hold the lock with :attr:`_table` advanced to the journal's
        last complete line; yields the journal, open for appending."""
        with self._locked(), open(self.path, "a+", encoding="utf-8") as fh:
            fd = fh.fileno()
            st = os.fstat(fd)
            if (self._file != (st.st_dev, st.st_ino)
                    or st.st_size < self._offset):
                # first call, or the journal was replaced or shrank
                self._table, self._offset = _Table(), 0
                self._file = (st.st_dev, st.st_ino)
            if st.st_size > self._offset:
                tail = os.pread(fd, st.st_size - self._offset, self._offset)
                end = tail.rfind(b"\n") + 1  # a torn final line stays unread
                # parse every line before applying any: a corrupt one
                # raises here, and again on the next op, with the table
                # still at ``_offset``
                ops = [json.loads(line) for line in tail[:end].split(b"\n")
                       if line.strip()]
                try:
                    for op in ops:
                        self._table.apply(op)
                except BaseException:
                    self._file = None  # half-applied: replay from byte 0
                    raise
                self._offset += end
            yield fh

    def _commit(self, fh, op: dict) -> None:
        """Append ``op`` durably and apply the line that was written."""
        if os.fstat(fh.fileno()).st_size > self._offset:
            # torn tail of a writer that crashed mid-append: cut it, or
            # this op would be glued onto the fragment and lost with it
            os.ftruncate(fh.fileno(), self._offset)
        line = jsonl.append(fh, op, fsync=True)
        self._table.apply(json.loads(line))
        self._offset += len(line)

    # -- reads -----------------------------------------------------------
    def jobs(self, states=None) -> dict[str, dict]:
        """Current job table (only the jobs in ``states`` when given)."""
        with self._synced():
            return {jid: _copy(rec) for jid, rec in self._table.jobs.items()
                    if states is None or rec["state"] in states}

    def job(self, job_id: str) -> dict | None:
        """One job's record, or None."""
        with self._synced():
            return _copy(self._table.jobs.get(job_id))

    def claimed(self, token: str) -> dict | None:
        """The record a claim carrying ``token`` committed, or None."""
        with self._synced():
            return _copy(self._table.by_token("claim_token", token))

    def counts(self) -> dict[str, int]:
        """Number of jobs per state."""
        with self._synced():
            return dict(self._table.counts)

    def drained(self) -> bool:
        """True when no job is pending or running."""
        c = self.counts()
        return c[PENDING] == 0 and c[RUNNING] == 0

    def preempt_requested(self, job_id: str) -> bool:
        """Poll whether a preemption was requested for a running job."""
        with self._synced():
            rec = self._table.jobs.get(job_id)
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
        with self._synced() as fh:
            table = self._table
            rec = table.by_token("submit_token", token)
            if rec is not None:
                return _copy(rec)  # retry of an applied submit
            backlog = table.counts[PENDING]
            if self.max_pending is not None and backlog >= self.max_pending:
                raise QueueSaturated(
                    f"queue holds {backlog} pending jobs "
                    f"(max_pending={self.max_pending})"
                )
            seq = table.submits
            label = name or config.get("name") or "job"
            job_id = f"j{seq:04d}-{label}"
            rec = _new_record(job_id, config, cache_key=cache_key,
                              priority=priority, fault_steps=fault_steps,
                              cost=cost, seq=seq)
            rec["submit_token"] = token
            self._commit(fh, {"op": "submit", "job": rec})
            return _copy(table.jobs[job_id])

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
        with self._synced() as fh:
            rec = self._table.by_token("claim_token", token)
            if rec is None:
                rec = self._table.next_claimable()
                if rec is None:
                    return None
                self._commit(fh, {
                    "op": "claim", "id": rec["id"], "worker": worker,
                    "pid": os.getpid() if pid is None else pid,
                    "wall": time.time(), "token": token})
            return _copy(rec)

    def _transition(self, job_id: str, from_states, op: dict, *,
                    worker: str | None = None, attempt: int | None = None,
                    token_field: str | None = None) -> dict:
        token = op.get("token")
        with self._synced() as fh:
            rec = self._table.jobs.get(job_id)
            if rec is None:
                raise JobError(f"unknown job {job_id!r}")
            if (token is not None and token_field
                    and rec.get(token_field) == token):
                return _copy(rec)  # retry of an op that already committed
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
            self._commit(fh, op)
            return _copy(rec)

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
        with self._synced() as fh:
            rec = self._table.jobs.get(job_id)
            if rec is None or rec["state"] != RUNNING:
                return False
            if worker is not None and rec["worker"] != worker:
                return False
            self._commit(fh, {"op": kind, "id": job_id, "wall": time.time()})
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
        with self._synced() as fh:
            now = time.time()
            stale = [
                rec for rec in self._table.jobs.values()
                if rec["state"] == RUNNING and (
                    (self.lease_seconds is not None
                     and rec["lease"] is not None
                     and now - rec["lease"] > self.lease_seconds)
                    or _local_pid_dead(rec["pid"]))
            ]
            for rec in stale:
                self._commit(fh, {
                    "op": "requeue", "id": rec["id"],
                    "checkpoint": rec["checkpoint"],
                    "reason": "reaped", "wall": now,
                })
            return [rec["id"] for rec in stale]


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
