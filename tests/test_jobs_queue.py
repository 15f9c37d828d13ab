"""Tests for the crash-safe persistent job queue.

Covers the ISSUE-mandated contention properties: N processes claiming
concurrently never double-claim, and a killed worker's ``running`` entry
is reaped and requeued (with its checkpoint intact) so the job resumes
rather than restarts.
"""

import json
import multiprocessing as mp
import os
import time

import pytest

from repro.jobs import (
    CANCELLED,
    DONE,
    PENDING,
    RUNNING,
    JobError,
    JobQueue,
    QueueSaturated,
)


def submit_n(queue, n, **kwargs):
    return [
        queue.submit({"name": f"job{i}"}, cache_key=f"key{i}", **kwargs)
        for i in range(n)
    ]


class TestLifecycle:
    def test_submit_claim_complete(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0", priority=3,
                       fault_steps=(2, 5), cost={"total_seconds": 1.5})
        assert rec["state"] == PENDING
        assert rec["priority"] == 3
        assert rec["fault_steps"] == [2, 5]

        claimed = q.claim("w0")
        assert claimed["id"] == rec["id"]
        assert claimed["state"] == RUNNING
        assert claimed["worker"] == "w0"
        assert claimed["pid"] == os.getpid()
        assert claimed["attempts"] == 1

        done = q.complete(rec["id"], {"answer": 42})
        assert done["state"] == DONE
        assert done["result"] == {"answer": 42}
        assert q.drained()

    def test_persistence_across_instances(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")
        # a brand-new handle on the same directory replays the journal
        q2 = JobQueue(tmp_path)
        assert q2.jobs()[rec["id"]]["state"] == RUNNING
        q2.complete(rec["id"], {})
        assert JobQueue(tmp_path).counts()[DONE] == 1

    def test_fail_records_error(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")
        failed = q.fail(rec["id"], "boom")
        assert failed["state"] == "failed"
        assert failed["error"] == "boom"

    def test_cancel_pending_only(self, tmp_path):
        q = JobQueue(tmp_path)
        a, b = submit_n(q, 2)
        assert q.cancel(a["id"])["state"] == CANCELLED
        q.claim("w0")
        with pytest.raises(JobError):
            q.cancel(b["id"])  # running: must be preempted instead
        with pytest.raises(JobError):
            q.cancel("j9999-nope")

    def test_invalid_transitions(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        with pytest.raises(JobError):
            q.complete(rec["id"], {})  # not running yet
        with pytest.raises(JobError):
            q.requeue(rec["id"])

    def test_requeue_preempt_counters(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        first = q.claim("w0")
        first_claim_wall = first["claimed"]
        back = q.requeue(rec["id"], checkpoint="/tmp/ck", reason="preempt")
        assert back["state"] == PENDING
        assert back["preemptions"] == 1
        assert back["checkpoint"] == "/tmp/ck"
        again = q.claim("w1")
        assert again["attempts"] == 2
        # queue latency is measured to the *first* claim
        assert again["claimed"] == first_claim_wall

    def test_preempt_request_running_only(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        assert not q.request_preempt(rec["id"])  # pending: no-op
        assert not q.preempt_requested(rec["id"])
        q.claim("w0")
        assert q.request_preempt(rec["id"])
        assert q.preempt_requested(rec["id"])
        q.requeue(rec["id"], reason="preempt")
        assert not q.preempt_requested(rec["id"])  # cleared on requeue


class TestBackpressure:
    def test_queue_saturated(self, tmp_path):
        q = JobQueue(tmp_path, max_pending=2)
        submit_n(q, 2)
        with pytest.raises(QueueSaturated):
            q.submit({"name": "c"}, cache_key="k2")
        # draining the backlog re-opens admission
        q.claim("w0")
        q.submit({"name": "c"}, cache_key="k2")


class TestCrashSafety:
    def test_torn_final_line_ignored(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "done", "id": "' + rec["id"])  # torn append
        jobs = JobQueue(tmp_path).jobs()
        assert jobs[rec["id"]]["state"] == RUNNING  # the op never happened

    def test_torn_midfile_line_raises(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit({"name": "a"}, cache_key="k0")
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "broken"\n')
        q.submit({"name": "b"}, cache_key="k1")  # appends after the tear
        with pytest.raises(json.JSONDecodeError):
            JobQueue(tmp_path).jobs()

    def test_reap_dead_worker_requeues_with_checkpoint(self, tmp_path):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        # give the job an earlier checkpoint so reap must preserve it
        q.claim("w0")
        q.requeue(rec["id"], checkpoint="/tmp/ck-a", reason="preempt")

        ctx = mp.get_context("fork")

        def claim_and_die(root):
            JobQueue(root).claim("doomed")
            os._exit(0)  # simulates a crash: no cleanup, entry left running

        p = ctx.Process(target=claim_and_die, args=(str(tmp_path),))
        p.start()
        p.join(30.0)
        assert p.exitcode == 0
        assert q.jobs()[rec["id"]]["state"] == RUNNING

        requeued = q.reap()
        assert requeued == [rec["id"]]
        back = q.jobs()[rec["id"]]
        assert back["state"] == PENDING
        assert back["checkpoint"] == "/tmp/ck-a"  # resume, don't restart

    def test_reap_leaves_live_workers_alone(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")  # our own (live) pid
        assert q.reap() == []

    def test_reap_lease_expiry(self, tmp_path):
        q = JobQueue(tmp_path, lease_seconds=0.05)
        rec = q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")
        time.sleep(0.1)
        assert q.reap() == [rec["id"]]  # pid alive but lease expired

    def test_crash_between_claim_append_and_fsync(self, tmp_path):
        # the narrowest crash window: the claim line is written and
        # flushed but the claimer dies before fsync returns.  Replay
        # must yield exactly one owner (the dead claimer) and the job
        # must be recoverable — never lost, never double-owned.
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")

        ctx = mp.get_context("fork")
        p = ctx.Process(target=_claim_then_die_before_fsync,
                        args=(str(tmp_path),))
        p.start()
        p.join(30.0)
        assert p.exitcode == 7  # died inside the fsync

        jobs = JobQueue(tmp_path).jobs()  # replay does not raise
        entry = jobs[rec["id"]]
        # the append made it into the shared file view: exactly one
        # owner, and it is the dead claimer
        assert entry["state"] == RUNNING
        assert entry["worker"] == "victim"
        claim_ops = [op for op in JobQueue(tmp_path)._ops()
                     if op.get("op") == "claim"]
        assert len(claim_ops) == 1

        # recovery: the dead pid is reaped, then re-claimed exactly once
        assert q.reap() == [rec["id"]]
        back = q.claim("w1")
        assert back["id"] == rec["id"]
        assert back["attempts"] == 2
        assert q.claim("w2") is None  # still exactly one owner


def _claim_then_die_before_fsync(root):
    """Claim, but simulate a power cut between the journal append
    (write + flush) and fsync visibility."""
    import repro.jsonl as qmod  # the one fsync site of every journal

    class DyingOs:
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def fsync(fd):
            os._exit(7)

    qmod.os = DyingOs()
    JobQueue(root).claim("victim")  # never returns


def _contender(root, out_path):
    """Claim-and-complete loop used by the contention test processes."""
    q = JobQueue(root)
    claimed = []
    while True:
        rec = q.claim(f"p{os.getpid()}")
        if rec is None:
            if q.drained():
                break
            time.sleep(0.002)
            continue
        claimed.append(rec["id"])
        q.complete(rec["id"], {"by": os.getpid()})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(claimed, fh)


class TestContention:
    def test_no_double_claims_across_processes(self, tmp_path):
        n_jobs, n_procs = 24, 4
        q = JobQueue(tmp_path)
        submit_n(q, n_jobs)

        ctx = mp.get_context("fork")
        outs = [tmp_path / f"claims-{i}.json" for i in range(n_procs)]
        procs = [
            ctx.Process(target=_contender, args=(str(tmp_path), str(out)))
            for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60.0)
        assert all(p.exitcode == 0 for p in procs)

        all_claims = []
        for out in outs:
            all_claims += json.loads(out.read_text())
        # every job claimed exactly once — the journal shows no
        # double-claims even under 4-way contention
        assert sorted(all_claims) == sorted(f"j{i:04d}-job{i}"
                                            for i in range(n_jobs))
        counts = q.counts()
        assert counts[DONE] == n_jobs
        assert q.drained()


def _fixed_script(root, monkeypatch):
    """Every op kind once, on a patched clock/pid with fixed tokens;
    returns the record each transition returned, as (record, fresh
    replay of the same job) pairs."""
    import itertools

    clock = itertools.count(1_700_000_000)
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    q = JobQueue(root, lease_seconds=5.0)
    pairs = []

    def returned(rec):
        pairs.append((rec, JobQueue(root).jobs()[rec["id"]]))
        return rec

    q.submit({"name": "a", "x": [1, 2.5]}, cache_key="ka", priority=1,
             fault_steps=(3,), cost={"total_seconds": 2.0}, token="t-sub-a")
    q.submit({"name": "b"}, cache_key="kb")
    r = returned(q.claim("w0", token="t-claim-1"))
    q.heartbeat(r["id"], worker="w0")
    returned(q.requeue(r["id"], checkpoint="/ck/a", reason="preempt",
                       worker="w0", attempt=1, token="t-rq-1"))
    r2 = returned(q.claim("w1", pid="host!7", token="t-claim-2"))
    returned(q.complete(r2["id"], {"ok": True, "n": 3}, worker="w1",
                        attempt=r2["attempts"], token="t-done-1"))
    r3 = returned(q.claim("w0"))
    q.request_preempt(r3["id"])
    returned(q.fail(r3["id"], "boom", worker="w0", attempt=1,
                    token="t-fail-1"))
    c = q.submit({"name": "c"}, cache_key="kc")
    returned(q.cancel(c["id"]))
    return q, pairs


class TestJournalFormat:
    """The journal bytes and the table they replay to are pinned to the
    commit before ``_apply`` / ``repro.jsonl`` existed (digests generated
    there with this same script)."""

    def test_journal_bytes_and_table_pinned(self, tmp_path, monkeypatch):
        import hashlib

        q, _ = _fixed_script(tmp_path, monkeypatch)
        assert hashlib.sha256(q.path.read_bytes()).hexdigest() == (
            "e06d9477cbb446394b0708f6140facce"
            "48de529c7670795daa4b924b84387088")
        table = json.dumps(q.jobs(), sort_keys=True)
        assert hashlib.sha256(table.encode()).hexdigest() == (
            "303947d77a6f80fdf72fae5fa74b683b"
            "cea36db65eec066698ad7821057f3b4f")

    def test_transitions_return_what_a_fresh_replay_holds(self, tmp_path,
                                                          monkeypatch):
        # claim() and _transition() apply the op they appended to the
        # table they already hold instead of re-reading the journal
        _, pairs = _fixed_script(tmp_path, monkeypatch)
        assert len(pairs) == 7
        for returned, replayed in pairs:
            assert returned == replayed

    def test_finish_reads_the_journal_once(self, tmp_path, monkeypatch):
        q = JobQueue(tmp_path)
        rec = q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")
        reads = []
        real_ops = q._ops
        monkeypatch.setattr(q, "_ops", lambda: reads.append(1) or real_ops())
        q.complete(rec["id"], {})
        assert len(reads) == 1
