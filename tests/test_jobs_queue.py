"""Tests for the crash-safe persistent job queue.

Covers the ISSUE-mandated contention properties: N processes claiming
concurrently never double-claim, and a killed worker's ``running`` entry
is reaped and requeued (with its checkpoint intact) so the job resumes
rather than restarts.
"""

import json
import multiprocessing as mp
import os
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import jsonl
from repro.jobs import (
    CANCELLED,
    DONE,
    PENDING,
    RUNNING,
    JobError,
    JobQueue,
    QueueSaturated,
    claim_order,
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

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # a crash mid-append leaves a fragment; the next op must not be
        # glued onto it (it would be fsynced and then dropped by every
        # replay: a fresh instance would hand the same job out again)
        q = JobQueue(tmp_path)
        a, b = submit_n(q, 2)
        q.claim("w0")
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "done", "id": "' + a["id"])  # torn append
        first = JobQueue(tmp_path).claim("w1")
        assert first["id"] == b["id"]
        fresh = JobQueue(tmp_path).jobs()  # and no read raises, ever
        assert (fresh[b["id"]]["state"], fresh[b["id"]]["worker"]) == (
            RUNNING, "w1")
        assert fresh[a["id"]]["state"] == RUNNING  # the torn op never happened
        assert JobQueue(tmp_path).claim("w2") is None  # no double claim
        assert q.claim("w3") is None  # nor from the instance that lagged
        assert q.path.read_bytes().count(b"\n") == 4  # 2 submits, 2 claims
        assert JobQueue._replay(jsonl.read(q.path)) == q.jobs()

    def test_torn_midfile_line_raises(self, tmp_path):
        q = JobQueue(tmp_path)
        a = q.submit({"name": "a"}, cache_key="k0")
        other = JobQueue(tmp_path)
        other.claim("w0")
        other.requeue(a["id"], reason="preempt")
        good = q.path.stat().st_size
        bad = b'{"op": "broken"\n'
        with open(q.path, "ab") as fh:
            fh.write(bad)
        with pytest.raises(json.JSONDecodeError):
            JobQueue(tmp_path).jobs()
        # the instance that was following the journal raises at the
        # first op that reads the corrupt line and at each later one
        for op in (q.counts, lambda: q.claim("w1"), q.jobs, q.reap,
                   lambda: q.submit({"name": "b"}, cache_key="k1")):
            with pytest.raises(json.JSONDecodeError):
                op()
        assert q.path.stat().st_size == good + len(bad)  # nothing appended
        # ... and none of the retries applied the good lines before it:
        # blank the corrupt line out in place and the chunk goes in once
        with open(q.path, "r+b") as fh:
            fh.seek(good)
            fh.write(b" " * (len(bad) - 1))
        rec = q.claim("w1")
        assert (rec["attempts"], len(rec["requeues"]), rec["preemptions"]
                ) == (2, 1, 1)
        assert q.jobs() == JobQueue._replay(jsonl.read(q.path))

    def test_replaced_or_truncated_journal_is_replayed_in_full(self, tmp_path):
        q = JobQueue(tmp_path)
        submit_n(q, 3)
        q.claim("w0")
        # replaced: another journal renamed over it (new inode), longer
        # than the offset this instance holds
        other = JobQueue(tmp_path / "other")
        submit_n(other, 2, priority=7)
        ids = [other.claim("w9")["id"], other.claim("w9")["id"]]
        for _ in range(8):
            assert other.heartbeat(ids[0])
        assert other.path.stat().st_size > q.path.stat().st_size
        table = other.jobs()
        os.replace(other.path, q.path)
        assert q.jobs() == JobQueue._replay(jsonl.read(q.path)) == table
        assert q.counts()[RUNNING] == 2
        # truncated: same inode, now shorter than the held offset
        lines = q.path.read_bytes().splitlines(keepends=True)
        with open(q.path, "r+b") as fh:
            fh.truncate(len(lines[0]))
        assert list(q.jobs()) == ["j0000-job0"]
        assert q.counts() == {PENDING: 1, RUNNING: 0, DONE: 0, "failed": 0,
                              CANCELLED: 0}
        assert q.submit({"name": "n"}, cache_key="kn")["seq"] == 1

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
        # every journal byte is read at most once per instance: an op
        # reads exactly what was appended since this instance's previous
        # op, which for back-to-back ops of one instance is nothing
        q, other = JobQueue(tmp_path), JobQueue(tmp_path)
        reads = []
        real_pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, offset: (
            reads.append((offset, n)) or real_pread(fd, n, offset)))
        rec = q.submit({"name": "a"}, cache_key="k0")
        q.claim("w0")
        assert q.preempt_requested(rec["id"]) is False
        assert reads == []
        size = q.path.stat().st_size
        assert other.heartbeat(rec["id"], worker="w0")
        assert reads == [(0, size)]  # the cold open: one read of it all
        grown = q.path.stat().st_size
        q.complete(rec["id"], {})
        assert reads == [(0, size), (size, grown - size)]
        assert q.counts()[DONE] == 1 and q.drained()
        assert len(reads) == 2


# -- the held table against a full replay -----------------------------------
def _assert_follows(q):
    """``q``'s table and every index equal a replay of the journal."""
    oracle = JobQueue._replay(q._ops())  # jsonl.read, or [] before any op
    assert q.jobs() == oracle
    states = [r["state"] for r in oracle.values()]
    assert q.counts() == {s: states.count(s) for s in
                          (PENDING, RUNNING, DONE, "failed", CANCELLED)}
    table = q._table
    assert [e[-1] for e in table.pending] == [
        r["id"] for r in claim_order(oracle.values())]
    running = [r["cache_key"] for r in oracle.values()
               if r["state"] == RUNNING]
    assert {k: n for k, n in table.running_keys.items() if n} == {
        k: running.count(k) for k in running}
    assert table.submits == len(oracle)
    for field in ("submit_token", "claim_token"):
        for rec in oracle.values():
            if rec[field] is not None:
                assert table.by_token(field, rec[field])[field] == rec[field]


def _scan_for_claim(jobs, token):
    """The job a claim must return, found the way ops found it when
    they scanned a full replay: token match first, else the first of
    ``claim_order`` whose cache_key is not running."""
    if token is not None:
        for rec in jobs.values():
            if rec["claim_token"] == token:
                return rec["id"]
    in_flight = {r["cache_key"] for r in jobs.values()
                 if r["state"] == RUNNING}
    return next((r["id"] for r in claim_order(jobs.values())
                 if r["cache_key"] not in in_flight), None)


KINDS = ("submit", "claim", "complete", "fail", "requeue", "heartbeat",
         "cancel", "request_preempt", "reap")
SCRIPTS = st.lists(
    st.tuples(st.integers(0, 2),
              st.sampled_from(KINDS + ("submit", "claim") * 2),
              st.integers(0, 9),
              st.one_of(st.none(), st.integers(0, 2)),  # token, from a pool
              st.sampled_from(("none", "owner", "stale")),  # guards
              st.booleans()),  # let the other instances lag
    min_size=8, max_size=60)


class TestTailFollowing:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(SCRIPTS)
    def test_three_instances_follow_one_journal(self, script):
        with tempfile.TemporaryDirectory() as root:
            # three handles with different settings on one directory:
            # each must follow what the other two append
            queues = [JobQueue(root), JobQueue(root, max_pending=3),
                      JobQueue(root, lease_seconds=0.0)]
            for i, kind, pick, tok, guard, lag in script:
                q = queues[i]
                # aim at a job the op can apply to, as this instance last
                # saw the table (it may lag), else at any job
                want = PENDING if kind == "cancel" else RUNNING
                known = (sorted(j for j, r in q._table.jobs.items()
                                if r["state"] == want and pick % 4)
                         or sorted(q._table.jobs) or ["j0000-none"])
                job_id = known[pick % len(known)]
                held = q._table.jobs.get(job_id) or {}
                token = None if tok is None else f"{kind}-{tok}"
                before = JobQueue._replay(q._ops())
                guards = {
                    "none": {},
                    "owner": {"worker": held.get("worker"),
                              "attempt": held.get("attempts")},
                    "stale": {"worker": f"w{(i + 1) % 3}",
                              "attempt": held.get("attempts", 0) + pick % 2},
                }[guard]
                try:
                    if kind == "submit":
                        out = q.submit(
                            {"name": f"n{pick}", "x": [pick, {"y": 1.5}]},
                            cache_key=f"k{pick % 3}", priority=pick % 3,
                            cost=[None, {"total_seconds": pick / 4}][pick % 2],
                            token=token)
                    elif kind == "claim":
                        out = q.claim(f"w{i}", token=token,
                                      pid=[None, "host!7"][pick % 2])
                    elif kind == "complete":
                        out = q.complete(job_id, {"n": pick}, token=token,
                                         **guards)
                    elif kind == "fail":
                        out = q.fail(job_id, "boom", token=token, **guards)
                    elif kind == "requeue":
                        out = q.requeue(
                            job_id, checkpoint=[None, "/ck"][pick % 2],
                            reason=["requeue", "preempt"][pick % 2],
                            token=token, **guards)
                    elif kind == "heartbeat":
                        out = q.heartbeat(job_id, worker=guards.get("worker"))
                    elif kind == "cancel":
                        out = q.cancel(job_id)
                    elif kind == "request_preempt":
                        out = q.request_preempt(job_id)
                    else:
                        out = q.reap()
                except (JobError, QueueSaturated):
                    out = None
                event(f"{kind}: {type(out).__name__}")
                if kind == "claim":
                    assert (out or {}).get("id") == _scan_for_claim(
                        before, token)
                if kind == "submit":
                    dup = [r["id"] for r in before.values()
                           if token and r["submit_token"] == token]
                    full = i == 1 and sum(r["state"] == PENDING
                                          for r in before.values()) >= 3
                    assert (out or {}).get("id") == (
                        dup[0] if dup else None if full
                        else f"j{len(before):04d}-n{pick}")
                if isinstance(out, dict):
                    # what comes back is the caller's to scribble on
                    assert out == JobQueue._replay(
                        jsonl.read(q.path))[out["id"]]
                    out["requeues"].append("mine")
                    out["config"]["x"][1]["y"] = "mine"
                    out["state"] = "mine"
                for other in (queues if not lag else [q]):
                    _assert_follows(other)
            for q in queues:
                _assert_follows(q)

    def test_claim_token_answers_only_while_a_record_holds_it(self, tmp_path):
        q = JobQueue(tmp_path)
        a, b = submit_n(q, 2)
        first = q.claim("w0", token="T")
        assert first["id"] == a["id"]
        assert q.claim("w0", token="T") == first  # retry: no second job
        q.requeue(a["id"])
        assert q.claim("w1", token="U")["id"] == a["id"]
        # T is on no record any more: a late retry is a fresh claim, as
        # it was when every claim scanned a replay for its token
        assert q.claim("w0", token="T")["id"] == b["id"]
        other = JobQueue(tmp_path)
        assert other.claimed("T")["id"] == b["id"]
        assert other.claimed("U")["id"] == a["id"]
        assert other.claimed("never") is None

    def test_threads_on_two_instances_never_double_claim(self, tmp_path):
        # the coordinator's use: connection threads sharing the shard's
        # JobQueue (here two of them), every op a check-then-append
        n_jobs, n_threads = 200, 8
        queues = [JobQueue(tmp_path), JobQueue(tmp_path)]
        submit_n(queues[0], n_jobs)
        claims = [[] for _ in range(n_threads)]
        errors = []

        def work(k):
            q = queues[k % 2]
            try:
                while (rec := q.claim(f"t{k}")) is not None:
                    claims[k].append(rec["id"])
                    q.complete(rec["id"], {"by": k}, worker=f"t{k}",
                               attempt=rec["attempts"])
                    assert q.preempt_requested(rec["id"]) is False
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
                raise

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and not errors
        flat = [j for per_thread in claims for j in per_thread]
        assert len(flat) == len(set(flat)) == n_jobs  # no double claim
        for q in queues:
            _assert_follows(q)
            assert q.counts()[DONE] == n_jobs
