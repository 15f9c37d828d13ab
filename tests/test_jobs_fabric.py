"""Tests for the multi-host campaign fabric (DESIGN §12).

Covers the wire protocol, the shared backoff helper, the coordinator's
RPC surface and reaper, exactly-once retry semantics under idempotency
tokens, lease-loss ownership guards, coordinator restart, degraded
direct-file mode with re-attach, and cross-shard work stealing.
"""

import socket
import threading
import time

import pytest

from repro.jobs import Backoff, JobError, JobQueue
from repro.jobs.fabric import (
    Coordinator,
    CoordinatorUnreachable,
    FabricClient,
    FabricQueue,
    ProtocolError,
    encode_frame,
    new_token,
    parse_address,
    recv_frame,
    send_frame,
)


def submit_n(queue, n, **kwargs):
    return [
        queue.submit({"name": f"job{i}"}, cache_key=f"key{i}", **kwargs)
        for i in range(n)
    ]


@pytest.fixture
def coord(tmp_path):
    c = Coordinator(tmp_path, lease_seconds=30.0, reap_interval=60.0)
    with c:
        yield c


class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "hello", "n": [1, 2, 3]})
            assert recv_frame(b) == {"op": "hello", "n": [1, 2, 3]}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"op": "x"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 30).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_tokens_unique(self):
        tokens = {new_token() for _ in range(256)}
        assert len(tokens) == 256

    def test_parse_address(self):
        assert parse_address("10.0.0.1:9999") == ("10.0.0.1", 9999)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestBackoff:
    def test_full_jitter_bounds(self):
        b = Backoff(base=0.1, factor=2.0, cap=1.0, seed=42)
        for k in range(12):
            ceiling = min(1.0, 0.1 * 2.0 ** k)
            assert 0.0 <= b.next() <= ceiling

    def test_deterministic_with_seed(self):
        seq = [Backoff(base=0.05, seed=7).next() for _ in range(1)]
        assert seq == [Backoff(base=0.05, seed=7).next()]

    def test_reset_rearms(self):
        b = Backoff(base=0.5, cap=64.0, seed=0)
        for _ in range(6):
            b.next()
        grown = b.peek_ceiling()
        b.reset()
        assert b.peek_ceiling() < grown


class TestRpc:
    def test_claim_complete_over_socket(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 2)
        fq = FabricQueue(coord.address, name="w0")
        fq.attach()
        rec = fq.claim()
        assert rec is not None and rec["state"] == "running"
        done = fq.complete(rec["id"], {"ok": 1}, attempt=rec["attempts"])
        assert done["state"] == "done"
        assert fq.counts()["done"] == 1

    def test_remote_pid_tag_never_probed_locally(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 1)
        fq = FabricQueue(coord.address, name="w0")
        rec = fq.claim()
        assert "!" in rec["pid"]  # host!pid — not a local pid
        # a reap must NOT kill it: the pid is not probeable here and the
        # lease (30 s) is fresh
        assert coord.reap_once() == []

    def test_claim_token_retry_returns_same_record(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 3)
        client = FabricClient(coord.address)
        token = new_token()
        first = client.call("claim", token=token, worker="w0", pid="h!1")
        again = client.call("claim", token=token, worker="w0", pid="h!1")
        assert first["id"] == again["id"]  # dedup, not a second job
        assert JobQueue(tmp_path).counts()["running"] == 1

    def test_complete_token_retry_applied_once(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 1)
        fq = FabricQueue(coord.address, name="w0")
        rec = fq.claim()
        client = FabricClient(coord.address)
        token = new_token()
        kwargs = dict(token=token, id=rec["id"], shard=0, worker="w0",
                      result={"n": 1})
        one = client.call("complete", **kwargs)
        two = client.call("complete", **kwargs)
        assert one["state"] == two["state"] == "done"
        ops = [op for op in JobQueue(tmp_path)._ops()
               if op.get("op") == "done"]
        assert len(ops) == 1  # journaled exactly once

    def test_remote_error_maps_to_job_error(self, tmp_path, coord):
        fq = FabricQueue(coord.address, name="w0")
        with pytest.raises(JobError):
            fq.complete("j9999-nope", {})

    def test_unknown_op_is_definitive(self, coord):
        client = FabricClient(coord.address)
        from repro.jobs.fabric import RpcRemoteError

        with pytest.raises(RpcRemoteError):
            client.call("made_up_op")

    def test_unreachable_raises_after_deadline(self):
        # a bound-then-closed port: nothing listens there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
        probe.close()
        client = FabricClient(addr, rpc_timeout=0.1, deadline=0.3)
        t0 = time.monotonic()
        with pytest.raises(CoordinatorUnreachable):
            client.call("hello")
        assert time.monotonic() - t0 < 5.0

    def test_stale_response_discarded_by_token(self, coord, tmp_path):
        # handcrafted connection: send two hellos, read the responses
        # through a client whose pending token is the SECOND one
        sock = socket.create_connection(coord.address)
        try:
            send_frame(sock, {"op": "hello", "token": "old"})
            client = FabricClient(coord.address)
            client._sock = sock  # adopt the polluted connection
            value = client.call("hello")  # fresh token
            assert value["epoch"] == coord.epoch
        finally:
            client.close()


class TestLeasesAndOwnership:
    def test_expired_lease_reaped_and_stale_finish_rejected(self, tmp_path):
        coord = Coordinator(tmp_path, lease_seconds=0.1, reap_interval=60.0)
        with coord:
            submit_n(JobQueue(tmp_path), 1)
            fq = FabricQueue(coord.address, name="w0")
            rec = fq.claim()
            time.sleep(0.25)  # no heartbeat: lease expires
            reaped = coord.reap_once()
            assert [j for _, j in reaped] == [rec["id"]]
            assert coord.metrics.counter("lease_expirations").value == 1
            # the job was reclaimed by another worker
            fq2 = FabricQueue(coord.address, name="w1")
            rec2 = fq2.claim()
            assert rec2["id"] == rec["id"]
            # the original owner's finish is definitively rejected
            with pytest.raises(JobError):
                fq.complete(rec["id"], {}, attempt=rec["attempts"])
            # the new owner's completes fine
            fq2.complete(rec["id"], {}, attempt=rec2["attempts"])
            assert JobQueue(tmp_path).counts()["done"] == 1

    def test_heartbeat_renews_lease(self, tmp_path):
        coord = Coordinator(tmp_path, lease_seconds=0.3, reap_interval=60.0)
        with coord:
            submit_n(JobQueue(tmp_path), 1)
            fq = FabricQueue(coord.address, name="w0")
            rec = fq.claim()
            for _ in range(4):
                time.sleep(0.1)
                assert fq.heartbeat(rec["id"]) is True
            assert coord.reap_once() == []  # renewed throughout
            assert fq.heartbeat("j9999-nope") is False


class TestRestart:
    def test_restart_preserves_state_and_bumps_epoch(self, tmp_path):
        coord = Coordinator(tmp_path, lease_seconds=30.0)
        coord.start()
        submit_n(JobQueue(tmp_path), 2)
        fq = FabricQueue(coord.address, name="w0")
        rec = fq.claim()
        host, port = coord.address
        epoch = coord.epoch
        coord.stop()

        coord2 = Coordinator(tmp_path, host=host, port=port,
                             lease_seconds=30.0)
        with coord2:
            assert coord2.epoch == epoch + 1
            # the running claim survived the restart (journal replay)...
            fq2 = FabricQueue(coord2.address, name="w0")
            fq2._shards[rec["id"]] = 0
            done = fq2.complete(rec["id"], {"ok": 1},
                                attempt=rec["attempts"])
            assert done["state"] == "done"
            # ...and the second job is still claimable
            assert fq2.claim() is not None


class TestDegradedMode:
    def test_fallback_to_direct_files_and_reattach(self, tmp_path):
        coord = Coordinator(tmp_path, lease_seconds=30.0)
        coord.start()
        host, port = coord.address
        submit_n(JobQueue(tmp_path), 2)
        fq = FabricQueue((host, port), roots=[tmp_path], name="w0",
                         rpc_timeout=0.1, deadline=0.3, probe_base=0.01)
        fq.attach()
        coord.stop()

        rec = fq.claim()  # served by the direct file queue
        assert rec is not None
        assert fq.degraded is True
        fq.complete(rec["id"], {"ok": 1}, attempt=rec["attempts"])
        assert JobQueue(tmp_path).counts()["done"] == 1

        # the second job may drain in degraded mode too — what matters
        # is that it drains, and that the facade re-attaches once the
        # coordinator returns
        rec2 = fq.claim()
        assert rec2 is not None
        fq.complete(rec2["id"], {"ok": 2}, attempt=rec2["attempts"])
        assert JobQueue(tmp_path).counts()["done"] == 2

        coord2 = Coordinator(tmp_path, host=host, port=port,
                             lease_seconds=30.0)
        with coord2:
            deadline = time.monotonic() + 10.0
            while fq.degraded and time.monotonic() < deadline:
                fq.drained()  # any RPC drives the re-attach probe
                time.sleep(0.02)
            assert fq.degraded is False
            assert fq.drained() is True  # answered by the coordinator

    def test_no_roots_means_no_work_while_away(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
        probe.close()
        fq = FabricQueue(addr, name="w0", rpc_timeout=0.1, deadline=0.2)
        assert fq.claim() is None
        assert fq.drained() is False  # unknowable: keep polling
        assert fq.heartbeat("j0000-x") is True  # don't abandon the job


class TestWorkStealing:
    def test_claim_drains_sibling_shards(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        submit_n(JobQueue(b), 2)  # all work lives on shard 1
        coord = Coordinator(tmp_path, shards=[a, b], lease_seconds=30.0)
        with coord:
            fq = FabricQueue(coord.address, name="w0")
            seen = []
            while True:
                rec = fq.claim()
                if rec is None:
                    break
                seen.append(rec["shard"])
                fq.complete(rec["id"], {}, attempt=rec["attempts"])
            assert seen == [1, 1]  # stolen across the empty home shard
            assert fq.drained() is True


class TestConcurrentClients:
    def test_many_threads_never_double_claim(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 16)
        claimed: list[str] = []
        lock = threading.Lock()

        def drain(name):
            fq = FabricQueue(coord.address, name=name)
            while True:
                rec = fq.claim(name)
                if rec is None:
                    if fq.drained():
                        return
                    time.sleep(0.005)
                    continue
                with lock:
                    claimed.append(rec["id"])
                fq.complete(rec["id"], {}, worker=name,
                            attempt=rec["attempts"])

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert sorted(claimed) == sorted(f"j{i:04d}-job{i}"
                                         for i in range(16))


class TestShardedParity:
    """Attached and degraded mode run the same op table
    (:class:`ShardedQueue`): the same script must journal the same ops
    and walk the shards in the same token order."""

    @staticmethod
    def _script(fq):
        """submit/claim/heartbeat/complete/requeue/reap over two shards;
        returns the shard each claim landed on."""
        shards = []
        rec = fq.claim()
        shards.append(rec["shard"])
        assert fq.heartbeat(rec["id"]) is True
        fq.complete(rec["id"], {"n": 1}, attempt=rec["attempts"])
        rec = fq.claim()
        shards.append(rec["shard"])
        fq.requeue(rec["id"], checkpoint="/ck", reason="preempt",
                   attempt=rec["attempts"])
        rec = fq.claim()
        shards.append(rec["shard"])
        fq.fail(rec["id"], "boom", attempt=rec["attempts"])
        rec = fq.claim()
        shards.append(rec["shard"])
        assert fq.preempt_requested(rec["id"]) is False
        time.sleep(0.3)  # no heartbeat: the 0.2 s lease expires
        assert [j for _, j in fq.reap()] == [rec["id"]]
        assert fq.drained() is False
        return shards

    @staticmethod
    def _journals(roots):
        """Per-shard journal ops with the run-dependent fields removed."""
        out = []
        for root in roots:
            ops = JobQueue(root)._ops()
            for op in ops:
                op.pop("wall", None)
                op.pop("token", None)
                op.get("job", {}).pop("submitted", None)
            out.append(ops)
        return out

    def _run(self, tmp_path, monkeypatch, mode):
        roots = [tmp_path / mode / "a", tmp_path / mode / "b"]
        submit_n(JobQueue(roots[0]), 2)
        submit_n(JobQueue(roots[1]), 3)
        # every other token is a claim's: its first 8 hex digits pick
        # the shard the walk starts on, alternating 0, 1, 0, 1
        tokens = (f"{i // 2:08x}{i:024x}" for i in range(100))
        monkeypatch.setattr("repro.jobs.fabric.client.new_token",
                            lambda: next(tokens))
        if mode == "attached":
            with Coordinator(roots[0], shards=roots, lease_seconds=0.2,
                             reap_interval=60.0) as coord:
                fq = FabricQueue(coord.address, name="w0")
                fq.attach()
                shards = self._script(fq)
                counts = fq.counts()
                assert fq.degraded is False
                fq.close()
        else:
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            addr = probe.getsockname()[:2]
            probe.close()  # nothing listens here
            fq = FabricQueue(addr, roots=roots, name="w0", rpc_timeout=0.05,
                             deadline=0.1, probe_base=8.0, lease_seconds=0.2)
            shards = self._script(fq)
            counts = fq.counts()
            assert fq.degraded is True
        return shards, counts, self._journals(roots)

    def test_same_script_same_journal_ops(self, tmp_path, monkeypatch):
        attached = self._run(tmp_path, monkeypatch, "attached")
        degraded = self._run(tmp_path, monkeypatch, "degraded")
        assert attached == degraded
        shards, counts, journals = attached
        assert set(shards) == {0, 1}  # the token rotation reached both
        assert counts == {"pending": 3, "running": 0, "done": 1,
                          "failed": 1, "cancelled": 0}
        assert sum(op["op"] == "claim" for ops in journals
                   for op in ops) == 4

    @pytest.mark.parametrize("mode", ["attached", "degraded"])
    def test_retried_claim_token_returns_same_record(self, tmp_path,
                                                     monkeypatch, mode):
        roots = [tmp_path / "a", tmp_path / "b"]
        submit_n(JobQueue(roots[0]), 2)
        submit_n(JobQueue(roots[1]), 2)
        # one logical claim sent twice: token 1 starts the walk on
        # shard 1, where the first send commits
        monkeypatch.setattr("repro.jobs.fabric.client.new_token",
                            lambda: "00000001" + "0" * 24)
        with Coordinator(roots[0], shards=roots, lease_seconds=30.0,
                         reap_interval=60.0) as coord:
            fq = FabricQueue(coord.address, roots=roots, name="w0",
                             rpc_timeout=0.2, deadline=0.4)
            if mode == "degraded":
                coord.stop()
            first, again = fq.claim(), fq.claim()
            assert fq.degraded is (mode == "degraded")
            fq.close()
        assert first["shard"] == again["shard"] == 1
        assert first["id"] == again["id"]
        running = [JobQueue(r).counts()["running"] for r in roots]
        assert running == [0, 1]  # never a second job
