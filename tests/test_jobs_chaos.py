"""Tests for the network chaos harness and the chaos-matrix checks.

:class:`repro.resilience.ChaosProxy` must inject faults deterministically
(seeded, like ``FaultyComm``), and the fabric must keep its exactly-once
guarantee underneath each of them.  The full four-scenario matrix runs in
the ``fabric-chaos`` CI job; here we pin the proxy semantics and run one
end-to-end scenario (partition → degraded mode → heal) in quick mode.
"""

import time

import pytest

from repro.jobs import JobQueue
from repro.jobs.fabric import Coordinator, FabricClient, FabricQueue
from repro.jobs.fabric.chaos import (
    _digest_match,
    exactly_once,
    run_matrix,
)
from repro.resilience import ChaosProxy


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


def drain_via(address, root, n_jobs):
    """Claim/complete every job through ``address``; returns fault-free
    completion count."""
    fq = FabricQueue(address, name="w0", rpc_timeout=0.5, deadline=15.0)
    done = 0
    while done < n_jobs:
        rec = fq.claim()
        if rec is None:
            time.sleep(0.01)
            continue
        fq.complete(rec["id"], {"n": done}, attempt=rec["attempts"])
        done += 1
    return done


class TestChaosProxy:
    def test_passthrough(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 3)
        proxy = ChaosProxy(coord.address, seed=1).start()
        try:
            assert drain_via(proxy.address, tmp_path, 3) == 3
            assert proxy.log == []  # zero probabilities: no faults
        finally:
            proxy.stop()
        assert exactly_once(tmp_path)["ok"]

    def test_duplicates_collapsed_by_tokens(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 4)
        proxy = ChaosProxy(coord.address, seed=2, dup_prob=0.5).start()
        try:
            drain_via(proxy.address, tmp_path, 4)
        finally:
            proxy.stop()
        dups = [e for e in proxy.log if e["fault"] == "duplicate"]
        assert dups  # the storm actually happened
        audit = exactly_once(tmp_path)
        assert audit["ok"], audit["problems"]

    def test_drops_retried_exactly_once(self, tmp_path, coord):
        submit_n(JobQueue(tmp_path), 3)
        proxy = ChaosProxy(coord.address, seed=3, drop_prob=0.25).start()
        try:
            drain_via(proxy.address, tmp_path, 3)
        finally:
            proxy.stop()
        audit = exactly_once(tmp_path)
        assert audit["ok"], audit["problems"]

    def test_fault_schedule_deterministic(self, tmp_path, coord):
        # identical seed + identical traffic → identical fault schedule
        logs = []
        for round_ in range(2):
            root = tmp_path / f"r{round_}"
            c = Coordinator(root, lease_seconds=30.0, reap_interval=60.0)
            with c:
                submit_n(JobQueue(root), 3)
                proxy = ChaosProxy(c.address, seed=99, dup_prob=0.3,
                                   delay_prob=0.2,
                                   delay_seconds=0.001).start()
                try:
                    drain_via(proxy.address, root, 3)
                finally:
                    proxy.stop()
            logs.append([(e["fault"], e["dir"], e["conn"], e["msg"])
                         for e in proxy.log])
        assert logs[0] == logs[1]

    def test_partition_refuses_and_heals(self, tmp_path, coord):
        proxy = ChaosProxy(coord.address, seed=4).start()
        try:
            client = FabricClient(proxy.address, rpc_timeout=0.3,
                                  deadline=0.6)
            assert client.call("hello")["epoch"] == coord.epoch
            proxy.partition(None)  # until heal()
            from repro.jobs.fabric import CoordinatorUnreachable

            client.close()
            with pytest.raises(CoordinatorUnreachable):
                client.call("hello")
            proxy.heal()
            assert client.call("hello",
                               deadline=10.0)["epoch"] == coord.epoch
        finally:
            proxy.stop()


class TestMatrixChecks:
    def test_exactly_once_flags_duplicates_and_stragglers(self, tmp_path):
        q = JobQueue(tmp_path)
        a, b = submit_n(q, 2)
        q.claim("w0")
        q.complete(a["id"], {})
        audit = exactly_once(tmp_path)
        assert not audit["ok"]  # b is still pending
        assert any(b["id"] in p for p in audit["problems"])

    def test_digest_match(self):
        ref = {"k1": "aa", "k2": "bb"}
        assert _digest_match(ref, {"k1": "aa"})["ok"]
        assert not _digest_match(ref, {"k1": "XX"})["ok"]
        assert not _digest_match(ref, {"k3": "cc"})["ok"]
        assert not _digest_match(ref, {})["ok"]  # nothing compared

    @pytest.mark.parametrize("checks", [
        {"drained": False, "exactly_once": {"ok": True}},
        {"drained": True, "exactly_once": {"ok": False}},
    ])
    def test_scenario_passes_only_when_every_check_does(
            self, tmp_path, monkeypatch, checks):
        """A runner's own ``ok`` is not the verdict: one failed check
        (an audit dict by its own ``ok``) fails the scenario and the
        matrix, so PASS never sits above an ``XX`` line."""
        from repro.jobs.fabric import chaos

        monkeypatch.setattr(chaos, "run_reference", lambda workdir, cfgs: {})
        monkeypatch.setitem(chaos._RUNNERS, "restart", lambda *a, **k: {
            "name": "restart", "ok": True, "checks": checks})
        report = run_matrix(tmp_path, scenarios=["restart"], quick=True)
        assert not report["scenarios"][0]["ok"]
        assert not report["ok"]
        assert "restart        FAIL" in chaos.render_matrix(report)


class TestEndToEnd:
    def test_partition_scenario_quick(self, tmp_path):
        # one full scenario through the public entry point: real solver
        # jobs, live coordinator, proxy partition, degrade + heal
        report = run_matrix(tmp_path / "m", scenarios=["partition"],
                            quick=True, seed=11)
        assert report["ok"], report
        (scenario,) = report["scenarios"]
        assert scenario["checks"]["worked_through_partition"]
        assert (tmp_path / "m" / "chaos-report.json").is_file()
