"""Tests for comm failure semantics: timeouts, retries, fault injection,
resilient halo exchange, and rank-death recovery."""

import numpy as np
import pytest

from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree, partition_octree
from repro.parallel import (
    DistributedSolver,
    HaloExchangeError,
    MessageTimeout,
    RankDeadError,
    SimComm,
    build_halo_plan,
    exchange_ghosts,
)
from repro.resilience import (
    FaultyComm,
    HealthMonitor,
    RunJournal,
    SupervisedRun,
)
from repro.solver import WaveSolver


def _partitioned_mesh(nranks=3):
    mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))
    part = partition_octree(mesh.tree, nranks)
    return mesh, part


def _wave_pair(comm=None, nranks=3):
    """(distributed solver over ``comm``, the fault-free
    single-address-space solver it must end bitwise equal to)."""
    mesh, part = _partitioned_mesh(nranks)
    rng = np.random.default_rng(7)
    u0 = rng.normal(scale=0.01, size=(2, mesh.num_octants, 7, 7, 7))
    clean = WaveSolver(mesh, ko_sigma=0.05)
    clean.state = u0.copy()
    faulty = DistributedSolver(WaveSolver(mesh, ko_sigma=0.05), part,
                               comm=comm)
    faulty.state = u0.copy()
    return faulty, clean


class TestSimCommEdgeCases:
    def test_empty_queue_times_out(self):
        comm = SimComm(2)
        with pytest.raises(MessageTimeout):
            comm.rank(0).recv(1)
        # MessageTimeout must remain a RuntimeError (legacy contract)
        with pytest.raises(RuntimeError):
            comm.rank(0).recv(1)

    def test_out_of_range_ranks(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.rank(5)
        with pytest.raises(ValueError):
            comm.rank(-1)
        with pytest.raises(ValueError):
            comm.rank(0).send(7, np.zeros(3))
        with pytest.raises(ValueError):
            comm.rank(0).recv(7)

    def test_fifo_order_and_pending(self):
        comm = SimComm(2)
        ep = comm.rank(0)
        ep.send(1, np.array([1.0]))
        ep.send(1, np.array([2.0]))
        assert comm.pending(0, 1) == 2
        assert comm.rank(1).recv(0)[0] == 1.0
        assert comm.rank(1).recv(0)[0] == 2.0
        assert comm.pending(0, 1) == 0

    def test_edge_seq_monotone_per_edge(self):
        comm = SimComm(3)
        assert comm.edge_seq(0, 1) == 0
        comm.rank(0).send(1, np.zeros(2))
        comm.rank(0).send(1, np.zeros(2))
        comm.rank(0).send(2, np.zeros(2))
        assert comm.edge_seq(0, 1) == 2
        assert comm.edge_seq(0, 2) == 1
        seq, _ = comm.rank(1).recv_tagged(0)
        assert seq == 1

    def test_payloads_are_copied(self):
        comm = SimComm(2)
        payload = np.ones(4)
        comm.rank(0).send(1, payload)
        payload[:] = -1.0
        assert np.all(comm.rank(1).recv(0) == 1.0)

    def test_drain_discards_in_flight(self):
        comm = SimComm(2)
        comm.rank(0).send(1, np.zeros(2))
        comm.drain()
        assert comm.pending(0, 1) == 0
        # sequence numbers survive a drain (stale msgs stay detectable)
        assert comm.edge_seq(0, 1) == 1

    def test_retry_accounting_on_timeout(self):
        comm = SimComm(2)
        with pytest.raises(MessageTimeout):
            comm.rank(1).recv(0, retries=3)
        assert comm.recv_retries[1] == 3
        assert comm.recv_retries[0] == 0

    def test_byte_accounting(self):
        comm = SimComm(2)
        comm.rank(0).send(1, np.zeros(10))  # 80 bytes
        comm.rank(1).send(0, np.zeros(5))   # 40 bytes
        assert comm.bytes_sent[0] == 80
        assert comm.bytes_sent[1] == 40
        assert comm.total_bytes() == 120
        assert list(comm.messages_sent) == [1, 1]


class TestFaultyComm:
    def test_deterministic_replay(self):
        logs = []
        for _ in range(2):
            comm = FaultyComm(2, seed=13, drop_prob=0.3, corrupt_prob=0.2,
                              delay_prob=0.2)
            for i in range(30):
                comm.rank(0).send(1, np.full(4, float(i)))
            logs.append(list(comm.log))
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0

    def test_drop_counts_bytes_but_never_delivers(self):
        comm = FaultyComm(2, seed=0, drop_prob=1.0)
        comm.rank(0).send(1, np.zeros(10))
        assert comm.bytes_sent[0] == 80
        assert comm.pending(0, 1) == 0
        assert comm.edge_seq(0, 1) == 1  # lost packet consumed its seq

    def test_corrupt_injects_nan(self):
        comm = FaultyComm(2, seed=0, corrupt_prob=1.0)
        original = np.ones(64)
        comm.rank(0).send(1, original)
        got = comm.rank(1).recv(0)
        assert np.isnan(got).any()
        assert np.all(original == 1.0)  # sender's buffer untouched

    def test_delayed_message_arrives_after_retries(self):
        comm = FaultyComm(2, seed=0, delay_prob=1.0, max_delay=2)
        comm.rank(0).send(1, np.full(3, 5.0))
        assert comm.bytes_sent[0] == 24  # counted when sent
        # arrives only after max_delay recv attempts on the edge
        got = comm.rank(1).recv(0, retries=comm.max_delay)
        assert np.all(got == 5.0)
        assert comm.recv_retries[1] > 0

    def test_kill_rank_raises_then_revives(self):
        comm = FaultyComm(2, seed=0)
        comm.kill_rank(0, dead_for=2)
        assert comm.dead_ranks() == {0}
        comm.rank(0).send(1, np.ones(2))  # lost: sender is dead
        assert comm.pending(0, 1) == 0
        for _ in range(2):
            with pytest.raises(RankDeadError):
                comm.rank(1).recv(0)
        # auto-revived: delivery works again
        assert comm.dead_ranks() == set()
        comm.rank(0).send(1, np.full(2, 3.0))
        assert np.all(comm.rank(1).recv(0) == 3.0)

    def test_kill_rank_validates_range(self):
        with pytest.raises(ValueError):
            FaultyComm(2, seed=0).kill_rank(9)

    def test_drain_clears_delayed(self):
        comm = FaultyComm(2, seed=0, delay_prob=1.0)
        comm.rank(0).send(1, np.ones(2))
        comm.drain()
        with pytest.raises(MessageTimeout):
            comm.rank(1).recv(0, retries=5)


class TestResilientHaloExchange:
    def test_clean_traffic_identical_with_and_without_guards(self):
        mesh, part = _partitioned_mesh()
        plan = build_halo_plan(mesh, part)
        u = np.random.default_rng(0).normal(
            size=(2, mesh.num_octants, 7, 7, 7)
        )
        locals_ = [u[:, part.offsets[r]: part.offsets[r + 1]]
                   for r in range(part.num_parts)]
        c1, c2 = SimComm(part.num_parts), SimComm(part.num_parts)
        g1 = exchange_ghosts(plan, locals_, c1, dof=2)
        g2 = exchange_ghosts(plan, locals_, c2, dof=2,
                             max_retries=2, validate=True)
        assert list(c1.bytes_sent) == list(c2.bytes_sent)
        assert list(c1.messages_sent) == list(c2.messages_sent)
        for a, b in zip(g1, g2):
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_dropped_halo_recovered_bitwise(self):
        comm = FaultyComm(3, seed=11, drop_prob=0.02)
        faulty, clean = _wave_pair(comm)
        journal = RunJournal()
        faulty.journal = journal
        for _ in range(3):
            clean.step()
            faulty.step()
        drops = sum(1 for e in comm.log if e["fault"] == "drop")
        assert drops > 0
        assert journal.count("halo-retry") >= 1
        assert np.array_equal(faulty.state, clean.state)
        # retransmissions cost extra traffic over a clean run's
        # 3 steps x 4 exchanges
        clean_bytes = 12 * faulty.halo.bytes_per_exchange(r=7, dof=2).sum()
        assert faulty.bytes_communicated() > clean_bytes

    def test_corrupted_halo_detected_and_resent(self):
        comm = FaultyComm(3, seed=2, corrupt_prob=0.05)
        faulty, clean = _wave_pair(comm)
        journal = RunJournal()
        faulty.journal = journal
        for _ in range(3):
            clean.step()
            faulty.step()
        corrupts = sum(1 for e in comm.log if e["fault"] == "corrupt")
        assert corrupts > 0
        retries = [e for e in journal.events if e["kind"] == "halo-retry"]
        assert any(e["reason"] == "corrupt" for e in retries)
        assert np.array_equal(faulty.state, clean.state)

    def test_budget_exhaustion_raises(self):
        comm = FaultyComm(3, seed=0, drop_prob=1.0)
        faulty, _ = _wave_pair(comm)
        with pytest.raises(HaloExchangeError):
            faulty.step()

    def test_non_resilient_path_unchanged(self):
        comm = FaultyComm(3, seed=0, drop_prob=1.0)
        faulty, _ = _wave_pair(comm)
        faulty.halo_retries = 0
        with pytest.raises(MessageTimeout):
            faulty.step()


class TestDeadRankRecovery:
    def test_supervised_run_survives_rank_death(self):
        comm = FaultyComm(3, seed=5)
        faulty, clean = _wave_pair(comm)
        journal = RunJournal()
        faulty.journal = journal
        run = SupervisedRun(faulty, journal=journal,
                            monitor=HealthMonitor())
        clean.step()
        run.step()
        comm.kill_rank(1, dead_for=2)
        clean.step()
        run.step()  # fails twice, rank revives, third attempt succeeds
        clean.step()
        run.step()
        assert run.rollbacks >= 1
        # transient failure: dt was NOT reduced
        assert faulty.courant == clean.courant
        assert np.array_equal(faulty.state, clean.state)
        rollback_events = [e for e in journal.events
                           if e["kind"] == "rollback"]
        assert any("RankDeadError" in r for e in rollback_events
                   for r in e["reasons"])

    def test_unsupervised_rank_death_propagates(self):
        comm = FaultyComm(3, seed=5)
        faulty, _ = _wave_pair(comm)
        comm.kill_rank(1, dead_for=99)
        with pytest.raises(RankDeadError):
            faulty.step()
