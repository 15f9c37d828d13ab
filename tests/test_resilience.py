"""Tests for guarded stepping, durable checkpoints, and fault injection."""

import json

import numpy as np
import pytest

from repro.io import (
    CheckpointError,
    RunConfig,
    find_latest_valid,
    load_checkpoint,
    restore_solver,
    rotate_checkpoints,
    save_checkpoint,
    verify_checkpoint,
)
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree
from repro.resilience import (
    EvolutionAborted,
    FaultInjector,
    HealthMonitor,
    RetryPolicy,
    RunJournal,
    SupervisedRun,
    det_gt_drift,
    read_journal,
    state_max_abs,
    summarize,
)
from repro.solver import WaveSolver


@pytest.fixture()
def small_config():
    return RunConfig(
        name="test",
        mass_ratio=1.0,
        domain_half_width=12.0,
        base_level=2,
        max_level=3,
        t_end=0.1,
        extraction_radii=[8.0],
    )


def _wave_solver(**kwargs):
    mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))
    solver = WaveSolver(mesh, ko_sigma=0.05, **kwargs)
    rng = np.random.default_rng(42)
    solver.state = rng.normal(scale=0.01, size=solver.state.shape)
    return solver


class TestHealthScans:
    def test_state_max_abs(self):
        u = np.full((2, 3, 4), 0.5)
        u[1, 2, 3] = -7.0
        assert state_max_abs(u) == 7.0

    def test_state_max_abs_nan_propagates(self):
        u = np.ones((2, 8))
        u[0, 3] = np.nan
        assert np.isnan(state_max_abs(u))

    def test_det_drift_zero_on_identity(self, small_config):
        solver = small_config.build_solver()
        assert det_gt_drift(solver.state) < 1e-12

    def test_det_drift_detects_perturbation(self, small_config):
        from repro.bssn import state as S

        solver = small_config.build_solver()
        u = solver.state.copy()
        u[S.GT_SYM_SLICE][0] += 0.1  # push det(gt) off 1
        assert det_gt_drift(u) > 1e-3

    def test_pooled_matches_poolless(self, small_config):
        from repro.perf import BufferPool

        solver = small_config.build_solver()
        pool = BufferPool()
        assert det_gt_drift(solver.state, pool=pool) == det_gt_drift(
            solver.state
        )
        assert state_max_abs(solver.state, pool=pool) == state_max_abs(
            solver.state
        )


class TestHealthMonitor:
    def test_clean_bssn_state_passes(self, small_config):
        solver = small_config.build_solver()
        report = HealthMonitor().scan(solver.state)
        assert report.ok
        assert "max-abs" in report.values
        assert "det-drift" in report.values

    def test_nan_fails(self, small_config):
        solver = small_config.build_solver()
        solver.state[3, 0, 0, 0, 0] = np.nan
        report = HealthMonitor().scan(solver.state)
        assert not report.ok
        assert "nonfinite" in report.failures

    def test_blowup_threshold(self):
        u = np.full((2, 4), 1e9)
        report = HealthMonitor(max_abs=1e8).scan(u)
        assert not report.ok
        assert "det-drift" not in report.values  # not a BSSN state

    def test_det_drift_fails(self, small_config):
        from repro.bssn import state as S

        solver = small_config.build_solver()
        solver.state[S.GT_SYM_SLICE][0] += 0.1
        report = HealthMonitor().scan(solver.state)
        assert not report.ok
        assert report.failures == ["det-drift"]

    def test_list_of_rank_states(self):
        clean = [np.ones((2, 4)), np.ones((2, 4))]
        assert HealthMonitor().scan(clean).ok
        clean[1][0, 0] = np.inf
        assert not HealthMonitor().scan(clean).ok

    def test_constraint_cadence(self, small_config):
        solver = small_config.build_solver()
        mon = HealthMonitor(constraint_every=1, ham_limit=1e-12)
        report = mon.scan(solver.state, step=1, solver=solver)
        assert not report.ok
        assert "ham-limit" in report.failures


class TestRunJournal:
    def test_event_sequence_and_counts(self):
        j = RunJournal()
        j.event("rollback", step=3)
        j.event("rollback", step=4)
        j.event("checkpoint", path="x")
        assert j.count("rollback") == 2
        assert [e["seq"] for e in j.events] == [0, 1, 2]

    def test_jsonl_round_trip(self, tmp_path):
        p = tmp_path / "run.jsonl"
        with RunJournal(p) as j:
            j.event("rollback", reasons=["nonfinite"],
                    value=np.float64(3.5), arr=np.arange(3))
        events = read_journal(p)
        assert events[0]["value"] == 3.5
        assert events[0]["arr"] == [0, 1, 2]

    def test_torn_final_line_tolerated(self, tmp_path):
        p = tmp_path / "run.jsonl"
        with RunJournal(p) as j:
            j.event("a")
            j.event("b")
        with open(p, "a") as fh:
            fh.write('{"seq": 2, "kind": "torn-by-cra')
        with pytest.warns(UserWarning, match="torn final line"):
            events = read_journal(p)
        assert [e["kind"] for e in events] == ["a", "b"]

    def test_torn_middle_line_raises(self, tmp_path):
        p = tmp_path / "run.jsonl"
        p.write_text('{"broken\n{"seq": 0, "kind": "ok"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_journal(p)

    def test_summarize(self):
        j = RunJournal()
        j.event("rollback")
        j.event("halo-retry")
        j.event("abort", reason="x")
        s = summarize(j.events)
        assert s["rollbacks"] == 1
        assert s["halo_retries"] == 1
        assert s["aborted"]


class TestFaultInjector:
    def test_fires_once_per_scheduled_step(self):
        inj = FaultInjector(seed=1, nan_burst_steps=(3,))
        u = np.zeros((4, 5, 5))
        assert inj.maybe_corrupt(u, 2) is None
        event = inj.maybe_corrupt(u, 3)
        assert event["fault"] == "nan-burst"
        assert np.isnan(u).any()
        u2 = np.zeros((4, 5, 5))
        assert inj.maybe_corrupt(u2, 3) is None  # each burst fires once

    def test_deterministic_replay(self):
        logs = []
        for _ in range(2):
            inj = FaultInjector(seed=9, nan_burst_steps=(1, 2))
            u = np.zeros((6, 10, 10))
            inj.maybe_corrupt(u, 1)
            inj.maybe_corrupt(u, 2)
            logs.append(inj.log)
        assert logs[0] == logs[1]


class TestSupervisedRun:
    def test_clean_run_matches_unsupervised(self):
        a, b = _wave_solver(), _wave_solver()
        run = SupervisedRun(a, monitor=HealthMonitor())
        for _ in range(3):
            run.step()
            b.step()
        assert np.array_equal(a.state, b.state)
        assert run.rollbacks == 0

    def test_regrid_defaults_to_the_solvers_tolerance(self):
        """Without ``regrid_eps`` a supervised run regrids where
        ``Solver.evolve`` does (``WaveSolver.default_regrid_eps``, 1e-4),
        not at the BSSN tolerance: this pulse's wavelets put 24 more
        octants above 1e-4 than above 1e-3."""
        from repro.jobs import state_digest

        def pulse():
            mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))
            solver = WaveSolver(mesh)
            solver.state[0] = np.exp(-(mesh.coordinates() ** 2).sum(-1) / 9.0)
            return solver

        a, b = pulse(), pulse()
        t_end = 2 * a.dt
        a.evolve(t_end, regrid_every=1, max_level=3)
        SupervisedRun(b).run(t_end, regrid_every=1, max_level=3)
        assert a.mesh.num_octants == b.mesh.num_octants == 456
        assert state_digest(a.state) == state_digest(b.state)

    def test_nan_burst_rollback_and_recovery(self, small_config):
        solver = small_config.build_solver()
        injector = FaultInjector(seed=3, nan_burst_steps=(2,))
        journal = RunJournal()
        run = SupervisedRun(solver, journal=journal, injector=injector,
                            monitor=HealthMonitor())
        for _ in range(4):
            run.step()
        assert run.rollbacks >= 1
        assert np.all(np.isfinite(solver.state))
        assert journal.count("fault-injected") == 1
        assert journal.count("rollback") == run.rollbacks
        # the retry ran at reduced dt
        assert solver.courant < 0.25

    def test_matches_clean_lower_dt_run(self, small_config):
        solver = small_config.build_solver()
        run = SupervisedRun(
            solver, monitor=HealthMonitor(),
            injector=FaultInjector(seed=3, nan_burst_steps=(1,)),
        )
        for _ in range(3):
            run.step()
        ref = small_config.build_solver()
        ref.courant *= 0.5
        while ref.t < solver.t - 1e-12:
            ref.step()
        scale = float(np.max(np.abs(ref.state)))
        assert np.max(np.abs(ref.state - solver.state)) / scale < 1e-3

    def test_degrade_abort(self):
        solver = _wave_solver()
        run = SupervisedRun(
            solver,
            monitor=HealthMonitor(max_abs=1e-12),  # everything fails
            policy=RetryPolicy(max_retries=1, degrade="abort"),
        )
        with pytest.raises(EvolutionAborted) as err:
            run.step()
        assert err.value.report["rollbacks"] == 2
        assert "max-abs" in err.value.report["reason"]

    def test_degrade_flag_accepts_step(self):
        solver = _wave_solver()
        journal = RunJournal()
        run = SupervisedRun(
            solver,
            monitor=HealthMonitor(max_abs=1e-12),
            policy=RetryPolicy(max_retries=1, degrade="flag"),
            journal=journal,
        )
        run.step()
        assert run.flagged_steps == [1]
        assert solver.step_count == 1
        assert journal.count("flagged-step") == 1

    def test_min_courant_floor_aborts(self):
        solver = _wave_solver()
        run = SupervisedRun(
            solver,
            monitor=HealthMonitor(max_abs=1e-12),
            policy=RetryPolicy(max_retries=100,
                               min_courant_factor=2.0**-3),
        )
        with pytest.raises(EvolutionAborted) as err:
            run.step()
        assert "floor" in err.value.report["reason"]

    def test_healing_restores_dt(self):
        solver = _wave_solver()
        run = SupervisedRun(solver, monitor=HealthMonitor(),
                            policy=RetryPolicy(heal_after=2))
        base = solver.courant
        solver.courant = base * 0.25  # as if two rollbacks happened
        run._base_courant = base
        for _ in range(5):
            run.step()
        assert solver.courant == base  # healed in two doublings
        assert run.journal.count("dt-restored") == 2

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(degrade="panic")
        with pytest.raises(ValueError):
            RetryPolicy(dt_factor=1.5)

    def test_checkpoint_cadence_and_rotation(self, tmp_path):
        solver = _wave_solver()
        run = SupervisedRun(solver, monitor=HealthMonitor(),
                            checkpoint_dir=tmp_path, checkpoint_every=1,
                            keep=2)
        for _ in range(4):
            run.step()
            run.write_checkpoint()
        files = sorted(tmp_path.glob("chk_*.npz"))
        assert [f.name for f in files] == ["chk_00000003.npz",
                                           "chk_00000004.npz"]


class TestCheckpointV2:
    def test_meta_carries_params_and_digest(self, small_config, tmp_path):
        solver = small_config.build_solver()
        solver.step()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)
        _, _, meta = load_checkpoint(p)
        assert meta["version"] == 2
        assert meta["params"]["eta"] == solver.params.eta
        assert len(meta["sha256"]) == 64

    def test_punctures_round_trip(self, small_config, tmp_path):
        from repro.solver import PunctureTracker

        solver = small_config.build_solver()
        solver.step()
        solver.tracker = PunctureTracker(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], masses=[0.5, 0.5]
        )
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)
        restored = restore_solver(p)
        assert restored.tracker.num_punctures == 2
        assert np.allclose(restored.tracker.positions[0], [1.0, 0.0, 0.0])
        assert restored.tracker.masses == [0.5, 0.5]
        # params came from the file, not defaults
        assert restored.params == solver.params

    def test_bit_flip_detected(self, small_config, tmp_path):
        solver = small_config.build_solver()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncation_detected(self, small_config, tmp_path):
        solver = small_config.build_solver()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)
        p.write_bytes(p.read_bytes()[:256])
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(p)

    def test_atomic_write_crash_leaves_no_litter(self, small_config,
                                                 tmp_path, monkeypatch):
        import os as _os

        solver = small_config.build_solver()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)  # pre-existing good checkpoint
        good = p.read_bytes()

        solver.step()

        def crash(src, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(_os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            save_checkpoint(p, solver)
        monkeypatch.undo()
        # the old checkpoint is untouched and no temp files remain
        assert p.read_bytes() == good
        assert list(tmp_path.glob("*.tmp.*")) == []
        load_checkpoint(p)

    def test_v1_migration(self, small_config, tmp_path):
        solver = small_config.build_solver()
        solver.step()
        tree = solver.mesh.tree
        meta = {
            "version": 1,
            "t": solver.t,
            "step_count": solver.step_count,
            "courant": solver.courant,
            "r": solver.mesh.r,
            "k": solver.mesh.k,
            "domain": [tree.domain.xmin, tree.domain.xmax],
        }
        p = tmp_path / "old.npz"
        np.savez_compressed(
            p,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            x=tree.octants.x, y=tree.octants.y, z=tree.octants.z,
            level=tree.octants.level, state=solver.state,
        )
        _, state, loaded = load_checkpoint(p)
        assert loaded["version"] == 2
        assert loaded["migrated_from"] == 1
        assert loaded["sha256"] is None
        assert np.array_equal(state, solver.state)
        with pytest.warns(UserWarning, match="default BSSNParams"):
            restored = restore_solver(p)
        assert restored.t == pytest.approx(solver.t)

    def test_unsupported_version_rejected(self, small_config, tmp_path):
        solver = small_config.build_solver()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)
        with np.load(p) as data:
            arrays = {k: np.array(data[k])
                      for k in ("x", "y", "z", "level", "state")}
            meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 99
        np.savez_compressed(
            p, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(p)

    def test_unbalanced_octree_rejected(self, tmp_path):
        from repro.octree.keys import LATTICE

        c = np.array([int(LATTICE) // 2], dtype=np.uint64)
        t = LinearOctree.uniform(1)
        for _ in range(4):  # point refinement: maximally unbalanced
            flags = np.zeros(len(t), dtype=bool)
            flags[t.locate(c, c, c)[0]] = True
            t = t.refine(flags)
        meta = {"version": 1, "t": 0.0, "step_count": 0, "courant": 0.25,
                "r": 7, "k": 2,
                "domain": [t.domain.xmin, t.domain.xmax]}
        p = tmp_path / "stale.npz"
        np.savez_compressed(
            p, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            x=t.octants.x, y=t.octants.y, z=t.octants.z,
            level=t.octants.level,
            state=np.zeros((24, len(t), 7, 7, 7)),
        )
        with pytest.raises(CheckpointError, match="not 2:1 balanced"):
            load_checkpoint(p)
        assert verify_checkpoint(p)["valid"] is False

    def test_rotation(self, small_config, tmp_path):
        solver = small_config.build_solver()
        for i in range(1, 5):
            save_checkpoint(tmp_path / f"chk_{i:08d}.npz", solver)
        removed = rotate_checkpoints(tmp_path, keep=2)
        assert len(removed) == 2
        names = sorted(f.name for f in tmp_path.glob("chk_*.npz"))
        assert names == ["chk_00000003.npz", "chk_00000004.npz"]
        with pytest.raises(ValueError):
            rotate_checkpoints(tmp_path, keep=0)

    def test_save_with_keep_rotates(self, small_config, tmp_path):
        solver = small_config.build_solver()
        for i in range(1, 4):
            save_checkpoint(tmp_path / f"chk_{i:08d}.npz", solver, keep=2)
        assert len(list(tmp_path.glob("chk_*.npz"))) == 2


class TestAutoResume:
    def _three_checkpoints(self, small_config, tmp_path):
        solver = small_config.build_solver()
        paths = []
        for _ in range(3):
            solver.step()
            p = tmp_path / f"chk_{solver.step_count:08d}.npz"
            save_checkpoint(p, solver)
            paths.append(p)
        return solver, paths

    def test_find_latest_valid_skips_corrupt(self, small_config, tmp_path):
        _, paths = self._three_checkpoints(small_config, tmp_path)
        # newest truncated, second-newest bit-flipped
        paths[2].write_bytes(paths[2].read_bytes()[:200])
        blob = bytearray(paths[1].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        paths[1].write_bytes(bytes(blob))
        with pytest.warns(UserWarning, match="skipping invalid"):
            best = find_latest_valid(tmp_path)
        assert best == paths[0]

    def test_find_latest_valid_prefers_newest(self, small_config, tmp_path):
        _, paths = self._three_checkpoints(small_config, tmp_path)
        assert find_latest_valid(tmp_path) == paths[2]

    def test_find_latest_valid_empty(self, tmp_path):
        assert find_latest_valid(tmp_path) is None
        assert find_latest_valid(tmp_path / "missing") is None

    def test_resume_continues_run(self, small_config, tmp_path):
        solver, paths = self._three_checkpoints(small_config, tmp_path)
        run = SupervisedRun.resume(tmp_path, monitor=HealthMonitor())
        assert run.solver.step_count == 3
        assert run.journal.count("resume") == 1
        run.step()
        solver.step()
        assert np.allclose(run.solver.state, solver.state, atol=1e-14)

    def test_resume_without_checkpoints_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SupervisedRun.resume(tmp_path)


class TestIOCLI:
    def test_checkpoint_verify_and_info(self, small_config, tmp_path,
                                        capsys):
        from repro.io.cli import io_main

        solver = small_config.build_solver()
        solver.step()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)
        assert io_main(["checkpoint-verify", str(p)]) == 0
        assert "VALID" in capsys.readouterr().out
        assert io_main(["checkpoint-info", str(p)]) == 0
        out = capsys.readouterr().out
        assert "sha256" in out and "params" in out

        p.write_bytes(p.read_bytes()[:100])
        assert io_main(["checkpoint-verify", str(p)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_find_latest_cli(self, small_config, tmp_path, capsys):
        from repro.io.cli import io_main

        assert io_main(["find-latest", str(tmp_path)]) == 1
        solver = small_config.build_solver()
        p = tmp_path / "chk_00000001.npz"
        save_checkpoint(p, solver)
        assert io_main(["find-latest", str(tmp_path)]) == 0
        assert str(p) in capsys.readouterr().out
