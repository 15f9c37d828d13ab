"""Preemption-safety regression (ISSUE satellite): a supervised run
preempted mid-evolution and resumed from its checkpoint finishes
bitwise-identical to an uninterrupted run at the same dt.

Also covers the wave-mode RunConfig builders and the reusable
:func:`repro.analysis.estimate_run_cost` §III-D estimator.
"""

import math

import numpy as np
import pytest

from repro.analysis import JobCost, estimate_run_cost
from repro.codegen.backends import native_impl
from repro.io import (
    RunConfig,
    find_latest_valid,
    restore_wave_solver,
    save_checkpoint,
)
from repro.jobs import state_digest
from repro.jobs.worker import _build_or_resume
from repro.resilience import SupervisedRun
from repro.solver import WaveSolver


def wave_cfg(**kw):
    base = dict(name="w", solver="wave", domain_half_width=8.0,
                base_level=1, max_level=2, t_end=2.0, courant=0.25,
                ko_sigma=0.05, regrid_every=4, regrid_eps=3e-5,
                extraction_radii=[4.0])
    base.update(kw)
    return RunConfig(**base)


def run_supervised(solver, cfg, **kwargs):
    return SupervisedRun(solver, **kwargs).run(
        cfg.t_end, regrid_every=cfg.regrid_every,
        regrid_eps=cfg.regrid_eps, max_level=cfg.max_level,
    )


class TestWaveConfig:
    def test_build_solver(self):
        cfg = wave_cfg()
        solver = cfg.build_solver()
        assert isinstance(solver, WaveSolver)
        assert solver.mesh.num_octants == 8  # uniform base_level=1
        assert solver.courant == cfg.courant
        # deterministic Gaussian pulse: unit amplitude at the origin,
        # decaying outward, π = 0
        assert float(np.max(solver.state[0])) <= 1.0
        assert float(np.max(solver.state[0])) > 0.5
        assert float(np.max(np.abs(solver.state[1]))) == 0.0
        twin = wave_cfg(name="other-label").build_solver()
        np.testing.assert_array_equal(solver.state, twin.state)

    def test_validate_rejects_bad_solver(self):
        with pytest.raises(ValueError):
            wave_cfg(solver="maxwell").validate()
        with pytest.raises(ValueError):
            wave_cfg(t_end=0.0).validate()


class TestPreemptResume:
    def test_bitwise_identical_resume(self, tmp_path):
        cfg = wave_cfg()

        # uninterrupted twin
        ref = cfg.build_solver()
        ref_report = run_supervised(ref, cfg)
        assert ref_report["step_count"] >= 6

        # preempted run: checkpoint + yield once step 3 is reached
        ckdir = tmp_path / "ck"
        solver = cfg.build_solver()
        preempted = SupervisedRun(
            solver, checkpoint_dir=ckdir,
            preempt_check=lambda: solver.step_count >= 3,
        ).run(cfg.t_end, regrid_every=cfg.regrid_every,
              regrid_eps=cfg.regrid_eps, max_level=cfg.max_level)
        assert preempted["preempted"] is True
        assert preempted["step_count"] == 3
        assert preempted["checkpoint"]

        # resume from the checkpoint and march to the same t_end
        path = find_latest_valid(ckdir)
        assert path is not None
        resumed = restore_wave_solver(path, ko_sigma=cfg.ko_sigma)
        assert resumed.step_count == 3
        assert resumed.t == pytest.approx(solver.t)
        report = run_supervised(resumed, cfg)

        assert report["preempted"] is False
        assert report["step_count"] == ref_report["step_count"]
        assert report["t"] == ref_report["t"]
        # THE contract: bitwise-identical final state
        np.testing.assert_array_equal(resumed.state, ref.state)
        assert state_digest(resumed.state) == state_digest(ref.state)

    @pytest.mark.skipif(native_impl() is None,
                        reason="cffi or a C compiler is missing")
    @pytest.mark.parametrize("kind", ["wave", "bssn"])
    def test_resume_keeps_the_job_backend(self, tmp_path, kind):
        """A checkpoint holds state, not how it is executed: every resume
        path must re-supply the job's backend, or a preempted compiled
        job silently finishes on NumPy under a compiled cache key."""
        cfg = wave_cfg(backend="compiled") if kind == "wave" else RunConfig(
            name="b", base_level=1, max_level=2, t_end=1.0,
            backend="compiled")
        fresh, resumed_from = _build_or_resume(cfg, tmp_path)
        assert resumed_from is None and fresh.backend == "compiled"
        save_checkpoint(tmp_path / "chk_00000000.npz", fresh)

        solver, resumed_from = _build_or_resume(cfg, tmp_path)
        assert resumed_from is not None
        assert solver.backend == cfg.backend
        if kind == "bssn":
            run = SupervisedRun.resume(tmp_path, backend=cfg.backend)
            assert run.solver.backend == cfg.backend

    def test_preempt_before_first_step(self, tmp_path):
        cfg = wave_cfg(t_end=1.0)
        solver = cfg.build_solver()
        report = SupervisedRun(
            solver, checkpoint_dir=tmp_path, preempt_check=lambda: True,
        ).run(cfg.t_end)
        assert report["preempted"] is True
        assert report["step_count"] == 0
        assert find_latest_valid(tmp_path) is not None

    def test_no_preempt_check_runs_to_completion(self):
        cfg = wave_cfg(t_end=1.0)
        solver = cfg.build_solver()
        report = run_supervised(solver, cfg)
        assert report["preempted"] is False
        assert solver.t >= cfg.t_end - 1e-12


class TestCostModel:
    def test_estimate_fields(self):
        cfg = wave_cfg()
        cost = estimate_run_cost(cfg)
        assert isinstance(cost, JobCost)
        assert cost.octants == 8
        assert cost.dof == 2
        assert cost.per_step_seconds > 0.0
        assert cost.total_seconds == pytest.approx(
            cost.per_step_seconds * cost.steps)
        # steps = ceil(t_end / (courant * min_dx))
        tree = cfg.build_tree()
        min_dx = float(tree.domain.octant_dx(tree.levels, 7).min())
        assert cost.steps == max(1, math.ceil(cfg.t_end
                                              / (cfg.courant * min_dx)))

    def test_memoised_by_cache_key(self):
        cfg = wave_cfg()
        assert estimate_run_cost(cfg) is estimate_run_cost(
            wave_cfg(name="relabelled"))

    def test_scales_with_resolution_and_t_end(self):
        base = estimate_run_cost(wave_cfg())
        finer = estimate_run_cost(wave_cfg(base_level=2, max_level=3))
        longer = estimate_run_cost(wave_cfg(t_end=4.0))
        assert finer.octants > base.octants
        assert finer.total_seconds > base.total_seconds
        assert longer.steps > base.steps
        assert longer.total_seconds > base.total_seconds

    def test_bssn_dof(self):
        cost = estimate_run_cost(RunConfig(name="b", t_end=1.0,
                                           base_level=2, max_level=3))
        assert cost.dof == 24
        assert cost.total_seconds > 0.0
