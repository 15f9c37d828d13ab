"""Tests for checkpointing, parameter files, and CLI drivers."""

import json

import numpy as np
import pytest

from repro.codegen.backends import native_impl
from repro.io import RunConfig, load_checkpoint, preset, restore_solver, save_checkpoint
from repro.io.cli import bssn_main, tpid_main


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


class TestRunConfig:
    def test_round_trip_json(self, small_config, tmp_path):
        p = tmp_path / "run.par.json"
        small_config.save(p)
        loaded = RunConfig.load(p)
        assert loaded == small_config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_json(json.dumps({"massratio": 2}))

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mass_ratio=0.5).validate()
        with pytest.raises(ValueError):
            RunConfig(base_level=5, max_level=3).validate()
        with pytest.raises(ValueError):
            RunConfig(courant=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(domain_half_width=10.0,
                      extraction_radii=[20.0]).validate()

    def test_presets(self):
        for name in ("q1", "q2", "q4"):
            cfg = preset(name)
            cfg.validate()
            assert cfg.name == name
        with pytest.raises(ValueError):
            preset("q512")

    def test_preset_is_a_copy(self):
        a = preset("q1")
        a.max_level = 99
        assert preset("q1").max_level != 99

    def test_builders(self, small_config):
        solver = small_config.build_solver()
        assert solver.state is not None
        assert solver.mesh.num_octants >= 64
        assert solver.params.eta == small_config.eta


class TestCheckpoint:
    def test_round_trip(self, small_config, tmp_path):
        solver = small_config.build_solver()
        solver.step()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)

        mesh, state, meta = load_checkpoint(p)
        assert mesh.num_octants == solver.mesh.num_octants
        assert np.array_equal(state, solver.state)
        assert meta["t"] == pytest.approx(solver.t)

    def test_restore_and_continue(self, small_config, tmp_path):
        solver = small_config.build_solver()
        solver.step()
        p = tmp_path / "chk.npz"
        save_checkpoint(p, solver)

        restored = restore_solver(p, small_config.bssn_params())
        assert restored.t == pytest.approx(solver.t)
        assert restored.step_count == solver.step_count
        # both evolve identically from the checkpoint
        solver.step()
        restored.step()
        assert np.allclose(restored.state, solver.state, atol=1e-14)

    def test_no_state_raises(self, small_config, tmp_path):
        from repro.solver import BSSNSolver

        solver = BSSNSolver(small_config.build_mesh())
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.npz", solver)


class TestCLI:
    def test_tpid(self, small_config, tmp_path, capsys):
        p = tmp_path / "run.par.json"
        small_config.save(p)
        assert tpid_main([str(p)]) == 0
        out = capsys.readouterr().out
        assert "ham_l2" in out

    def test_bssn_run_and_checkpoint(self, small_config, tmp_path, capsys):
        p = tmp_path / "run.par.json"
        small_config.save(p)
        chk = tmp_path / "out.npz"
        assert bssn_main([str(p), "--steps", "1", "--checkpoint", str(chk)]) == 0
        assert chk.exists()
        # restart path
        assert bssn_main([str(p), "--steps", "1", "--restart", str(chk)]) == 0
        out = capsys.readouterr().out
        assert "restarted" in out

    @pytest.mark.skipif(native_impl() is None,
                        reason="cffi or a C compiler is missing")
    def test_restart_regrids_on_the_uninterrupted_steps(self, tmp_path, capsys):
        """4 steps straight against 2 → checkpoint → ``--restart`` → 2
        with ``regrid_every=3``: both regrid at step 3 (the loop index
        of the restarted run is 1 there) and end in the same state."""
        from repro.jobs import state_digest

        cfg = RunConfig(
            name="resume", mass_ratio=2.0, domain_half_width=16.0,
            base_level=1, max_level=3, regrid_every=3, regrid_eps=3e-3,
            backend="compiled", extraction_radii=[8.0],
        )
        par = tmp_path / "run.par.json"
        cfg.save(par)
        straight, half, resumed = (
            str(tmp_path / f"{name}.npz") for name in ("a", "h", "b"))

        def regrids(*argv):
            assert bssn_main([str(par), *argv]) == 0
            return [ln for ln in capsys.readouterr().out.splitlines()
                    if "regrid at step" in ln]

        expect = regrids("--steps", "4", "--checkpoint", straight)
        assert len(expect) == 1 and "regrid at step 3 ->" in expect[0]
        assert regrids("--steps", "2", "--checkpoint", half) == []
        assert regrids("--steps", "2", "--restart", half,
                       "--checkpoint", resumed) == expect
        a, b = (restore_solver(path, cfg.bssn_params(), backend="compiled")
                for path in (straight, resumed))
        assert a.step_count == b.step_count == 4
        assert state_digest(a.state) == state_digest(b.state)


class TestWaveformIO:
    def test_round_trip(self, tmp_path):
        import numpy as np

        from repro.gw.extraction import ModeTimeSeries
        from repro.io import load_modes, save_modes

        series = ModeTimeSeries()
        t = np.linspace(0, 5, 20)
        for i, ti in enumerate(t):
            series.append(ti, {(2, 2): np.exp(-1j * ti), (2, 0): 0.1 * ti})
        p = tmp_path / "modes.npz"
        save_modes(p, series, radius=50.0, metadata={"q": 1.0})
        loaded, radius, meta = load_modes(p)
        assert radius == 50.0
        assert meta["q"] == 1.0
        t2, c22 = loaded.series(2, 2)
        t1, c22_orig = series.series(2, 2)
        assert np.allclose(t1, t2)
        assert np.allclose(c22, c22_orig)

    def test_save_extractor(self, tmp_path):
        import numpy as np

        from repro.gw import WaveExtractor, gauss_legendre_rule
        from repro.io import load_modes, save_extractor
        from repro.mesh import Mesh
        from repro.octree import Domain, LinearOctree

        mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-12.0, 12.0)))
        c = mesh.coordinates()
        u = c[..., 0] * 0.01
        ex = WaveExtractor([6.0, 9.0], l_max=2, s=0,
                           rule=gauss_legendre_rule(6))
        ex.sample(mesh, u, 0.0)
        ex.sample(mesh, u, 0.5)
        paths = save_extractor(tmp_path / "catalog", ex)
        assert len(paths) == 2
        series, radius, _ = load_modes(paths[0])
        assert len(series.times) == 2
