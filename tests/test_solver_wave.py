"""Tests for the linear wave solver: propagation, extraction, AMR."""

import numpy as np
import pytest

from repro.gw import WaveExtractor, gauss_legendre_rule
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree
from repro.solver import GaussianSource, WaveSolver, courant_dt, rk4_step


class TestRK4:
    def test_exact_on_linear_ode(self):
        """du/dt = -u: one RK4 step matches exp(-dt) to O(dt^5)."""
        u0 = np.array([1.0])
        dt = 0.1
        u1 = rk4_step(lambda u, t: -u, u0, 0.0, dt)
        assert abs(u1[0] - np.exp(-dt)) < 1e-7

    def test_order_four(self):
        errs = []
        for dt in (0.1, 0.05):
            u = np.array([1.0])
            t = 0.0
            while t < 1.0 - 1e-12:
                u = rk4_step(lambda v, s: -v, u, t, dt)
                t += dt
            errs.append(abs(u[0] - np.exp(-1.0)))
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_post_stage_hook(self):
        calls = []
        rk4_step(lambda u, t: 0 * u, np.zeros(2), 0.0, 0.1,
                 post_stage=lambda u: calls.append(1))
        assert len(calls) == 4

    def test_courant(self):
        assert courant_dt(0.4, 0.25) == pytest.approx(0.1)


@pytest.fixture(scope="module")
def pulse_run():
    """Outgoing pulse from a compact source, evolved past the sample radius."""
    mesh = Mesh(LinearOctree.uniform(3, domain=Domain(-12.0, 12.0)))
    src = GaussianSource(lambda t: np.exp(-((t - 1.0) / 0.4) ** 2), width=1.0)
    ws = WaveSolver(mesh, source=src, ko_sigma=0.02)
    probes = {4.0: [], 8.0: []}
    times = []

    def on_step(s):
        times.append(s.t)
        for r in probes:
            probes[r].append(s.sample(np.array([[r, 0.0, 0.0]]))[0])

    ws.evolve(9.0, on_step=on_step)
    return ws, np.array(times), {r: np.array(v) for r, v in probes.items()}


class TestWavePropagation:
    def test_finite_and_nonzero(self, pulse_run):
        ws, times, probes = pulse_run
        assert np.isfinite(ws.state).all()
        assert np.abs(probes[4.0]).max() > 1e-4

    def test_unit_propagation_speed(self, pulse_run):
        """The pulse peak arrives at r=8 about 4 time units after r=4."""
        _, times, probes = pulse_run
        t4 = times[np.argmax(np.abs(probes[4.0]))]
        t8 = times[np.argmax(np.abs(probes[8.0]))]
        assert 2.5 < (t8 - t4) < 5.5

    def test_amplitude_falls_off(self, pulse_run):
        """Outgoing spherical wave decays ~1/r."""
        _, _, probes = pulse_run
        a4 = np.abs(probes[4.0]).max()
        a8 = np.abs(probes[8.0]).max()
        assert 1.3 < a4 / a8 < 3.5

    def test_boundary_lets_wave_leave(self, pulse_run):
        """After the pulse passes, the domain rings down (Sommerfeld)."""
        ws, _, _ = pulse_run
        e_final = ws.energy()
        # evolve further: energy keeps decreasing (radiating away)
        ws.evolve(ws.t + 2.0)
        assert ws.energy() < e_final * 1.05


class TestWaveSolverAMR:
    def test_regrid_follows_pulse(self):
        mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-12.0, 12.0)))
        src = GaussianSource(lambda t: np.exp(-((t - 0.6) / 0.3) ** 2), width=1.2)
        ws = WaveSolver(mesh, source=src, ko_sigma=0.02)
        n0 = ws.mesh.num_octants
        ws.evolve(2.0, regrid_every=4, regrid_eps=1e-5, max_level=4)
        assert ws.mesh.num_octants > n0
        assert np.isfinite(ws.state).all()


    def test_chunk_size_is_coerced_to_int(self):
        """A float chunk size (e.g. from a JSON sweep) must not reach
        ``range()`` in the chunk loop."""
        ws = WaveSolver(Mesh(LinearOctree.uniform(1)), chunk_octants=4.0)
        assert isinstance(ws.chunk, int)
        ws.step()


class TestSourceCache:
    """``source(coords, t)`` is evaluated once per time and octant range:
    RK4's two middle stages share ``t + dt/2`` and the last stage's
    ``t + dt`` is the next step's first."""

    @staticmethod
    def _run(backend, chunk=None, *, uncached=False, steps=3):
        from repro.codegen.backends import native_impl

        if backend == "compiled" and native_impl() is None:
            pytest.skip("no native toolchain")
        calls = []
        src = GaussianSource(lambda t: calls.append(t) or np.sin(3 * t))
        ws = WaveSolver(Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0))),
                        source=src, ko_sigma=0.02, backend=backend,
                        chunk_octants=chunk)
        ws.state[0] = np.exp(-(ws.coords() ** 2).sum(axis=-1))
        if uncached:  # today's evaluation: one call per RK4 stage
            full_rhs = ws.full_rhs

            def fresh(u, t, out=None):
                ws.workspace().cache.pop(("source", 0, ws.mesh.num_octants),
                                         None)
                return full_rhs(u, t, out=out)

            ws.full_rhs = fresh
        for _ in range(steps):
            ws.step()
        return ws, calls

    @pytest.mark.parametrize("backend", ["numpy", "compiled"])
    def test_one_call_per_distinct_time_and_same_bits(self, backend):
        ref, ref_calls = self._run(backend, uncached=True)
        assert len(ref_calls) == 12
        for chunk in (None, 1, 3, 100):
            ws, calls = self._run(backend, chunk)
            assert len(calls) == 7 and len(set(calls)) == 7
            assert np.array_equal(ws.state, ref.state)

    def test_rollback_at_halved_dt_equals_a_clean_lower_dt_run(self):
        """A NaN burst after the first step rolls the state back and
        retries at half the Courant factor; the cache, keyed on the time,
        must not hand the retry a value of the failed attempt."""
        from repro.resilience import FaultInjector, HealthMonitor, SupervisedRun

        ws, _ = self._run("numpy", steps=0)
        run = SupervisedRun(ws, monitor=HealthMonitor(),
                            injector=FaultInjector(seed=3, nan_burst_steps=(1,)))
        for _ in range(3):
            run.step()
        assert run.rollbacks == 1
        ref, _ = self._run("numpy", steps=0)
        ref.courant *= 0.5
        while ref.step_count < ws.step_count:
            ref.step()
        assert ref.t == ws.t and np.array_equal(ref.state, ws.state)


class TestExtractionIntegration:
    def test_quadrupole_source_fills_22_mode(self):
        """A Y22-modulated source radiates into the (2,2) mode and not
        into (2,1) (the machinery behind Figs. 19/21)."""
        from repro.gw.swsh import ylm

        mesh = Mesh(LinearOctree.uniform(3, domain=Domain(-12.0, 12.0)))

        def quad_source(coords, t):
            x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
            r = np.sqrt(x * x + y * y + z * z)
            th = np.arccos(np.clip(np.where(r > 1e-12, z / np.maximum(r, 1e-12), 1.0), -1, 1))
            ph = np.arctan2(y, x)
            return (
                np.exp(-((t - 1.0) / 0.4) ** 2)
                * np.exp(-(r / 1.5) ** 2)
                * np.real(ylm(2, 2, th, ph))
            )

        ws = WaveSolver(mesh, source=quad_source, ko_sigma=0.02)
        ex = WaveExtractor([6.0], l_max=2, s=0, rule=gauss_legendre_rule(10))
        ws.evolve(8.0, on_step=lambda s: ex.sample(s.mesh, s.state[0], s.t))
        t, c22 = ex.series(6.0, 2, 2)
        _, c21 = ex.series(6.0, 2, 1)
        _, c00 = ex.series(6.0, 0, 0)
        peak22 = np.abs(c22).max()
        assert peak22 > 1e-6
        assert np.abs(c21).max() < 0.05 * peak22
        assert np.abs(c00).max() < 0.3 * peak22


@pytest.mark.parametrize("backend", ["numpy", "auto"])
def test_uniform_grid_digest_is_pinned(backend):
    """A uniform grid has no coarse/fine interface and so no
    prolongation: a change to the prolongation's arithmetic must leave
    its run bit for bit where it was.  Polynomial initial data (no
    transcendental ufunc whose SIMD rounding varies by host)."""
    from repro.jobs import state_digest

    w = WaveSolver(Mesh(LinearOctree.uniform(2)), backend=backend)
    assert len(w.mesh.plan.prolong_octs) == 0
    r2 = (w.coords() ** 2).sum(axis=-1)
    w.state[0] = np.maximum(1.0 - r2 / 16.0, 0.0) ** 3
    for _ in range(3):
        w.step()
    assert state_digest(w.state) == (
        "0e0f7fedcf20622afd5b00b459dfefd324c6d5fd484293289a8c98ace184149a")
