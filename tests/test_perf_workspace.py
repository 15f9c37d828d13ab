"""Tests for the hot-path workspace arena (repro.perf): buffer pooling,
per-phase profiling, in-place RK4, and the arena solvers' identity with
the allocating reference functions."""

import numpy as np
import pytest

from repro.bssn import (
    BSSNParams,
    Puncture,
    bssn_rhs,
    compute_derivatives,
    mesh_puncture_state,
)
from repro.fd import apply_stencil
from repro.fd.derivatives import _apply_taps
from repro.fd.stencils import D1_CENTERED_6, KO_DISS_6
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree
from repro.perf import PHASES, BufferPool, RK4Workspace, SolverWorkspace, StepProfiler
from repro.solver import (
    BSSNSolver,
    GaussianSource,
    WaveSolver,
    enforce_algebraic_constraints,
    rk4_step,
)
from repro.telemetry import MetricsRegistry, Tracer

from .frozen_oracles import bssn_apply_sommerfeld, wave_rank_rhs


def small_mesh():
    return Mesh(LinearOctree.uniform(2, domain=Domain(-10.0, 10.0)))


class TestBufferPool:
    def test_same_key_returns_same_buffer(self):
        pool = BufferPool()
        a = pool.get("x", (4, 5))
        b = pool.get("x", (4, 5))
        assert a is b
        assert pool.hits == 1 and pool.misses == 1

    def test_shape_and_dtype_are_part_of_the_key(self):
        pool = BufferPool()
        a = pool.get("x", (4, 5))
        b = pool.get("x", (4, 6))
        c = pool.get("x", (4, 5), np.float32)
        assert a is not b and a is not c
        assert pool.num_buffers == 3

    def test_clear_and_nbytes(self):
        pool = BufferPool()
        pool.get("x", (10,))
        assert pool.nbytes == 80
        assert "x" in pool and "y" not in pool
        pool.clear()
        assert pool.num_buffers == 0 and pool.nbytes == 0


class TestStepProfiler:
    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        prof = StepProfiler(tracer=tracer)
        with prof.phase("deriv"):
            pass
        prof.begin_step()
        prof.end_step()
        assert not prof.enabled and len(tracer) == 0
        # a profiler with nothing attached hands out one shared no-op
        assert prof.phase("unzip") is prof.phase("axpy")

    def test_records_all_phases(self):
        tracer, reg = Tracer(), MetricsRegistry()
        prof = StepProfiler(tracer=tracer, metrics=reg)
        prof.begin_step()
        for p in PHASES:
            with prof.phase(p):
                sum(range(1000))
        prof.end_step()
        assert reg.get("steps_total").value == 1
        assert reg.get("step_seconds").sum > 0.0
        assert all(reg.get("phase_seconds", phase=p).sum > 0.0 for p in PHASES)
        assert [r[1] for r in tracer.records()] == [*PHASES, "step"]


class TestPooledRK4:
    def _rhs(self, u, t, out=None):
        if out is None:
            return np.cos(3.0 * u) + t
        np.cos(3.0 * u, out=out)
        out += t
        return out

    def test_bitwise_identical_to_plain_path(self):
        rng = np.random.default_rng(7)
        u0 = rng.normal(size=(3, 8, 8))
        plain = rk4_step(self._rhs, u0, 0.1, 0.03)
        work = RK4Workspace(u0.shape)
        pooled = rk4_step(self._rhs, u0, 0.1, 0.03, work=work)
        assert np.array_equal(plain, pooled)

    def test_ping_pong_buffers_reused_across_steps(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=(2, 6, 6))
        work = RK4Workspace(u.shape)
        seen = set()
        for i in range(4):
            u = rk4_step(self._rhs, u, 0.0, 0.01, work=work)
            assert any(u is b for b in work._out)
            seen.add(id(u))
        assert len(seen) == 2  # alternates between exactly two buffers

    def test_out_for_never_aliases_input(self):
        work = RK4Workspace((4,))
        for u in work._out:
            assert not np.shares_memory(work.out_for(u), u)


class TestFusedStencil:
    @pytest.mark.parametrize("direction", [0, 1, 2])
    def test_fused_matches_tap_loop(self, direction):
        rng = np.random.default_rng(11)
        u = rng.normal(size=(5, 13, 13, 13))
        axis = u.ndim - 1 - direction
        for st in (D1_CENTERED_6, KO_DISS_6):
            a = apply_stencil(u, st, 0.25, axis)
            b = np.empty_like(a)
            _apply_taps(u, st, st.scale(0.25), axis, b)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))

    def test_fused_out_buffer_returned(self):
        u = np.random.default_rng(12).normal(size=(2, 13, 13, 13))
        out = np.empty((2, 13, 13, 7))
        got = apply_stencil(u, D1_CENTERED_6, 0.5, 3, out=out)
        assert got is out


def reference_bssn_steps(mesh, punctures, steps):
    """``steps`` RK4 steps assembled from the allocating reference
    functions: allocating ``mesh.unzip`` → ``bssn_rhs`` → Sommerfeld
    faces, textbook ``rk4_step``, poolless constraint enforcement."""
    params = BSSNParams()
    coords = mesh.coordinates()
    faces = mesh.boundary_faces()
    k, r = mesh.k, mesh.r

    def rhs(u, t):
        patches = mesh.unzip(u)
        out = bssn_rhs(patches, mesh.dx, params)
        values = patches[:, :, k : k + r, k : k + r, k : k + r]
        derivs = compute_derivatives(patches, mesh.dx, params)
        bssn_apply_sommerfeld(out, values, derivs, coords, faces)
        return out

    u = mesh_puncture_state(mesh, punctures)
    dt = 0.25 * mesh.min_dx
    for i in range(steps):
        u = rk4_step(rhs, u, i * dt, dt,
                     post_stage=enforce_algebraic_constraints)
    return u


@pytest.fixture(scope="module")
def bssn_pair():
    """The reference state and a BSSN solver, both advanced two steps
    from identical puncture data on the same mesh."""
    mesh = small_mesh()
    punc = [Puncture(1.0, [0.0, 0.0, 0.0], momentum=[0.0, 0.05, 0.0])]
    metrics = MetricsRegistry()
    b = BSSNSolver(mesh, profiler=StepProfiler(metrics=metrics))
    b.set_punctures(punc)
    for _ in range(2):
        b.step()
    return {"b": b, "metrics": metrics,
            "state_a": reference_bssn_steps(mesh, punc, 2),
            "state_b": b.state.copy()}


class TestBSSNPooled:
    def test_pooled_state_bitwise_equals_unpooled(self, bssn_pair):
        assert np.array_equal(bssn_pair["state_a"], bssn_pair["state_b"])

    def test_workspace_and_buffers_reused_across_steps(self, bssn_pair):
        b = bssn_pair["b"]
        ws = b._workspace
        assert isinstance(ws, SolverWorkspace)
        misses = ws.pool.misses
        chunk = (24 * min(b.chunk, b.mesh.num_octants) * 13**3,)
        patches_id = id(ws.pool.get("solver.patch_chunk", chunk))
        b.step()
        assert b._workspace is ws  # same arena
        assert ws.pool.misses == misses  # zero new pool allocations
        assert id(ws.pool.get("solver.patch_chunk", chunk)) == patches_id

    def test_state_lives_in_ping_pong_buffers(self, bssn_pair):
        b = bssn_pair["b"]
        rk4 = b._workspace._rk4
        assert any(np.may_share_memory(b.state, buf) for buf in rk4._out)

    def test_profiler_reports_all_six_phases(self, bssn_pair):
        metrics = bssn_pair["metrics"]
        assert metrics.get("steps_total").value >= 2
        phases = [metrics.get("phase_seconds", phase=p).sum for p in PHASES]
        for p, seconds in zip(PHASES, phases):
            assert seconds > 0.0, f"phase {p} never recorded"
        assert metrics.get("step_seconds").sum >= sum(phases) * 0.5


class TestWaveSolverPooled:
    def test_pooled_state_bitwise_equals_unpooled(self):
        """``full_rhs`` against the frozen allocating one-rank RHS of the
        former distributed driver (same unzip, stencils, source, KO and
        Sommerfeld arithmetic)."""
        mesh = small_mesh()
        rng = np.random.default_rng(5)
        init = rng.normal(size=(2, mesh.num_octants, 7, 7, 7))
        src = GaussianSource(amplitude=lambda t: np.sin(3.0 * t))
        solver = WaveSolver(mesh, source=src)
        expect = wave_rank_rhs(mesh, init, 0.3, source=src)
        assert np.array_equal(solver.full_rhs(init, 0.3), expect)

    def test_regrid_invalidates_workspace(self):
        mesh = small_mesh()
        s = WaveSolver(mesh)
        c = mesh.coordinates()
        s.state[0] = np.exp(-(c[..., 0] ** 2 + c[..., 1] ** 2 + c[..., 2] ** 2))
        s.step()
        ws_before = s._workspace
        assert ws_before is not None
        changed = s.regrid(1e-6, max_level=3)
        assert changed  # the bump must trigger refinement
        s.step()
        assert s._workspace is not ws_before  # arena rebuilt for new mesh
        assert s._workspace.mesh is s.mesh
