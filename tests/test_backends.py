"""Compiled-kernel backend: selection ladder, bitwise contract, telemetry.

The headline guarantees under test (DESIGN.md §11):

* ``backend="compiled"`` produces **bitwise-identical** results to the
  NumPy kernel's execution of the same generated schedule — single RHS
  evaluations, derivative exports, and multi-step RK4 evolutions;
* the C (cffi) and Python/Numba lowerings of one schedule agree
  bitwise with each other;
* backend resolution degrades gracefully: ``auto`` falls back to numpy
  with exactly one warning, explicit ``compiled`` raises a clear error
  on unsupported hosts;
* ``RunConfig.backend`` round-trips and keys the result cache — a
  compiled run never shares a ResultCache entry with a numpy run, so
  cached artefacts stay attributable to the code path that made them.
"""

import warnings

import numpy as np
import pytest

from repro.bssn import (
    BSSNParams,
    Puncture,
    mesh_puncture_state,
)
from repro.bssn import state as S
from repro.bssn.testdata import gauge_wave_state, linear_wave_state
from repro.codegen import backends as B
from repro.codegen.backends import (
    BackendUnavailableError,
    NativeWaveRHS,
    resolve_backend,
)
from repro.codegen.generators import (
    COMPILED_VARIANT,
    get_algebra_kernel,
    get_kernel_spec,
)
from repro.io.params import RunConfig
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree
from repro.perf import StepProfiler
from repro.solver.bssn_solver import BSSNSolver
from repro.solver.wave_solver import PHI, GaussianSource, WaveSolver
from repro.telemetry import MetricsRegistry

needs_native = pytest.mark.skipif(
    B.native_impl() is None,
    reason="neither numba nor a cffi+cc toolchain is available",
)
needs_cffi = pytest.mark.skipif(
    B.probe_cffi() is None, reason="cffi or a C compiler is missing"
)


@pytest.fixture(scope="module")
def mesh():
    return Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))


@pytest.fixture(scope="module")
def small_mesh():
    return Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0)))


@pytest.fixture(scope="module")
def bbh_state(mesh):
    u = mesh_puncture_state(
        mesh, [Puncture(mass=1.0, position=[0.1, 0.2, 0.3])]
    )
    rng = np.random.default_rng(7)
    return u + 1e-6 * rng.standard_normal(u.shape)


def _solver_pair(mesh, **kw):
    """(compiled solver, numpy solver running the identical schedule)."""
    sc = BSSNSolver(mesh, BSSNParams(), backend="compiled", **kw)
    sn = BSSNSolver(
        mesh, BSSNParams(), backend="numpy",
        algebra=get_algebra_kernel(COMPILED_VARIANT), **kw
    )
    return sc, sn


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------


class TestSelection:
    def test_numpy_passthrough(self):
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    def test_auto_falls_back_with_single_warning(self, monkeypatch):
        """Numba and cffi both absent: auto degrades to numpy, warning
        exactly once per process."""
        monkeypatch.setattr(B, "probe_numba", lambda: None)
        monkeypatch.setattr(B, "probe_cffi", lambda: None)
        monkeypatch.setattr(B, "_WARNED_FALLBACK", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("auto") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_backend("auto") == "numpy"

    def test_explicit_compiled_raises_clear_error(self, monkeypatch):
        monkeypatch.setattr(B, "probe_numba", lambda: None)
        monkeypatch.setattr(B, "probe_cffi", lambda: None)
        with pytest.raises(BackendUnavailableError, match="numba"):
            resolve_backend("compiled")

    def test_solver_ctor_surfaces_unavailability(self, mesh, monkeypatch):
        monkeypatch.setattr(B, "probe_numba", lambda: None)
        monkeypatch.setattr(B, "probe_cffi", lambda: None)
        with pytest.raises(BackendUnavailableError):
            BSSNSolver(mesh, backend="compiled")

    @needs_native
    def test_compiled_rejects_algebra_override(self, mesh):
        with pytest.raises(ValueError, match="algebra"):
            BSSNSolver(
                mesh, backend="compiled",
                algebra=get_algebra_kernel(COMPILED_VARIANT),
            )

    def test_backend_info_keys(self):
        info = B.backend_info()
        assert set(info) == {"numba", "cffi", "cc", "native_impl"}


# ---------------------------------------------------------------------------
# RunConfig integration
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_backend_round_trips(self):
        cfg = RunConfig(backend="compiled")
        back = RunConfig.from_json(cfg.to_json())
        assert back.backend == "compiled"
        back.validate()

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunConfig(backend="cuda").validate()

    def test_cache_key_separates_backends(self):
        """Compiled and numpy runs must NOT share ResultCache entries:
        the two paths are bitwise-identical by construction, but a
        cached artefact must stay attributable to the code path that
        produced it (a backend bug would otherwise poison numpy runs'
        cache hits).  The backend field is therefore part of the
        physics hash."""
        a = RunConfig(backend="numpy")
        b = RunConfig(backend="compiled")
        assert a.cache_key() != b.cache_key()
        # name stays excluded from the key
        assert RunConfig(name="x").cache_key() == RunConfig(name="y").cache_key()


# ---------------------------------------------------------------------------
# bitwise contract: BSSN
# ---------------------------------------------------------------------------


@needs_native
class TestBSSNBitwise:
    def test_rhs_bitwise_vs_numpy_schedule(self, mesh, bbh_state):
        sc, sn = _solver_pair(mesh, chunk_octants=24)
        rc = sc.full_rhs(bbh_state, 0.0)
        rn = sn.full_rhs(bbh_state, 0.0)
        assert np.array_equal(rc, rn)

    def test_rhs_close_to_reference_kernel(self, mesh, bbh_state):
        """Against the hand-vectorised reference the difference is pure
        schedule-reassociation roundoff (same tolerance the existing
        codegen variants meet)."""
        sc = BSSNSolver(mesh, BSSNParams(), backend="compiled")
        sr = BSSNSolver(mesh, BSSNParams(), backend="numpy")
        rc = sc.full_rhs(bbh_state, 0.0)
        rr = sr.full_rhs(bbh_state, 0.0)
        scale = np.abs(rr).max()
        assert np.abs(rc - rr).max() <= 1e-13 * scale

    @pytest.mark.parametrize("make_state", [
        gauge_wave_state, linear_wave_state,
    ], ids=["gauge_wave", "linear_wave"])
    def test_testdata_vectors_bitwise(self, mesh, make_state):
        u = make_state(mesh.coordinates())
        sc, sn = _solver_pair(mesh)
        assert np.array_equal(sc.full_rhs(u, 0.0), sn.full_rhs(u, 0.0))

    def test_centred_advection_bitwise(self, mesh, bbh_state):
        """use_upwind=False exercises the adv-aliases-d1 kernel branch."""
        p = BSSNParams(use_upwind=False)
        sc = BSSNSolver(mesh, p, backend="compiled")
        sn = BSSNSolver(mesh, p, backend="numpy",
                        algebra=get_algebra_kernel(COMPILED_VARIANT))
        assert np.array_equal(
            sc.full_rhs(bbh_state, 0.0), sn.full_rhs(bbh_state, 0.0)
        )

    def test_20_step_evolution_bitwise(self, small_mesh):
        """20 RK4 steps (80 RHS evaluations + constraint enforcement +
        Sommerfeld boundaries) stay bitwise-identical — the acceptance
        bar of ISSUE 6, achieved exactly (tolerance 0)."""
        u = mesh_puncture_state(
            small_mesh, [Puncture(mass=1.0, position=[0.3, 0.1, -0.2])]
        )
        sc, sn = _solver_pair(small_mesh)
        sc.state = u.copy()
        sn.state = u.copy()
        for _ in range(20):
            sc.step()
            sn.step()
        assert np.isfinite(sc.state).all()
        assert np.array_equal(sc.state, sn.state)

    def test_d1_export_feeds_sommerfeld(self, mesh, bbh_state):
        """Boundary octants' exported first derivatives and interior
        values equal the NumPy kernel's (the Sommerfeld pass consumes
        both through the one kernel return signature)."""
        from repro.codegen.backends import NativeBSSNRHS, NumpyBSSNRHS
        from repro.perf import SolverWorkspace

        params = BSSNParams()
        ws = SolverWorkspace(mesh, mesh.num_octants)
        patches = ws.pool.get(
            "solver.patches",
            (S.NUM_VARS, mesh.num_octants, mesh.P, mesh.P, mesh.P),
        )
        mesh.unzip(bbh_state, out=patches, coalesce=True, pool=ws.pool)
        (lo, hi, faces), = ws.chunk_faces()
        _, values, derivs = NativeBSSNRHS()(
            patches, lo, hi, mesh, params, faces, ws.pool
        )
        # a second arena: the two kernels share buffer names by design
        _, ref_values, ref_derivs = NumpyBSSNRHS()(
            patches, lo, hi, mesh, params, faces, SolverWorkspace(mesh, hi).pool
        )
        assert np.array_equal(values, ref_values)
        boundary = sorted({o for _, _, octs in faces for o in octs})
        for var in (S.ALPHA, S.CHI, S.K):
            for d in range(3):
                assert np.array_equal(
                    derivs.d1[var, d][boundary], ref_derivs.d1[var, d][boundary]
                )

    def test_interior_chunk_exports_nothing(self, mesh, bbh_state):
        """Without physical-boundary faces the native kernel skips the
        derivative export and the values copy."""
        from repro.codegen.backends import NativeBSSNRHS
        from repro.perf import BufferPool

        patches = mesh.unzip(bbh_state)
        rhs, values, derivs = NativeBSSNRHS()(
            patches, 0, 2, mesh, BSSNParams(), [], BufferPool()
        )
        assert rhs.shape == (S.NUM_VARS, 2, mesh.r, mesh.r, mesh.r)
        assert values is None and derivs is None


# ---------------------------------------------------------------------------
# bitwise contract: wave
# ---------------------------------------------------------------------------


@needs_native
class TestWaveBitwise:
    @pytest.mark.parametrize("with_source", [False, True],
                             ids=["free", "sourced"])
    def test_rhs_and_steps_bitwise(self, mesh, with_source):
        src = GaussianSource(amplitude=lambda t: np.sin(3 * t)) \
            if with_source else None
        sc = WaveSolver(mesh, backend="compiled", source=src)
        sn = WaveSolver(mesh, backend="numpy", source=src)
        rng = np.random.default_rng(1)
        u = 1e-3 * rng.standard_normal(sn.state.shape)
        assert np.array_equal(sc.full_rhs(u, 0.3), sn.full_rhs(u, 0.3))
        sc.state[:] = u
        sn.state[:] = u
        for _ in range(5):
            sc.step()
            sn.step()
        assert np.array_equal(sc.state, sn.state)


# ---------------------------------------------------------------------------
# kernel-level consistency (no solver)
# ---------------------------------------------------------------------------


class TestKernelConsistency:
    def test_py_dispatcher_matches_numpy_wave(self, small_mesh):
        """The un-jitted Python lowering drives the dispatcher on hosts
        with no toolchain at all — same bitwise contract, tiny grid."""
        from repro.perf import BufferPool

        native = NativeWaveRHS(impl="py")
        sn = WaveSolver(small_mesh, backend="numpy")
        rng = np.random.default_rng(2)
        u = rng.standard_normal(sn.state.shape)
        ref = sn.full_rhs(u, 0.0)

        pool = BufferPool()
        n = small_mesh.num_octants
        patches = small_mesh.unzip(u)
        rhs = np.zeros_like(u)
        native(patches, 0, n, small_mesh, 1.0, sn.ko_sigma, None, rhs, pool)
        # interior arithmetic is identical; the solver additionally
        # overwrites boundary octants via its Sommerfeld pass
        interior = np.ones(n, dtype=bool)
        interior[small_mesh.boundary_octants()] = False
        if interior.any():
            assert np.array_equal(rhs[:, interior], ref[:, interior])
        sn._apply_sommerfeld(rhs, u, patches, sn.coords())
        assert np.array_equal(rhs, ref)

    @needs_cffi
    def test_c_and_py_lowerings_agree_bitwise(self, small_mesh, bbh_state):
        """The cffi-compiled C kernel and the interpreted Python kernel
        execute identical operation sequences."""
        from repro.codegen.cbackend import (
            NUM_PARAMS,
            build_native_lib,
            compile_py_kernels,
            emit_c_source,
            pack_params,
            scratch_doubles,
            stencil_weights,
        )
        from repro.fd.derivatives import _h_factor

        mesh = small_mesh
        u = mesh_puncture_state(
            mesh, [Puncture(mass=1.0, position=[0.2, -0.1, 0.3])]
        )
        spec = get_kernel_spec(COMPILED_VARIANT)
        patches = mesh.unzip(u)
        n, P, r, k = mesh.num_octants, mesh.P, mesh.r, mesh.k
        nc = 2
        w = stencil_weights()
        pbuf = pack_params(BSSNParams(), np.empty(NUM_PARAMS))
        h = np.asarray(mesh.dx[:nc], dtype=np.float64)
        hf1 = _h_factor(h, 1).ravel()
        hf2 = _h_factor(h, 2).ravel()
        bdry = np.ones(nc, dtype=np.int64)
        args = (n, 0, nc, P, r, k)

        rhs_py = np.zeros((S.NUM_VARS, nc, r, r, r))
        d1_py = np.zeros((3, S.NUM_VARS, nc, r, r, r))
        scratch = np.zeros(scratch_doubles(P, r))
        ns = compile_py_kernels(spec)
        ns["bssn_rhs_chunk"](
            patches.reshape(-1), *args, hf1, hf2, hf1,
            w["w1"], w["w2"], w["wko"], w["wup"], w["wun"],
            pbuf, bdry, rhs_py.reshape(-1), d1_py.reshape(-1), scratch,
        )

        lib = build_native_lib(emit_c_source(spec))
        rhs_c = np.zeros_like(rhs_py)
        d1_c = np.zeros_like(d1_py)
        scratch[:] = 0
        lib.lib.bssn_rhs_chunk(
            lib.ptr(patches), *args, lib.ptr(hf1), lib.ptr(hf2),
            lib.ptr(hf1), lib.ptr(w["w1"]), lib.ptr(w["w2"]),
            lib.ptr(w["wko"]), lib.ptr(w["wup"]), lib.ptr(w["wun"]),
            lib.ptr(pbuf), lib.ptr(bdry), lib.ptr(rhs_c), lib.ptr(d1_c),
            lib.ptr(scratch),
        )
        assert np.array_equal(rhs_c, rhs_py)
        assert np.array_equal(d1_c, d1_py)

    def test_schedule_is_bitwise_lowerable(self):
        from repro.codegen.lowering import is_bitwise_lowerable

        ok, offenders = is_bitwise_lowerable(get_kernel_spec(COMPILED_VARIANT))
        assert ok, f"non-exact pow fallbacks in schedule: {offenders[:3]}"


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


@needs_native
class TestTelemetry:
    def test_kernel_counters_published(self, mesh, bbh_state):
        metrics = MetricsRegistry()
        prof = StepProfiler(metrics=metrics)
        s = BSSNSolver(mesh, backend="compiled", profiler=prof)
        prof.begin_step()
        s.full_rhs(bbh_state, 0.0)
        prof.end_step()
        label = f"bssn_rhs_chunk[{B.native_impl()}]"
        assert metrics.get("gpu_launches", kernel=label).value >= 1
        assert metrics.get("gpu_seconds", kernel=label).value > 0
        assert metrics.get("gpu_flops", kernel=label).value > 0
        compile_c = metrics.get("kernel_compile_seconds", kernel=label)
        assert compile_c is not None  # recorded even when 0.0 (cache hit)
