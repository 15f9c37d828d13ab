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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bssn import (
    BSSNParams,
    Puncture,
    mesh_puncture_state,
)
from repro.bssn import state as S
from repro.bssn.sommerfeld import ASYMPTOTIC, sommerfeld_faces
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
from repro.jobs import state_digest
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree, balance
from repro.perf import StepProfiler
from repro.solver.bssn_solver import BSSNSolver
from repro.solver.wave_solver import PHI, GaussianSource, WaveSolver
from repro.telemetry import MetricsRegistry

from .frozen_oracles import bssn_apply_sommerfeld, wave_apply_sommerfeld
from .test_mesh_unzip import _GuardedPool, _same_bits

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

    def test_ladder_prefers_the_c_build(self, monkeypatch):
        """cffi + cc first — the rung the ledger measures — numba where
        there is no toolchain."""
        monkeypatch.setattr(B, "probe_numba", lambda: "0.0")
        monkeypatch.setattr(B, "probe_cffi", lambda: "0.0")
        assert B.native_impl() == "cffi"
        monkeypatch.setattr(B, "probe_cffi", lambda: None)
        assert B.native_impl() == "numba"
        monkeypatch.setattr(B, "probe_numba", lambda: None)
        assert B.native_impl() is None

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

    def test_full_rhs_with_chunks_without_boundary_octants(self, mesh,
                                                            bbh_state):
        """One octant per chunk: the eight interior octants of the 4³
        grid are chunks with no physical-boundary face, and the boundary
        phase still finds every face of the other chunks."""
        interior = np.setdiff1d(np.arange(mesh.num_octants),
                                mesh.boundary_octants())
        assert len(interior) == 8
        sc, sn = _solver_pair(mesh, chunk_octants=1)
        whole = BSSNSolver(mesh, BSSNParams(), backend="compiled")
        rc = sc.full_rhs(bbh_state, 0.0)
        assert np.array_equal(rc, sn.full_rhs(bbh_state, 0.0))
        assert np.array_equal(rc, whole.full_rhs(bbh_state, 0.0))


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
# the boundary phase: one Sommerfeld for both solvers, NumPy and native
# ---------------------------------------------------------------------------

#: every rung of the compiled ladder this host can run; un-jitted "py"
#: always can
RUNGS = [impl for impl, ok in (("numba", B.probe_numba()),
                               ("cffi", B.probe_cffi())) if ok]


def _random_mesh(seed, base_level):
    """A balanced refinement of a uniform grid (mixed levels, so faces
    hold octants of two sizes)."""
    rng = np.random.default_rng(seed)
    tree = LinearOctree.uniform(base_level, domain=Domain(-8.0, 8.0))
    return Mesh(balance(tree.refine(rng.random(len(tree)) < 0.3)))


def _boundary_inputs(mesh, nvars, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(nvars, mesh.num_octants, mesh.r, mesh.r, mesh.r))
    coords = mesh.coordinates()
    radii = np.maximum(np.linalg.norm(coords, axis=-1), 1e-12)
    u_inf = ASYMPTOTIC if nvars == S.NUM_VARS else np.zeros(nvars)
    return u, mesh.unzip(u), coords, radii, u_inf, rng.normal(size=u.shape)


def _twin(mesh, patches, coords, radii, u_inf, speed, rhs):
    sommerfeld_faces(rhs, patches, mesh.plan.boundary, coords, radii,
                     mesh.dx, u_inf, speed)
    return rhs


class TestBoundaryPhase:
    @pytest.mark.parametrize("impl", RUNGS)
    @pytest.mark.parametrize("nvars", [2, 24])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=4, deadline=None)
    def test_native_sommerfeld_equals_numpy_twin(self, impl, nvars, seed):
        mesh = _random_mesh(seed, base_level=1 if nvars == 24 else 2)
        u, patches, coords, radii, u_inf, rhs0 = _boundary_inputs(
            mesh, nvars, seed)
        ref = _twin(mesh, patches, coords, radii, u_inf, 0.7, rhs0.copy())
        got = rhs0.copy()
        NativeWaveRHS(impl=impl).sommerfeld(got, patches, mesh, coords, radii,
                                            u_inf, 0.7)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert not np.array_equal(got, rhs0)

    @pytest.mark.parametrize("nvars", [2, 24])
    def test_py_rung_sommerfeld_equals_numpy_twin(self, nvars):
        tree = LinearOctree.uniform(1, domain=Domain(-8.0, 8.0))
        mesh = Mesh(balance(tree.refine(np.arange(len(tree)) == 5)))
        u, patches, coords, radii, u_inf, rhs0 = _boundary_inputs(
            mesh, nvars, 11)
        ref = _twin(mesh, patches, coords, radii, u_inf, 1.0, rhs0.copy())
        got = rhs0.copy()
        NativeWaveRHS(impl="py").sommerfeld(got, patches, mesh, coords, radii,
                                            u_inf, 1.0)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=4, deadline=None)
    def test_twin_equals_frozen_wave_sommerfeld(self, seed):
        """Face-slab stencils against PR 16's whole-octant sweep of the
        union of boundary octants."""
        mesh = _random_mesh(seed, base_level=2)
        u, patches, coords, radii, u_inf, rhs0 = _boundary_inputs(
            mesh, 2, seed)
        ref = rhs0.copy()
        wave_apply_sommerfeld(ref, u, patches, coords, mesh, 0.7)
        got = _twin(mesh, patches, coords, radii, u_inf, 0.7, rhs0.copy())
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_twin_equals_frozen_bssn_sommerfeld(self, seed):
        """All 24 variables at once against PR 16's per-variable loop
        over whole-octant ``d1`` blocks."""
        from types import SimpleNamespace

        from repro.fd import PatchDerivatives

        mesh = _random_mesh(seed, base_level=1)
        u, patches, coords, radii, u_inf, rhs0 = _boundary_inputs(
            mesh, S.NUM_VARS, seed)
        pd = PatchDerivatives(k=mesh.k)
        d1 = np.stack([pd.d1(patches, mesh.dx, d) for d in range(3)], axis=1)
        ref = rhs0.copy()
        bssn_apply_sommerfeld(ref, u, SimpleNamespace(d1=d1), coords,
                              mesh.boundary_faces())
        got = _twin(mesh, patches, coords, radii, u_inf, 1.0, rhs0.copy())
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @needs_native
    def test_adaptive_wave_digest_equal_across_backends(self):
        """Regrid every 2 steps on a grid that changes: the native
        padding fill, row-vector chunk kernel (several chunks, so most
        start at ``lo > 0``) and Sommerfeld leave the state digest where
        the NumPy execution puts it."""
        digests, octants = set(), set()
        for backend in ("numpy", "compiled"):
            mesh = Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0)))
            s = WaveSolver(mesh, backend=backend, ko_sigma=0.02,
                           chunk_octants=3,
                           source=GaussianSource(
                               amplitude=lambda t: np.sin(3 * t)))
            s.evolve(6 * s.dt, regrid_every=2, regrid_eps=3e-5, max_level=2)
            digests.add(state_digest(s.state))
            octants.add(s.mesh.num_octants)
        assert len(digests) == 1
        assert octants != {8}  # the grid did change

    @needs_native
    def test_adaptive_bssn_digest_equal_across_backends(self):
        digests, octants = set(), set()
        for sv in _solver_pair(
                Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0))),
                chunk_octants=5):  # both kernels write rhs[:, lo:hi], lo > 0
            sv.set_punctures([Puncture(mass=1.0, position=[0.3, 0.1, -0.2])])
            sv.evolve(4 * sv.dt, regrid_every=2, regrid_eps=1e-3, max_level=2)
            digests.add(state_digest(sv.state))
            octants.add(sv.mesh.num_octants)
        assert len(digests) == 1
        assert octants != {8}


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
        # the solver additionally overwrites the boundary faces; here
        # through the py rung's own Sommerfeld executor
        coords = sn.coords()
        radii = np.maximum(np.linalg.norm(coords, axis=-1), 1e-12)
        native.sommerfeld(rhs, patches, small_mesh, coords, radii,
                          np.zeros(2), sn.speed)
        assert np.array_equal(rhs, ref)

    @needs_cffi
    def test_c_and_py_lowerings_agree_bitwise(self, small_mesh, bbh_state):
        """The cffi-compiled C kernels and the interpreted Python kernels
        execute identical operation sequences: the fused BSSN chunk
        kernel and the two physical-boundary kernels."""
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
        n, P, r, k = mesh.num_octants, mesh.P, mesh.r, mesh.k
        nc = 2
        patches = mesh.unzip(u)
        w = stencil_weights()
        pbuf = pack_params(BSSNParams(), np.empty(NUM_PARAMS))
        h = np.asarray(mesh.dx[:nc], dtype=np.float64)
        hf1 = _h_factor(h, 1).ravel()
        hf2 = _h_factor(h, 2).ravel()
        args = (n, 0, nc, P, r, k)

        patches = np.ascontiguousarray(patches[:, :nc])  # the chunk's own
        rhs_py = np.zeros((S.NUM_VARS, n, r, r, r))
        scratch = np.zeros(scratch_doubles(P, r))
        ns = compile_py_kernels(spec)
        ns["bssn_rhs_chunk"](
            patches.reshape(-1), *args, hf1, hf2,
            w["w1"], w["w2"], w["wko"], w["wup"], w["wun"],
            pbuf, rhs_py.reshape(-1), scratch,
        )

        lib = build_native_lib(emit_c_source(spec))
        rhs_c = np.zeros_like(rhs_py)
        scratch[:] = 0
        lib.lib.bssn_rhs_chunk(
            lib.ptr(patches), *args, lib.ptr(hf1), lib.ptr(hf2),
            lib.ptr(w["w1"]), lib.ptr(w["w2"]),
            lib.ptr(w["wko"]), lib.ptr(w["wup"]), lib.ptr(w["wun"]),
            lib.ptr(pbuf), lib.ptr(rhs_c), lib.ptr(scratch),
        )
        assert np.array_equal(rhs_c, rhs_py)

        # the boundary kernels, through the two rungs' executors: two
        # variables keep the interpreted pass short
        from repro.codegen.backends import NativeWaveRHS

        u2 = np.ascontiguousarray(u[[S.ALPHA, S.K]])
        coords = mesh.coordinates()
        radii = np.maximum(np.linalg.norm(coords, axis=-1), 1e-12)
        got = {}
        for impl in ("cffi", "py"):
            kernel = NativeWaveRHS(impl=impl)
            p2 = np.full((2, n, P, P, P), np.nan)
            mesh.unzip(u2, out=p2, executor=kernel.unzip_gather)
            rhs2 = np.zeros_like(u2)
            kernel.sommerfeld(rhs2, p2, mesh, coords, radii,
                              np.array([1.0, 0.0]), 0.7)
            got[impl] = (p2, rhs2)
        assert not np.isnan(got["py"][0]).any()
        assert np.array_equal(got["cffi"][0], got["py"][0])
        assert np.array_equal(got["cffi"][1], got["py"][1])

    def test_schedule_is_bitwise_lowerable(self):
        from repro.codegen.lowering import is_bitwise_lowerable

        ok, offenders = is_bitwise_lowerable(get_kernel_spec(COMPILED_VARIANT))
        assert ok, f"non-exact pow fallbacks in schedule: {offenders[:3]}"


# ---------------------------------------------------------------------------
# the row-vector chunk kernels, against the NumPy schedule execution
# ---------------------------------------------------------------------------


def _kernel_inputs(r, n, seed, nvars=S.NUM_VARS):
    """Random near-flat patches for ``n`` octants of ``r``³ points on two
    levels, and the mesh attributes the chunk kernels read."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    k = 3
    P = r + 2 * k
    flat = ASYMPTOTIC if nvars == S.NUM_VARS else np.zeros(nvars)
    patches = (flat[:, None, None, None, None]
               + 0.05 * rng.normal(size=(nvars, n, P, P, P)))
    mesh = SimpleNamespace(r=r, k=k, P=P, num_octants=n,
                           dx=np.where(np.arange(n) % 2, 0.25, 0.5))
    return patches, mesh, rng


def _run_chunks(kernel, patches, mesh, chunks, pool, *extra):
    """``rhs`` after ``kernel`` wrote ``chunks``, each from a chunk buffer
    of its own patches; octants outside them keep the sentinel 7.0."""
    rhs = pool.get("test.rhs", (patches.shape[0], mesh.num_octants)
                   + (mesh.r,) * 3)
    rhs[...] = 7.0
    for lo, hi in chunks:
        chunk = pool.get("test.chunk", patches[:, lo:hi].shape)
        chunk[...] = patches[:, lo:hi]
        kernel(chunk, lo, hi, mesh, *extra, rhs, pool)
    return rhs


#: a chunk with lo > 0 that ends at the last octant; octant 0 untouched
CHUNKS = [(1, 2), (2, 4)]


class TestRowVectorKernels:
    """One x-run is one 8-lane vector (``repro.codegen.cbackend``): r = 7
    leaves one lane idle, r = 9 and 11 take two vectors per row with
    seven and five idle lanes."""

    def _bssn_pair(self, impl, patches, mesh, pool):
        from repro.perf import BufferPool

        ref = _run_chunks(
            B.NumpyBSSNRHS(get_algebra_kernel(COMPILED_VARIANT)),
            patches, mesh, CHUNKS, BufferPool(), BSSNParams())
        got = _run_chunks(B.NativeBSSNRHS(impl=impl), patches, mesh, CHUNKS,
                          pool, BSSNParams())
        return got, ref

    def _wave_pair(self, impl, patches, mesh, pool, src):
        from repro.perf import BufferPool

        ref = _run_chunks(B.NumpyWaveRHS(), patches, mesh, [(1, 4)],
                          BufferPool(), 1.3, 0.1, src)
        got = _run_chunks(NativeWaveRHS(impl=impl), patches, mesh, [(1, 4)],
                          pool, 1.3, 0.1, src)
        return got, ref

    @pytest.mark.parametrize("impl", RUNGS)
    @pytest.mark.parametrize("r", [7, 9, 11])
    def test_bssn_chunks_bitwise_behind_guard_pages(self, impl, r):
        patches, mesh, _ = _kernel_inputs(r, 4, seed=r)
        pool = _GuardedPool()
        got, ref = self._bssn_pair(impl, patches, mesh, pool)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert (got[:, 0] == 7.0).all() and np.isfinite(got).all()

    def test_py_rung_bssn_chunks_bitwise(self):
        from repro.perf import BufferPool

        patches, mesh, _ = _kernel_inputs(7, 4, seed=3)
        got, ref = self._bssn_pair("py", patches, mesh, BufferPool())
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("impl", RUNGS + ["py"])
    @pytest.mark.parametrize("r", [7, 9, 11])
    @pytest.mark.parametrize("sourced", [False, True])
    def test_wave_chunks_bitwise_behind_guard_pages(self, impl, r, sourced):
        patches, mesh, rng = _kernel_inputs(r, 4, seed=r, nvars=2)
        src = rng.normal(size=(3, r, r, r)) if sourced else None
        got, ref = self._wave_pair(impl, patches, mesh, _GuardedPool(), src)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert (got[:, 0] == 7.0).all()

    @pytest.mark.parametrize("impl", RUNGS)
    @pytest.mark.parametrize("r", [7, 9])
    def test_non_finite_sources_propagate_as_numpy_does(self, impl, r):
        """NaN, ±inf and −0.0 anywhere in the patches, ghost zones
        included: the kept lanes carry them exactly as the NumPy
        execution does.  NaN in the eight k³ ghost corners, which only
        idle lanes read, reaches nothing."""
        from repro.perf import BufferPool

        patches, mesh, rng = _kernel_inputs(r, 4, seed=10 + r)
        k = mesh.k
        for sz in (slice(0, k), slice(-k, None)):
            for sy in (slice(0, k), slice(-k, None)):
                for sx in (slice(0, k), slice(-k, None)):
                    patches[..., sz, sy, sx] = np.nan
        with np.errstate(all="ignore"):
            got, ref = self._bssn_pair(impl, patches, mesh, BufferPool())
            assert np.isfinite(got).all()
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            flat = patches.reshape(-1)
            where = rng.choice(flat.size, 40, replace=False)
            flat[where] = rng.choice([np.nan, np.inf, -np.inf, -0.0], 40)
            got, ref = self._bssn_pair(impl, patches, mesh, BufferPool())
            assert _same_bits(got, ref) and np.isnan(got).any()
            got, ref = self._wave_pair(impl, patches[[S.ALPHA, S.CHI]].copy(),
                                       mesh, BufferPool(), None)
            assert _same_bits(got, ref)

    @needs_cffi
    def test_portable_build_equals_native_build(self, tmp_path, monkeypatch):
        """The translation unit built with ``CFLAGS_PORTABLE`` (the
        vectors split for the baseline ISA) writes the same bits as the
        ``-march=native`` build."""
        from repro.codegen import cbackend as C
        from repro.perf import BufferPool

        native = B.get_native_lib()
        monkeypatch.setattr(C, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(C, "CFLAGS", C.CFLAGS_PORTABLE)
        portable = C.build_native_lib(
            C.emit_c_source(get_kernel_spec(COMPILED_VARIANT)))
        assert portable.cflags == C.CFLAGS_PORTABLE
        assert portable.path != native.path
        patches, mesh, rng = _kernel_inputs(7, 4, seed=5)
        out = []
        for lib in (native, portable):
            bssn, wave = B.NativeBSSNRHS(impl="cffi"), NativeWaveRHS(impl="cffi")
            bssn._lib = wave._lib = lib
            out.append((
                _run_chunks(bssn, patches, mesh, CHUNKS, BufferPool(),
                            BSSNParams()),
                _run_chunks(wave, patches[:2].copy(), mesh, CHUNKS,
                            BufferPool(), 1.3, 0.1, None)))
        for a, b in zip(*out):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_geometry_whose_idle_lanes_would_leave_the_patch_is_refused(self):
        from repro.codegen.cbackend import scratch_doubles
        from repro.perf import BufferPool

        assert scratch_doubles(13, 7) == (234 * 49 + 13 * 7) * 8
        assert scratch_doubles(23, 17) == (234 * 17 * 17 + 23 * 17) * 24
        with pytest.raises(ValueError, match="row vector"):
            scratch_doubles(3, 1)  # k = 1: 1 + 8 > 2 * 3
        patches, mesh, _ = _kernel_inputs(7, 1, seed=0, nvars=2)
        mesh.r, mesh.k = 1, 1
        with pytest.raises(ValueError, match="row vector"):
            NativeWaveRHS(impl="py")(patches[..., :3, :3, :3].copy(), 0, 1,
                                     mesh, 1.0, 0.1, None,
                                     np.zeros((2, 1, 1, 1, 1)), BufferPool())


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
