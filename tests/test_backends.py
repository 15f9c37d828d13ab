"""Compiled-kernel backend: selection ladder, bitwise contract, telemetry.

The headline guarantees under test (DESIGN.md §11):

* ``backend="compiled"`` produces **bitwise-identical** results to the
  NumPy kernel's execution of the same generated schedule — single RHS
  evaluations, derivative exports, and multi-step RK4 evolutions;
* each C kernel agrees bitwise with its NumPy execution;
* backend resolution degrades gracefully: ``auto`` falls back to numpy
  with exactly one warning, explicit ``compiled`` raises a clear error,
  whether the toolchain is missing or present but unable to build the
  unit — and a failed build leaves nothing in the cache;
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
from repro.codegen import cbackend as C
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
from repro.solver.bssn_solver import (
    ENFORCE_FLOOR,
    BSSNSolver,
    enforce_algebraic_constraints,
)
from repro.solver.rk4 import combine_stage
from repro.solver.wave_solver import PHI, GaussianSource, WaveSolver
from repro.telemetry import MetricsRegistry

from .frozen_oracles import bssn_apply_sommerfeld, wave_apply_sommerfeld
from .test_mesh_unzip import (
    NATIVE,
    _GuardedPool,
    _same_bits,
    _with_specials,
    needs_native,
)


@pytest.fixture
def no_cc(tmp_path, monkeypatch):
    """A host with cffi but no C compiler, and no unit built yet."""
    monkeypatch.setattr(C, "_cache_dir", lambda: tmp_path)
    monkeypatch.setattr(C, "_cc", lambda: None)
    monkeypatch.setattr(B, "_NATIVE_LIB", None)
    monkeypatch.setattr(B, "_WARNED_FALLBACK", False)


@pytest.fixture
def broken_cc(tmp_path, monkeypatch):
    """A compiler that rejects both flag sets, building into an empty
    cache at ``tmp_path`` (the checkout's is never touched)."""
    monkeypatch.setattr(C, "_cache_dir", lambda: tmp_path)
    for name in ("CFLAGS", "CFLAGS_PORTABLE"):
        monkeypatch.setattr(C, name, getattr(C, name) + ("-fno-such-flag",))
    monkeypatch.setattr(B, "_NATIVE_LIB", None)
    monkeypatch.setattr(B, "_WARNED_FALLBACK", False)
    return tmp_path


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
        """cffi + cc is the one compiled rung; without it there is none."""
        monkeypatch.setattr(B, "probe_cffi", lambda: "0.0")
        assert B.native_impl() == "cffi"
        monkeypatch.setattr(B, "probe_cffi", lambda: None)
        assert B.native_impl() is None

    def test_auto_falls_back_with_single_warning(self, no_cc):
        """No C compiler: auto degrades to numpy, warning exactly once
        per process."""
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("auto") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert resolve_backend("auto") == "numpy"

    def test_explicit_compiled_raises_clear_error(self, no_cc):
        with pytest.raises(BackendUnavailableError, match="no C compiler"):
            resolve_backend("compiled")

    def test_solver_ctor_surfaces_unavailability(self, mesh, no_cc):
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
        assert set(info) == {"cffi", "cc", "native_impl"}


@needs_native
class TestBrokenToolchain:
    """A ``cc`` on PATH that cannot build the unit (an unknown flag in
    both flag sets) is an unavailable backend, not a crash."""

    def test_auto_falls_back_to_numpy_with_one_warning(self, broken_cc,
                                                       mesh):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert WaveSolver(mesh, backend="auto").backend == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert WaveSolver(mesh, backend="auto").backend == "numpy"

    def test_compiled_raises_backend_unavailable(self, broken_cc, mesh):
        with pytest.raises(BackendUnavailableError,
                           match="no-such-flag") as err:
            WaveSolver(mesh, backend="compiled")
        assert isinstance(err.value.__cause__, C.ToolchainError)

    def test_failed_build_leaves_an_empty_cache(self, broken_cc):
        with pytest.raises(C.ToolchainError):
            C.build_native_lib(
                C.emit_c_source(get_kernel_spec(COMPILED_VARIANT)))
        assert list(broken_cc.iterdir()) == []


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
    @needs_native
    @pytest.mark.parametrize("native", NATIVE)
    @pytest.mark.parametrize("nvars", [2, 24])
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=4, deadline=None)
    def test_native_sommerfeld_equals_numpy_twin(self, native, nvars, seed):
        assert B.native_impl() == native
        mesh = _random_mesh(seed, base_level=1 if nvars == 24 else 2)
        u, patches, coords, radii, u_inf, rhs0 = _boundary_inputs(
            mesh, nvars, seed)
        ref = _twin(mesh, patches, coords, radii, u_inf, 0.7, rhs0.copy())
        got = rhs0.copy()
        NativeWaveRHS().sommerfeld(got, patches, mesh, coords, radii,
                                   u_inf, 0.7)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert not np.array_equal(got, rhs0)

    @needs_native
    @pytest.mark.parametrize("nvars", [2, 24])
    def test_native_sommerfeld_on_one_refined_octant(self, nvars):
        tree = LinearOctree.uniform(1, domain=Domain(-8.0, 8.0))
        mesh = Mesh(balance(tree.refine(np.arange(len(tree)) == 5)))
        u, patches, coords, radii, u_inf, rhs0 = _boundary_inputs(
            mesh, nvars, 11)
        ref = _twin(mesh, patches, coords, radii, u_inf, 1.0, rhs0.copy())
        got = rhs0.copy()
        NativeWaveRHS().sommerfeld(got, patches, mesh, coords, radii,
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
    @needs_native
    def test_native_dispatcher_matches_numpy_wave(self, small_mesh):
        """The C kernels driven through the dispatcher by hand — chunk
        kernel, then the kernel object's own Sommerfeld — against the
        NumPy solver's ``full_rhs``."""
        from repro.perf import BufferPool

        native = NativeWaveRHS()
        sn = WaveSolver(small_mesh, backend="numpy")
        rng = np.random.default_rng(2)
        u = rng.standard_normal(sn.state.shape)
        ref = sn.full_rhs(u, 0.0)

        pool = BufferPool()
        n = small_mesh.num_octants
        patches = small_mesh.unzip(u)
        rhs = np.zeros_like(u)
        native(patches, 0, n, small_mesh, 1.0, sn.ko_sigma, None, rhs, pool)
        # the solver additionally overwrites the boundary faces
        coords = sn.coords()
        radii = np.maximum(np.linalg.norm(coords, axis=-1), 1e-12)
        native.sommerfeld(rhs, patches, small_mesh, coords, radii,
                          np.zeros(2), sn.speed)
        assert np.array_equal(rhs, ref)

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


@needs_native
class TestRowVectorKernels:
    """One x-run is one 8-lane vector (``repro.codegen.cbackend``): r = 7
    leaves one lane idle, r = 9 and 11 take two vectors per row with
    seven and five idle lanes."""

    def _bssn_pair(self, patches, mesh, pool):
        from repro.perf import BufferPool

        ref = _run_chunks(
            B.NumpyBSSNRHS(get_algebra_kernel(COMPILED_VARIANT)),
            patches, mesh, CHUNKS, BufferPool(), BSSNParams())
        got = _run_chunks(B.NativeBSSNRHS(), patches, mesh, CHUNKS,
                          pool, BSSNParams())
        return got, ref

    def _wave_pair(self, patches, mesh, pool, src):
        from repro.perf import BufferPool

        ref = _run_chunks(B.NumpyWaveRHS(), patches, mesh, [(1, 4)],
                          BufferPool(), 1.3, 0.1, src)
        got = _run_chunks(NativeWaveRHS(), patches, mesh, [(1, 4)],
                          pool, 1.3, 0.1, src)
        return got, ref

    @pytest.mark.parametrize("native", NATIVE)
    @pytest.mark.parametrize("r", [7, 9, 11])
    def test_bssn_chunks_bitwise_behind_guard_pages(self, native, r):
        assert B.native_impl() == native
        patches, mesh, _ = _kernel_inputs(r, 4, seed=r)
        pool = _GuardedPool()
        got, ref = self._bssn_pair(patches, mesh, pool)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert (got[:, 0] == 7.0).all() and np.isfinite(got).all()

    def test_bssn_chunks_bitwise_in_a_plain_pool(self):
        from repro.perf import BufferPool

        patches, mesh, _ = _kernel_inputs(7, 4, seed=3)
        got, ref = self._bssn_pair(patches, mesh, BufferPool())
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("native", NATIVE)
    @pytest.mark.parametrize("r", [7, 9, 11])
    @pytest.mark.parametrize("sourced", [False, True])
    def test_wave_chunks_bitwise_behind_guard_pages(self, native, r, sourced):
        assert B.native_impl() == native
        patches, mesh, rng = _kernel_inputs(r, 4, seed=r, nvars=2)
        src = rng.normal(size=(3, r, r, r)) if sourced else None
        got, ref = self._wave_pair(patches, mesh, _GuardedPool(), src)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert (got[:, 0] == 7.0).all()

    @pytest.mark.parametrize("native", NATIVE)
    @pytest.mark.parametrize("r", [7, 9])
    def test_non_finite_sources_propagate_as_numpy_does(self, native, r):
        """NaN, ±inf and −0.0 anywhere in the patches, ghost zones
        included: the kept lanes carry them exactly as the NumPy
        execution does.  NaN in the eight k³ ghost corners, which only
        idle lanes read, reaches nothing."""
        from repro.perf import BufferPool

        assert B.native_impl() == native
        patches, mesh, rng = _kernel_inputs(r, 4, seed=10 + r)
        k = mesh.k
        for sz in (slice(0, k), slice(-k, None)):
            for sy in (slice(0, k), slice(-k, None)):
                for sx in (slice(0, k), slice(-k, None)):
                    patches[..., sz, sy, sx] = np.nan
        with np.errstate(all="ignore"):
            got, ref = self._bssn_pair(patches, mesh, BufferPool())
            assert np.isfinite(got).all()
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            flat = patches.reshape(-1)
            where = rng.choice(flat.size, 40, replace=False)
            flat[where] = rng.choice([np.nan, np.inf, -np.inf, -0.0], 40)
            got, ref = self._bssn_pair(patches, mesh, BufferPool())
            assert _same_bits(got, ref) and np.isnan(got).any()
            got, ref = self._wave_pair(patches[[S.ALPHA, S.CHI]].copy(),
                                       mesh, BufferPool(), None)
            assert _same_bits(got, ref)

    def test_portable_build_equals_native_build(self, tmp_path, monkeypatch):
        """The translation unit built with ``CFLAGS_PORTABLE`` (the
        vectors split for the baseline ISA) writes the same bits as the
        ``-march=native`` build."""
        from repro.perf import BufferPool

        native = B.get_native_lib()
        monkeypatch.setattr(C, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(C, "CFLAGS", C.CFLAGS_PORTABLE)
        portable = C.build_native_lib(
            C.emit_c_source(get_kernel_spec(COMPILED_VARIANT)))
        assert portable.cflags == C.CFLAGS_PORTABLE
        assert portable.path != native.path
        patches, mesh, rng = _kernel_inputs(7, 4, seed=5)
        # every other entry point, on inputs with NaN, ±inf and −0.0: the
        # gather and padding fill (x faces included: every octant of the
        # 2³ grid is a corner), Sommerfeld, the stage combines, enforce
        grid = Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0)))
        u = _with_specials(rng.normal(size=(2, grid.num_octants, 7, 7, 7)),
                           rng, count=12)
        coords = grid.coordinates()
        radii = np.maximum(np.linalg.norm(coords, axis=-1), 1e-12)
        state = _enforce_state(rng, (S.NUM_VARS, 4, 7, 7, 7))
        ks = [_with_specials(rng.normal(size=state.shape), rng)
              for _ in range(2)]
        out = []
        for lib in (native, portable):
            bssn, wave = B.NativeBSSNRHS(), NativeWaveRHS()
            bssn._lib = wave._lib = lib
            got = [
                _run_chunks(bssn, patches, mesh, CHUNKS, BufferPool(),
                            BSSNParams()),
                _run_chunks(wave, patches[:2].copy(), mesh, CHUNKS,
                            BufferPool(), 1.3, 0.1, None)]
            with np.errstate(all="ignore"):
                cube = np.full((2, grid.num_octants) + (grid.P,) * 3, np.nan)
                grid.unzip(u, out=cube, coalesce=True,
                           executor=wave.unzip_gather)
                rhs = np.zeros_like(u)
                wave.sommerfeld(rhs, cube, grid, coords, radii, np.zeros(2),
                                0.7)
                got += [cube, rhs]
                for form, c in RK4_STAGES:
                    k, ksum = ks[0].copy(), ks[1].copy()
                    dst = np.empty_like(state)
                    assert wave.rk4_combine(form, state, k, ksum, dst, c)
                    got += [ksum, dst]
                enforced = state.copy()
                assert bssn.enforce(enforced, BufferPool(), ENFORCE_FLOOR)
                got.append(enforced)
            out.append(got)
        # the chunk kernels' outputs hold no NaN: equal as raw bits
        for a, b in zip(out[0][:2], out[1][:2]):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # the special values may come out of a commuted operation with
        # another NaN payload
        for a, b in zip(out[0][2:], out[1][2:]):
            assert _same_bits(a, b)

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
            NativeWaveRHS()(patches[..., :3, :3, :3].copy(), 0, 1, mesh,
                            1.0, 0.1, None, np.zeros((2, 1, 1, 1, 1)),
                            BufferPool())


# ---------------------------------------------------------------------------
# the whole-state pieces of a compiled step: stage combine and enforce
# ---------------------------------------------------------------------------

#: (form, c) of rk4_step's four stage combines, for dt = 0.03
RK4_STAGES = [(1, 0.5 * 0.03), (2, 0.5 * 0.03), (2, 0.03), (3, 0.03 / 6.0)]


def _enforce_state(rng, shape):
    """A perturbed flat BSSN state with everything the enforcement must
    carry as NumPy does: NaN, ±inf and −0.0 in any variable, χ and α
    below the floor (−0.0 among them) or NaN, points with det(γ̃) < 0
    and det(γ̃) = 0."""
    u = (ASYMPTOTIC[:, None, None, None, None]
         + 0.05 * rng.normal(size=shape))
    n = u[0].size
    pts = rng.choice(n, 60, replace=False)
    for slot in (S.CHI, S.ALPHA):
        u[slot].reshape(-1)[pts[:15]] = np.resize([1e-9, -0.5, -0.0, np.nan],
                                                  15)
        pts = pts[15:]
    gt = u[S.GT_SYM_SLICE].reshape(6, -1)
    gt[0, pts[:10]] = -1.0  # det < 0: NaN from the cube root
    gt[:, pts[10:20]] = 0.0  # det = 0: inf from the cube root
    return _with_specials(u, rng, count=24)


@needs_native
class TestNativeStep:
    """The RK4 stage combine and the algebraic-constraint enforcement in
    C, against their NumPy executions (:func:`combine_stage`,
    :func:`enforce_algebraic_constraints`) bit for bit, every buffer
    flush against a ``PROT_NONE`` page."""

    @staticmethod
    def _guarded(a):
        g = _GuardedPool().get("copy", a.shape)
        g[...] = a
        return g

    @pytest.mark.parametrize("native", NATIVE)
    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_stage_combine_bitwise_behind_guard_pages(self, native, stage):
        """Stage 1 combines k₁ in ``ksum`` with itself as ``k``."""
        from repro.perf import BufferPool

        assert B.native_impl() == native
        form, c = RK4_STAGES[stage - 1]
        rng = np.random.default_rng(stage)
        u, k, ksum = (_with_specials(rng.normal(size=(5, 9, 7, 7, 7)), rng)
                      for _ in range(3))
        ref_ksum, ref_out = ksum.copy(), np.full_like(u, 7.0)
        with np.errstate(invalid="ignore"):  # inf − inf
            combine_stage(form, u, ref_ksum if stage == 1 else k, ref_ksum,
                          ref_out, c, BufferPool().get("s", u.shape))
        gu, gk, gksum = map(self._guarded, (u, k, ksum))
        got_out = self._guarded(np.full_like(u, 7.0))
        assert NativeWaveRHS().rk4_combine(
            form, gu, gksum if stage == 1 else gk, gksum, got_out, c)
        assert _same_bits(got_out, ref_out) and _same_bits(gksum, ref_ksum)
        assert _same_bits(gu, u) and _same_bits(gk, k)

    def test_stage_combine_declines_what_it_cannot_take(self):
        u = np.ones((2, 3, 4))
        out = np.full_like(u, 7.0)
        kernel = NativeWaveRHS()
        assert not kernel.rk4_combine(1, u[..., ::2], u[..., ::2],
                                      u[..., ::2], out[..., ::2], 0.1)
        assert not kernel.rk4_combine(1, u.astype(np.float32), u, u, out,
                                      0.1)
        assert not kernel.rk4_combine(1, u, u, u, out[:1], 0.1)
        assert (out == 7.0).all()

    @pytest.mark.parametrize("native", NATIVE)
    @pytest.mark.parametrize("seed, floor", [(0, ENFORCE_FLOOR),
                                             (1, ENFORCE_FLOOR), (2, 0.25)])
    def test_enforce_bitwise_behind_guard_pages(self, native, seed, floor):
        """The floor is an argument of both executions; a non-default
        one reaches the C pass too."""
        assert B.native_impl() == native
        rng = np.random.default_rng(seed)
        u = _enforce_state(rng, (S.NUM_VARS, 5, 7, 7, 7))
        ref = u.copy()
        got = self._guarded(u)
        with np.errstate(all="ignore"):  # det <= 0 in the cube root
            enforce_algebraic_constraints(ref, floor)
            assert B.NativeBSSNRHS().enforce(got, _GuardedPool(), floor)
        assert _same_bits(got, ref)
        # every case took place: floors, NaN from det < 0, finite rows
        assert (ref[S.CHI] == floor).any() and (ref[S.ALPHA] == floor).any()
        assert np.isnan(ref[S.GT_SYM_SLICE]).any()
        assert np.isfinite(ref).any(axis=0).all()

    def test_enforce_declines_what_it_cannot_take(self):
        from repro.perf import BufferPool

        kernel = B.NativeBSSNRHS()
        u = np.ones((S.NUM_VARS, 2, 3, 3, 6))
        for bad in (u[..., ::2], u[:12], u.astype(np.float32)):
            assert not kernel.enforce(bad, BufferPool(), ENFORCE_FLOOR)
        assert (u == 1.0).all()

    def test_compiled_solver_steps_through_the_native_pieces(self, small_mesh):
        """A compiled step calls each of them once per stage, and each
        takes what it is given."""
        sc = BSSNSolver(small_mesh, BSSNParams(), backend="compiled")
        sc.set_punctures([Puncture(mass=1.0, position=[0.3, 0.1, -0.2])])
        calls = []

        def spy(name, run):
            def call(*args):
                calls.append((name, run(*args)))
                return calls[-1][1]
            return call

        for name in ("rk4_combine", "enforce"):
            setattr(sc.kernel, name, spy(name, getattr(sc.kernel, name)))
        sc.step()
        assert sorted(calls) == [("enforce", True)] * 4 + [
            ("rk4_combine", True)] * 4


# ---------------------------------------------------------------------------
# the compiled step's allocation rule
# ---------------------------------------------------------------------------


def _traced_peak(run) -> int:
    """Peak bytes ``tracemalloc`` traces during one ``run()`` after two
    untraced ones (NumPy reports every array's data to it)."""
    import tracemalloc

    run()
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_native
class TestWarmStepAllocations:
    """Paper Alg. 1 allocates every per-step buffer once per mesh: a warm
    compiled step leases them from the workspace arena and allocates no
    array.  The grid is uniform level 2 with one octant split: 71
    octants, so both kernels' last chunk is ragged, and 7 coarse sources
    the unzip prolongs.  One source block of the 24-variable state is
    66 kB; the bounds are about twice the peaks measured on a 2-vCPU
    x86-64 VM with CPython 3.11 (BSSN 10-15 kB, wave 7 kB, scan 3 kB),
    which are Python objects: index tuples, pointer casts, floats."""

    @pytest.fixture(scope="class")
    def refined(self):
        tree = LinearOctree.uniform(2, domain=Domain(-8.0, 8.0))
        mesh = Mesh(balance(tree.refine(np.arange(len(tree)) == 0)))
        assert mesh.num_octants % 8 and len(mesh.plan.prolong_octs)
        return mesh

    @pytest.fixture(scope="class")
    def bssn(self, refined):
        s = BSSNSolver(refined, BSSNParams(), backend="compiled")
        s.set_punctures([Puncture(mass=1.0, position=[0.3, 0.1, -0.2])])
        return s

    def test_bssn_step(self, bssn):
        assert _traced_peak(bssn.step) < 32_000

    def test_wave_step(self, refined):
        s = WaveSolver(refined, backend="compiled")
        s.state[PHI] = np.exp(-(s.coords() ** 2).sum(axis=-1))
        assert _traced_peak(s.step) < 24_000

    def test_health_scan(self, bssn):
        from repro.resilience import HealthMonitor

        monitor, pool = HealthMonitor(), bssn.workspace().pool
        assert _traced_peak(lambda: monitor.scan(bssn.state, pool=pool)) \
            < 8_000


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

    @pytest.mark.parametrize("use_upwind, deriv", [(True, 5250),
                                                   (False, 3711)])
    def test_published_flops_count_the_sweeps_the_kernel_runs(
            self, use_upwind, deriv):
        """One chunk of two octants: the schedule's A count plus the D
        stage as emitted — with upwinding 45 centred first derivatives
        (the ones the schedule reads) and 72 upwind pairs, without it
        all 72 centred ones and no upwind pair."""
        from repro.perf import BufferPool

        patches, mesh, _ = _kernel_inputs(7, 2, seed=1)
        metrics = MetricsRegistry()
        prof = StepProfiler(metrics=metrics)
        kernel = B.NativeBSSNRHS()
        prof.begin_step()
        kernel(patches, 0, 2, mesh, BSSNParams(use_upwind=use_upwind),
               np.zeros((S.NUM_VARS, 2, 7, 7, 7)), BufferPool(), prof)
        prof.end_step()
        label = f"bssn_rhs_chunk[{B.native_impl()}]"
        assert metrics.get("gpu_flops", kernel=label).value == (
            (kernel.spec.total_flops + deriv) * 2 * 7**3)
        need = C.d1_need(kernel.spec)
        assert sum(1 for b in need if b & (1 if use_upwind else 3)) == (
            45 if use_upwind else 72)
