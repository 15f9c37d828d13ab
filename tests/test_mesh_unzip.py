"""Tests for the octant-to-patch (unzip) and patch-to-octant (zip) kernels."""

import ctypes
import mmap

import numpy as np
import pytest

from repro.octree import LinearOctree, balance, bbh_grid
from repro.mesh import Mesh


def _mesh_bbh(max_level=6, base_level=2):
    return Mesh(bbh_grid(mass_ratio=2.0, max_level=max_level, base_level=base_level))


def _poly(c):
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    return x**3 + 2.0 * y**2 * z - z + 0.5 * x * y


@pytest.fixture(scope="module")
def mesh():
    return _mesh_bbh()


@pytest.fixture(scope="module")
def poly_setup(mesh):
    u = _poly(mesh.coordinates())
    expect = _poly(mesh.patch_coordinates())
    return u, expect


class TestScatter:
    def test_interior_octants_exact_on_poly(self, mesh, poly_setup):
        u, expect = poly_setup
        p = mesh.unzip(u)
        interior = np.ones(mesh.num_octants, dtype=bool)
        interior[mesh.boundary_octants()] = False
        scale = np.abs(expect).max()
        assert np.abs(p[interior] - expect[interior]).max() < 1e-11 * scale

    def test_boundary_extrapolation_close_on_poly(self, mesh, poly_setup):
        """Degree-4 extrapolation on a cubic is exact up to roundoff
        amplification in cascaded corners."""
        u, expect = poly_setup
        p = mesh.unzip(u)
        scale = np.abs(expect).max()
        assert np.abs(p - expect).max() < 1e-7 * scale

    def test_zip_unzip_roundtrip(self, mesh):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(mesh.num_octants, 7, 7, 7))
        assert np.array_equal(mesh.zip(mesh.unzip(u)), u)

    def test_gather_equals_scatter(self, mesh):
        """Fig. 7's two algorithms are functionally identical."""
        rng = np.random.default_rng(4)
        u = rng.normal(size=(mesh.num_octants, 7, 7, 7))
        assert np.allclose(mesh.unzip(u), mesh.unzip(u, method="gather"),
                           rtol=0, atol=1e-12)

    def test_multi_dof(self, mesh):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(3, mesh.num_octants, 7, 7, 7))
        p = mesh.unzip(u)
        assert p.shape == (3, mesh.num_octants, 13, 13, 13)
        for d in range(3):
            assert np.allclose(p[d], mesh.unzip(u[d]), atol=1e-14)

    def test_invalid_method(self, mesh):
        u = mesh.allocate()
        with pytest.raises(ValueError):
            mesh.unzip(u, method="bogus")

    def test_out_buffer_fully_overwritten(self, mesh):
        """unzip(out=...) into a NaN-poisoned reused buffer is
        byte-identical to a fresh unzip — every patch point is written."""
        rng = np.random.default_rng(21)
        u = rng.normal(size=(2, mesh.num_octants, 7, 7, 7))
        ref = mesh.unzip(u)
        buf = np.full_like(ref, np.nan)
        got = mesh.unzip(u, out=buf)
        assert got is buf
        assert np.array_equal(ref, got)

    def test_coalesced_scatter_byte_identical(self, mesh):
        """The coalesced fancy-index scatter matches the per-group
        scatter bitwise, and gather_to_patches to roundoff."""
        from repro.mesh import gather_to_patches

        rng = np.random.default_rng(22)
        u = rng.normal(size=(mesh.num_octants, 7, 7, 7))
        ref = mesh.unzip(u)
        got = mesh.unzip(u, out=np.full_like(ref, np.nan), coalesce=True)
        assert np.array_equal(ref, got)
        gat = gather_to_patches(mesh.plan, u)
        assert np.allclose(ref, gat, rtol=0, atol=1e-12)

    def test_coalesced_scatter_with_pool_reuses_buffers(self, mesh):
        from repro.perf import BufferPool

        pool = BufferPool()
        rng = np.random.default_rng(23)
        u = rng.normal(size=(mesh.num_octants, 7, 7, 7))
        ref = mesh.unzip(u)
        out = np.empty_like(ref)
        assert np.array_equal(mesh.unzip(u, out=out, coalesce=True, pool=pool), ref)
        misses = pool.misses
        assert np.array_equal(mesh.unzip(u, out=out, coalesce=True, pool=pool), ref)
        assert pool.misses == misses  # second unzip allocates nothing

    def test_shape_validation(self, mesh):
        with pytest.raises(ValueError):
            mesh.unzip(np.zeros((5, 7, 7, 7)))
        with pytest.raises(ValueError):
            mesh.zip(np.zeros((5, 13, 13, 13)))


class TestUniformGrid:
    def test_same_level_padding_matches_neighbor(self):
        """On a uniform grid unzip is pure copying: padding equals the
        neighbour's interior values bitwise.

        The field must be consistent at duplicated shared points (an
        invariant of the block storage), so it is built from coordinates
        rather than random per-block data.
        """
        mesh = Mesh(LinearOctree.uniform(2))
        c = mesh.coordinates()
        u = np.sin(c[..., 0] * 0.3) + np.cos(c[..., 1] * 0.2) * c[..., 2]
        p = mesh.unzip(u)
        tree = mesh.tree
        oc = tree.octants
        size = oc.size[0]
        # pick an octant with an -x neighbour
        i = int(np.flatnonzero(oc.x > 0)[0])
        jx = int(oc.x[i] - size)
        nb = int(
            tree.locate(
                np.array([jx], dtype=np.uint64), oc.y[i : i + 1], oc.z[i : i + 1]
            )[0]
        )
        # patch x-padding [0:3] of i == neighbour's interior columns 3:6
        assert np.array_equal(p[i, 3:10, 3:10, 0:3], u[nb, :, :, 3:6])
        # shared face: interior column 3 of the patch equals own column 0
        assert np.array_equal(p[i, 3:10, 3:10, 3], u[i, :, :, 0])

    def test_no_prolongations_on_uniform(self):
        mesh = Mesh(LinearOctree.uniform(2))
        assert mesh.plan.stats.prolong_blocks_scatter == 0
        assert mesh.plan.stats.prolong_points == 0
        assert mesh.plan.stats.inject_points == 0


class TestAdaptiveConsistency:
    def test_smooth_field_small_jump(self):
        """Unzipping a smooth non-polynomial field: interpolation error is
        bounded by the truncation order."""
        mesh = _mesh_bbh(max_level=6, base_level=3)
        c = mesh.coordinates()
        u = np.sin(0.2 * c[..., 0]) * np.cos(0.15 * c[..., 1] + 0.1 * c[..., 2])
        p = mesh.unzip(u)
        pc = mesh.patch_coordinates()
        expect = np.sin(0.2 * pc[..., 0]) * np.cos(0.15 * pc[..., 1] + 0.1 * pc[..., 2])
        interior = np.ones(mesh.num_octants, dtype=bool)
        interior[mesh.boundary_octants()] = False
        assert np.abs(p[interior] - expect[interior]).max() < 5e-4

    def test_plan_stats_populated(self, mesh):
        st = mesh.plan.stats
        assert st.copy_points > 0
        assert st.prolong_points > 0
        assert st.inject_points > 0
        assert st.prolong_blocks_scatter > 0
        # gather mode re-interpolates per pair: strictly more prolongations
        assert st.prolong_pairs_gather > st.prolong_blocks_scatter
        assert st.interp_flops("gather") > st.interp_flops("scatter")


class TestInterpolateToPoints:
    def test_polynomial_exact(self, mesh):
        u = _poly(mesh.coordinates())
        rng = np.random.default_rng(7)
        pts = rng.uniform(-20, 20, size=(40, 3))
        vals = mesh.interpolate_to_points(u, pts)
        expect = _poly(pts)
        assert np.allclose(vals, expect, rtol=1e-9, atol=1e-8)

    def test_outside_domain_raises(self, mesh):
        u = mesh.allocate()
        with pytest.raises(ValueError):
            mesh.interpolate_to_points(u, np.array([[1e6, 0.0, 0.0]]))


class TestCoordinates:
    def test_spacing_matches_dx(self, mesh):
        c = mesh.coordinates()
        got = c[:, 0, 0, 1, 0] - c[:, 0, 0, 0, 0]
        assert np.allclose(got, mesh.dx)

    def test_patch_coordinates_extend_block(self, mesh):
        c = mesh.coordinates()
        pc = mesh.patch_coordinates()
        assert np.allclose(pc[:, 3:10, 3:10, 3:10], c)
        assert np.allclose(pc[:, 0, 0, 0, 0], c[:, 0, 0, 0, 0] - 3 * mesh.dx)


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import balance


def _random_balanced_mesh(seed, base_level=2):
    rng = np.random.default_rng(seed)
    t = LinearOctree.uniform(base_level)
    for _ in range(2):
        flags = rng.random(len(t)) < 0.25
        flags &= t.levels < 5
        t = t.refine(flags)
    return Mesh(balance(t))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_unzip_property_random_balanced_trees(seed):
    """Property: on any random balanced tree, (a) zip∘unzip is the
    identity, (b) gather ≡ scatter, (c) unzip reproduces a smooth global
    function on all interior patches to interpolation accuracy."""
    mesh = _random_balanced_mesh(seed)

    c = mesh.coordinates()
    u = np.sin(0.05 * c[..., 0]) * np.cos(0.07 * c[..., 1]) + 0.02 * c[..., 2]
    p = mesh.unzip(u)
    assert np.array_equal(mesh.zip(p), u)
    assert np.allclose(p, mesh.unzip(u, method="gather"), atol=1e-13)

    pc = mesh.patch_coordinates()
    expect = (
        np.sin(0.05 * pc[..., 0]) * np.cos(0.07 * pc[..., 1])
        + 0.02 * pc[..., 2]
    )
    interior = np.ones(mesh.num_octants, dtype=bool)
    interior[mesh.boundary_octants()] = False
    if interior.any():
        assert np.abs(p[interior] - expect[interior]).max() < 1e-5


# ---------------------------------------------------------------------------
# the native gather execution (compiled chunk kernels' unzip_gather)
# ---------------------------------------------------------------------------

from repro.codegen import backends as B
from repro.mesh.maps import CASE_COARSE, CASE_FINE, CASE_SAME

#: every rung of the compiled ladder this host can run; un-jitted "py"
#: always can
RUNGS = [impl for impl, ok in (("numba", B.probe_numba()),
                               ("cffi", B.probe_cffi())) if ok]


def _has_every_case(mesh):
    return ({g.case for g in mesh.plan.groups}
            == {CASE_COARSE, CASE_SAME, CASE_FINE}
            and len(mesh.boundary_octants()) > 0)


def _same_bits(a, b):
    """Equal bit for bit, signed zeros told apart; any NaN equals any
    NaN (a payload depends on operand order, which no one fixes)."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64),
                               b[~nan].view(np.uint64)))


class _GuardedPool:
    """A pool whose every buffer ends flush against a ``PROT_NONE`` page,
    so a read or write one double past it faults instead of passing."""

    def get(self, name, shape, dtype=np.float64):
        mprotect = ctypes.CDLL(None, use_errno=True).mprotect
        mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
        page = mmap.PAGESIZE
        nbytes = int(np.prod(shape)) * 8
        span = -(-nbytes // page) * page
        mm = mmap.mmap(-1, span + page)
        start = ctypes.addressof(ctypes.c_char.from_buffer(mm))
        assert mprotect(start + span, page, 0) == 0  # 0 = PROT_NONE
        # the array keeps the mapping alive; it is unmapped with it
        return np.frombuffer(mm, dtype=dtype, count=nbytes // 8,
                             offset=span - nbytes).reshape(shape)


def _with_specials(a, rng, count=6):
    """A copy with NaN, ±inf and −0.0 at ``count`` random places: the
    padding fill multiplies its zero taps too, so 0 · inf must be NaN."""
    out = a.copy()
    flat = out.reshape(-1)
    flat[rng.choice(flat.size, count, replace=False)] = rng.choice(
        [np.nan, np.inf, -np.inf, -0.0], count)
    return out


def _ranges(n, rng):
    """Empty, one octant, the last octant, the whole mesh and a drawn
    range."""
    a = int(rng.integers(0, n))
    return [(a, a), (a, a + 1), (n - 1, n), (0, n),
            tuple(sorted(int(i) for i in rng.integers(0, n + 1, 2)))]


def _assert_native_equals_reference(mesh, kernel, nvars, rng, pool=None):
    """The native gather and face fill of octant ranges against the
    whole-mesh group loop, bit for bit, into a NaN-poisoned buffer (the
    last octant's patches flush against a ``PROT_NONE`` page when
    ``pool`` is a guarded one)."""
    n = mesh.num_octants
    u = rng.normal(size=(nvars, n, 7, 7, 7))
    # with and without a leading axis, then with non-finite sources
    for state in (u, u[0], _with_specials(u, rng)):
        with np.errstate(invalid="ignore"):  # 0 · inf, inf − inf
            ref = mesh.unzip(state)  # group loop + extrapolate_boundary
            for lo, hi in _ranges(n, rng):
                shape = state.shape[:-4] + (hi - lo,) + (mesh.P,) * 3
                out = (pool.get("chunk", shape) if pool is not None
                       else np.empty(shape))
                out[...] = np.nan  # every point must be written
                got = mesh.unzip(state, out=out, coalesce=True,
                                 executor=kernel.unzip_gather, lo=lo, hi=hi)
                assert got is out
                assert _same_bits(got, ref[..., lo:hi, :, :, :])
                if np.isfinite(state).all():
                    assert not np.isnan(got).any()


@pytest.mark.skipif(not RUNGS, reason="no native toolchain (numba or cffi+cc)")
@pytest.mark.parametrize("impl", RUNGS)
@pytest.mark.parametrize("nvars", [1, 2, 24])
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=5, deadline=None)
def test_native_unzip_equals_group_loop_on_random_trees(impl, nvars, seed):
    """Bitwise on random balanced trees with boundary octants and all
    three transfer cases; 24 variables on smaller trees to bound memory."""
    from hypothesis import assume

    mesh = _random_balanced_mesh(seed, base_level=1 if nvars == 24 else 2)
    assume(_has_every_case(mesh))
    _assert_native_equals_reference(
        mesh, B.NativeWaveRHS(impl=impl), nvars, np.random.default_rng(seed),
        pool=_GuardedPool(),
    )


def test_py_rung_unzip_equals_group_loop():
    """The emitted Python twin of the kernels, un-jitted, on a tiny tree
    (needs no toolchain)."""
    tree = LinearOctree.uniform(1)
    mesh = Mesh(balance(tree.refine(np.arange(len(tree)) == 3)))
    assert _has_every_case(mesh)
    _assert_native_equals_reference(
        mesh, B.NativeWaveRHS(impl="py"), 2, np.random.default_rng(5)
    )


def _native_extrapolate(kernel, plan, patches):
    """The native padding fill alone, as ``unzip_gather`` runs it after
    its copy."""
    from repro.mesh.interp import extrapolation_matrices

    n, P, r, k = patches.shape[-4], plan.P, plan.r, plan.k
    faces = plan.face_table()
    kernel._run("extrapolate_faces", patches, 0, n,
                patches.size // (n * P**3), faces, len(faces),
                extrapolation_matrices(r, k), P, r, k)


@pytest.mark.parametrize("impl", RUNGS + ["py"])
@pytest.mark.parametrize("lead", [(), (1,), (2,), (24,)])
@given(seed=st.integers(0, 2**31 - 1), keep=st.sampled_from([0.15, 0.5, 1.0]))
@settings(max_examples=4, deadline=None)
def test_extrapolate_faces_equals_the_einsum_oracle(impl, lead, seed, keep):
    """The native fill against ``extrapolate_boundary``, bit for bit, on
    drawn subsets of the faces of the 2³ grid — every octant a corner
    with three outside faces, face lists down to a single octant — with
    non-finite values in the source rows."""
    import copy

    from repro.mesh.octant_to_patch import extrapolate_boundary

    rng = np.random.default_rng(seed)
    plan = copy.copy(Mesh(LinearOctree.uniform(1)).plan)
    plan.boundary = [
        (axis, side, octs[sel]) for axis, side, octs in plan.boundary
        for sel in (rng.random(len(octs)) < keep,) if sel.any()
    ]
    plan._ranged = {}
    assert len(plan.face_table()) == sum(len(b[2]) for b in plan.boundary)
    ref = _with_specials(
        rng.normal(size=lead + (len(plan.tree), plan.P, plan.P, plan.P)),
        rng, count=12)
    got = ref.copy()
    with np.errstate(invalid="ignore"):  # 0 · inf, inf − inf
        extrapolate_boundary(plan, ref)
        _native_extrapolate(B.NativeWaveRHS(impl=impl), plan, got)
    assert _same_bits(got, ref)


def test_native_unzip_leaves_other_dtypes_to_numpy():
    """A float32 (or non-contiguous) state must not reach a kernel that
    reads ``double*``: the executor declines and the NumPy copy runs."""
    from repro.mesh import prolong_sources

    mesh = _random_balanced_mesh(3, base_level=1)
    n = mesh.num_octants
    kernel = B.NativeWaveRHS(impl="py")
    u = mesh.allocate(2, dtype=np.float32)
    u[...] = np.random.default_rng(0).normal(size=u.shape)
    ref = mesh.unzip(u)
    out = np.full_like(ref, np.nan)
    up = prolong_sources(mesh.plan, u)
    assert not kernel.unzip_gather(mesh.plan, u, up, out, 0, n)
    assert np.isnan(out).all()  # declined: nothing written
    # r >= 8 changes einsum's reduction order over a source row
    wide = Mesh(mesh.tree, r=9)
    w = wide.allocate(2)
    assert not kernel.unzip_gather(wide.plan, w, prolong_sources(wide.plan, w),
                                   wide.allocate_patches(2), 0, n)
    got = mesh.unzip(u, out=out, executor=kernel.unzip_gather)
    assert got.dtype == np.float32 and np.array_equal(got, ref)
    strided = np.zeros((2, n, 7, 7, 14))[..., ::2]
    assert not kernel.unzip_gather(mesh.plan, strided, up.astype(np.float64),
                                   mesh.allocate_patches(2), 0, n)


def test_ranges_and_buffers_a_kernel_would_overrun_are_refused(mesh):
    from repro.perf import BufferPool

    u, n = mesh.allocate(2), mesh.num_octants
    with pytest.raises(ValueError, match="outside the mesh"):
        mesh.unzip(u, lo=3, hi=n + 1)
    with pytest.raises(ValueError, match="upsample"):
        mesh.unzip(u, up=np.zeros((2, 1, 13, 13, 13)), lo=0, hi=1)
    kernel = B.NativeWaveRHS(impl="py")
    with pytest.raises(ValueError, match="patches must hold"):
        kernel(np.zeros((2, 2, 13, 13, 13)), 0, 3, mesh, 1.0, 0.1, None,
               u, BufferPool())
    with pytest.raises(ValueError, match="patches must hold"):
        kernel.sommerfeld(u, np.zeros((2, 2, 13, 13, 13)), mesh,
                          mesh.coordinates(), np.ones(u.shape[1:]),
                          np.zeros(2), 1.0)


def _group_loop_writers(plan):
    """The reference the map must equal, independently of how it is
    built: the group loop's writes (then the interior copy's) as one
    sequence of (point, source code), and for every point the code of
    its last occurrence — the first one in the reversed sequence, which
    ``np.unique`` returns deterministically."""
    n, P, r = len(plan.tree), plan.P, plan.r
    f3 = (2 * r - 1) ** 3
    dst, src = [], []
    for grp in plan.groups:
        if grp.case == CASE_COARSE:
            code = -2 - (plan.prolong_row[grp.src][:, None] * f3
                         + grp.src_template)
        else:
            code = grp.src[:, None] * r**3 + grp.src_template
        dst.append((grp.dst[:, None] * P**3 + grp.dst_template).ravel())
        src.append(code.ravel())
    cube = np.arange(n * P**3).reshape(n, P, P, P)
    dst.append(cube[:, 3:3 + r, 3:3 + r, 3:3 + r].ravel())
    src.append(np.arange(n * r**3))
    points, first = np.unique(np.concatenate(dst)[::-1], return_index=True)
    codes = np.full(n * P**3, -1, dtype=np.int64)
    codes[points] = np.concatenate(src)[::-1][first]
    return codes.reshape(n, P**3)


def test_gather_map_is_the_last_writer_of_the_group_loop(mesh):
    """Every patch point of the map names the source the sequential
    group loop plus the interior copy leaves there; -1 exactly where the
    padding leaves the domain; each coarse source prolonged once is
    read."""
    gm = mesh.plan.gather_map()
    assert gm.dtype == np.int32 and gm.shape == (mesh.num_octants, mesh.P**3)
    assert np.array_equal(gm, _group_loop_writers(mesh.plan))
    assert mesh.plan.gather_map() is gm  # cached per plan
    inside = np.ones(mesh.num_octants, dtype=bool)
    inside[mesh.boundary_octants()] = False
    assert not (gm[inside] == -1).any() and (gm == -1).any()
    rows = mesh.plan.prolong_rows()
    assert np.array_equal(rows, np.arange(len(mesh.plan.prolong_octs)))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=6, deadline=None)
def test_gather_map_on_random_trees(seed):
    plan = _random_balanced_mesh(seed).plan
    assert np.array_equal(plan.gather_map(), _group_loop_writers(plan))


def test_subset_prolongation_equals_the_whole_batch(mesh):
    """A rank's range prolongs only the coarse sources it reads; their
    upsample must be the rows of the whole-mesh one, bit for bit."""
    from repro.mesh import prolong_sources

    rng = np.random.default_rng(8)
    u = rng.normal(size=(3, mesh.num_octants, 7, 7, 7))
    whole = prolong_sources(mesh.plan, u).copy()
    for lo, hi in _ranges(mesh.num_octants, rng):
        rows = mesh.plan.prolong_rows(lo, hi)
        part = prolong_sources(mesh.plan, u, lo, hi)
        assert np.array_equal(part[:, rows].view(np.uint64),
                              whole[:, rows].view(np.uint64))


def test_numpy_range_unzip_equals_group_loop(mesh):
    """The NumPy executions of a range — group loop and two takes off
    the map — against the whole-mesh group loop."""
    rng = np.random.default_rng(9)
    u = rng.normal(size=(2, mesh.num_octants, 7, 7, 7))
    whole = mesh.unzip(u)
    for lo, hi in _ranges(mesh.num_octants, rng):
        for coalesce in (False, True):
            got = mesh.unzip(u, out=np.full_like(whole[:, lo:hi], np.nan),
                             coalesce=coalesce, lo=lo, hi=hi)
            assert np.array_equal(got, whole[:, lo:hi])


def test_unzip_spans_close_when_a_phase_raises(mesh):
    """An exception inside prolong or scatter must not leave its span
    open (every later span would nest under it)."""
    from repro.telemetry import Tracer

    class RaisingPool:
        def get(self, name, shape, dtype=np.float64):
            raise MemoryError(name)

    tracer = Tracer()
    u = mesh.allocate()
    with pytest.raises(MemoryError):
        mesh.unzip(u, pool=RaisingPool(), tracer=tracer)
    assert tracer.open_spans == 0

    def raising_executor(plan, u, up, out, lo, hi):
        raise RuntimeError("scatter")

    with pytest.raises(RuntimeError):
        mesh.unzip(u, tracer=tracer, executor=raising_executor)
    assert tracer.open_spans == 0
    assert [r[1] for r in tracer.records()] == [
        "unzip.prolong", "unzip.prolong", "unzip.scatter"]
