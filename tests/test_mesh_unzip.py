"""Tests for the octant-to-patch (unzip) and patch-to-octant (zip) kernels."""

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
# the native box-copy execution (compiled chunk kernels' unzip_scatter)
# ---------------------------------------------------------------------------

from repro.codegen import backends as B
from repro.mesh.maps import (
    BOX_DST, BOX_NX, BOX_NY, BOX_NZ, BOX_SRC, BOX_SRC_N, BOX_STRIDE,
    CASE_COARSE, CASE_FINE, CASE_SAME,
)

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


def _with_specials(a, rng, count=6):
    """A copy with NaN, ±inf and −0.0 at ``count`` random places: the
    padding fill multiplies its zero taps too, so 0 · inf must be NaN."""
    out = a.copy()
    flat = out.reshape(-1)
    flat[rng.choice(flat.size, count, replace=False)] = rng.choice(
        [np.nan, np.inf, -np.inf, -0.0], count)
    return out


def _assert_native_equals_reference(mesh, kernel, nvars, rng):
    u = rng.normal(size=(nvars, mesh.num_octants, 7, 7, 7))
    # with and without a leading axis, then with non-finite sources
    for state in (u, u[0], _with_specials(u, rng)):
        with np.errstate(invalid="ignore"):  # 0 · inf, inf − inf
            ref = mesh.unzip(state)  # group loop + extrapolate_boundary
            out = np.full_like(ref, 7.0)  # an unwritten point stays 7
            got = mesh.unzip(state, out=out, coalesce=True,
                             scatter=kernel.unzip_scatter)
        assert got is out
        assert _same_bits(got, ref)


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
        mesh, B.NativeWaveRHS(impl=impl), nvars, np.random.default_rng(seed)
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
    """The native padding fill alone, as ``unzip_scatter`` runs it after
    its copies."""
    from repro.mesh.interp import extrapolation_matrices

    n, P, r, k = patches.shape[-4], plan.P, plan.r, plan.k
    faces = plan.face_table()
    kernel._run("extrapolate_faces", patches, n, patches.size // (n * P**3),
                faces, len(faces), extrapolation_matrices(r, k), P, r, k)


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
    plan._face_table = None
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
    reads ``double*``: the executor declines and the NumPy scatter runs."""
    mesh = _random_balanced_mesh(3, base_level=1)
    kernel = B.NativeWaveRHS(impl="py")
    u = mesh.allocate(2, dtype=np.float32)
    u[...] = np.random.default_rng(0).normal(size=u.shape)
    ref = mesh.unzip(u)
    out = np.full_like(ref, np.nan)
    assert not kernel.unzip_scatter(mesh.plan, u, None, out)
    assert np.isnan(out).all()  # declined: nothing written
    # r >= 8 changes einsum's reduction order over a source row
    wide = Mesh(mesh.tree, r=9)
    assert not kernel.unzip_scatter(
        wide.plan, wide.allocate(2), None, wide.allocate_patches(2))
    got = mesh.unzip(u, out=out, scatter=kernel.unzip_scatter)
    assert got.dtype == np.float32 and np.array_equal(got, ref)
    strided = np.zeros((2, mesh.num_octants, 7, 7, 14))[..., ::2]
    assert not kernel.unzip_scatter(
        mesh.plan, strided, None, mesh.allocate_patches(2)
    )


def test_box_table_covers_the_group_points_in_group_order(mesh):
    """Expanding every box row point by point reproduces the concatenated
    per-group fancy indices exactly — same points, same order."""
    table, n_coarse = mesh.plan.box_table()
    co = mesh.plan.coalesced()
    P = mesh.P

    def expand(rows):
        src, dst = [], []
        for row in rows:
            sn, st = row[BOX_SRC_N], row[BOX_STRIDE]
            z, y, x = np.meshgrid(np.arange(row[BOX_NZ]), np.arange(row[BOX_NY]),
                                  np.arange(row[BOX_NX]), indexing="ij")
            src.append((row[BOX_SRC] + ((z * sn + y) * sn + x) * st).ravel())
            dst.append((row[BOX_DST] + (z * P + y) * P + x).ravel())
        return np.concatenate(src), np.concatenate(dst)

    assert 0 < n_coarse < len(table)
    assert len(table) == sum(g.num_pairs for g in mesh.plan.groups)
    src, dst = expand(table[:n_coarse])
    assert np.array_equal(src, co.coarse_src)
    assert np.array_equal(dst, co.coarse_dst)
    src, dst = expand(table[n_coarse:])
    assert np.array_equal(src, co.direct_src)
    assert np.array_equal(dst, co.direct_dst)
    assert mesh.plan.box_table()[0] is table  # cached per plan


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

    def raising_scatter(plan, u, up, out):
        raise RuntimeError("scatter")

    with pytest.raises(RuntimeError):
        mesh.unzip(u, tracer=tracer, scatter=raising_scatter)
    assert tracer.open_spans == 0
    assert [r[1] for r in tracer.records()] == [
        "unzip.prolong", "unzip.prolong", "unzip.scatter"]
