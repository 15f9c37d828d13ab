"""Physics tests for the BSSN RHS, constraints, and Ψ₄."""

import numpy as np
import pytest

from repro.bssn import (
    BSSNParams,
    Puncture,
    bssn_rhs,
    compute_constraints,
    compute_derivatives,
    compute_psi4,
    constraint_norms,
    evaluate_algebraic,
    flat_metric_state,
    mesh_puncture_state,
)
from repro.bssn import state as S
from repro.mesh import Mesh, prolong_sources
from repro.octree import Domain, LinearOctree


@pytest.fixture(scope="module")
def flat_mesh():
    return Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))


def _interior(patches, k=3, r=7):
    return np.ascontiguousarray(patches[:, :, k : k + r, k : k + r, k : k + r])


def _chunked_constraints(mesh, u, chunk=256):
    """Constraint fields of ``u``, unzipped and evaluated one octant chunk
    at a time through the range path the solver's RHS uses, so no patch
    array of the whole mesh exists."""
    up = prolong_sources(mesh.plan, u)
    parts = []
    for lo in range(0, mesh.num_octants, chunk):
        hi = min(lo + chunk, mesh.num_octants)
        p = mesh.unzip(u, coalesce=True, up=up, lo=lo, hi=hi)
        derivs = compute_derivatives(p, mesh.dx[lo:hi], BSSNParams())
        parts.append(compute_constraints(_interior(p), derivs))
    return {name: np.concatenate([c[name] for c in parts], axis=-4)
            for name in parts[0]}


class TestFlatSpace:
    def test_rhs_zero(self, flat_mesh):
        u = flat_metric_state((flat_mesh.num_octants, 7, 7, 7))
        p = flat_mesh.unzip(u)
        rhs = bssn_rhs(p, flat_mesh.dx)
        assert np.abs(rhs).max() < 1e-13

    def test_constraints_zero(self, flat_mesh):
        u = flat_metric_state((flat_mesh.num_octants, 7, 7, 7))
        p = flat_mesh.unzip(u)
        derivs = compute_derivatives(p, flat_mesh.dx, BSSNParams())
        con = compute_constraints(_interior(p), derivs)
        n = constraint_norms(con)
        assert n["ham_linf"] < 1e-13
        assert n["mom_linf"] < 1e-13
        assert n["gam_linf"] < 1e-13

    def test_psi4_zero(self, flat_mesh):
        u = flat_metric_state((flat_mesh.num_octants, 7, 7, 7))
        p = flat_mesh.unzip(u)
        derivs = compute_derivatives(p, flat_mesh.dx, BSSNParams())
        re, im = compute_psi4(_interior(p), derivs, flat_mesh.coordinates())
        assert np.abs(re).max() < 1e-12
        assert np.abs(im).max() < 1e-12


class TestGaugeDynamics:
    def test_lapse_response_to_K(self, flat_mesh):
        """Eq. 1 with β = 0: ∂_t α = −2 α K exactly."""
        n = flat_mesh.num_octants
        u = flat_metric_state((n, 7, 7, 7))
        u[S.K] = 0.3
        p = flat_mesh.unzip(u)
        rhs = bssn_rhs(p, flat_mesh.dx, BSSNParams(ko_sigma=0.0))
        assert np.allclose(rhs[S.ALPHA], -2.0 * 1.0 * 0.3, atol=1e-12)

    def test_chi_response(self, flat_mesh):
        """Eq. 5 with β = 0: ∂_t χ = (2/3) χ α K."""
        n = flat_mesh.num_octants
        u = flat_metric_state((n, 7, 7, 7))
        u[S.K] = 0.3
        p = flat_mesh.unzip(u)
        rhs = bssn_rhs(p, flat_mesh.dx, BSSNParams(ko_sigma=0.0))
        assert np.allclose(rhs[S.CHI], (2.0 / 3.0) * 0.3, atol=1e-12)

    def test_shift_response_to_B(self, flat_mesh):
        """Eq. 2: ∂_t β^i = (3/4) B^i when β = 0."""
        n = flat_mesh.num_octants
        u = flat_metric_state((n, 7, 7, 7))
        u[S.B0] = 0.1
        p = flat_mesh.unzip(u)
        rhs = bssn_rhs(p, flat_mesh.dx, BSSNParams(ko_sigma=0.0))
        assert np.allclose(rhs[S.BETA0], 0.075, atol=1e-12)
        # and B feels the damping: ∂_t B = −η B
        assert np.allclose(rhs[S.B0], -2.0 * 0.1, atol=1e-12)

    def test_gt_response_to_At(self, flat_mesh):
        """Eq. 4 with β = 0: ∂_t γ̃_ij = −2 α Ã_ij."""
        n = flat_mesh.num_octants
        u = flat_metric_state((n, 7, 7, 7))
        u[S.AT12] = 0.02
        p = flat_mesh.unzip(u)
        rhs = bssn_rhs(p, flat_mesh.dx, BSSNParams(ko_sigma=0.0))
        assert np.allclose(rhs[S.GT12], -0.04, atol=1e-12)


class TestSchwarzschildPuncture:
    @pytest.fixture(scope="class")
    def meshes(self):
        out = []
        for level in (3, 4):
            t = LinearOctree.uniform(level, domain=Domain(-8.0, 8.0))
            out.append(Mesh(t))
        return out

    def test_hamiltonian_converges(self, meshes):
        """Brill–Lindquist data satisfies H = 0 analytically; the residual
        away from the puncture is truncation error and converges."""
        norms = []
        for mesh in meshes:
            u = mesh_puncture_state(mesh, [Puncture(1.0, [0.0, 0.0, 0.0])])
            con = _chunked_constraints(mesh, u)
            # exclude octants near the puncture (steep 1/r gradients) and
            # at the outer boundary (degree-4 extrapolated padding drops
            # the local order there)
            centers = mesh.tree.domain.to_physical(mesh.tree.octants.centers())
            sel = np.linalg.norm(centers, axis=1) > 3.0
            sel[mesh.boundary_octants()] = False
            assert sel.any()
            norms.append(np.abs(con["ham"][sel]).max())
        # 6th-order stencils, h halves: expect a factor ~2^6; accept >2^4
        assert norms[0] / norms[1] > 16.0

    def test_momentum_exactly_zero(self, meshes):
        """Time-symmetric data: M^i = 0 identically."""
        mesh = meshes[0]
        u = mesh_puncture_state(mesh, [Puncture(1.0, [0.0, 0.0, 0.0])])
        con = _chunked_constraints(mesh, u)
        assert np.abs(con["mom"]).max() < 1e-10

    def test_static_metric_fields(self, meshes):
        """For conformally flat data with β=0 the metric RHS reduces to
        −2αÃ = 0, and K's RHS is pure truncation error + gauge."""
        mesh = meshes[0]
        u = mesh_puncture_state(mesh, [Puncture(1.0, [0.0, 0.0, 0.0])])
        p = mesh.unzip(u)
        rhs = bssn_rhs(p, mesh.dx, BSSNParams(ko_sigma=0.0))
        assert np.abs(rhs[S.GT_SYM, ...]).max() < 1e-10
        assert np.abs(rhs[S.CHI]).max() < 1e-10


class TestRHSProperties:
    def test_chunked_equals_whole(self, flat_mesh):
        """Evaluating the RHS on octant chunks must equal one-shot."""
        mesh = flat_mesh
        u = mesh_puncture_state(mesh, [Puncture(1.0, [0.3, 0.2, 0.1])])
        p = mesh.unzip(u)
        whole = bssn_rhs(p, mesh.dx)
        halves = np.concatenate(
            [
                bssn_rhs(p[:, :32], mesh.dx[:32]),
                bssn_rhs(p[:, 32:], mesh.dx[32:]),
            ],
            axis=1,
        )
        assert np.allclose(whole, halves, atol=1e-14)

    def test_upwind_vs_centered_consistent(self, flat_mesh):
        """With zero shift the upwind and centred advective paths agree."""
        mesh = flat_mesh
        u = mesh_puncture_state(mesh, [Puncture(1.0, [0.0, 0.0, 0.0])])
        p = mesh.unzip(u)
        r1 = bssn_rhs(p, mesh.dx, BSSNParams(use_upwind=True))
        r2 = bssn_rhs(p, mesh.dx, BSSNParams(use_upwind=False))
        assert np.allclose(r1, r2, atol=1e-10)

    def test_var_count_validated(self, flat_mesh):
        with pytest.raises(ValueError):
            compute_derivatives(
                np.zeros((5, 2, 13, 13, 13)), 0.1, BSSNParams()
            )


class TestOneGeometry:
    """The RHS, the constraints and Ψ₄ share one tensor prelude,
    :func:`repro.bssn.geometry.bssn_geometry`; sharing it moved no bit.
    The digests were recorded from the three separate derivations that
    preceded it, on octants 0-15 of the q = 2 Bowen–York binary's grid."""

    @staticmethod
    def _sha(*arrays):
        import hashlib

        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def test_arrays_keep_their_bits(self):
        from repro.bssn import binary_punctures
        from repro.octree import bbh_grid

        mesh = Mesh(bbh_grid(mass_ratio=2.0, max_level=3, base_level=2))
        u = mesh_puncture_state(mesh, binary_punctures(mass_ratio=2.0,
                                                       separation=6.0))
        p = mesh.unzip(u, lo=0, hi=16)
        params = BSSNParams()
        derivs = compute_derivatives(p, mesh.dx[:16], params)
        values = _interior(p)
        con = compute_constraints(values, derivs, params)
        psi4 = compute_psi4(values, derivs, mesh.coordinates(np.arange(16)),
                            params)
        assert {name: self._sha(*arrays) for name, arrays in (
            ("algebraic", [evaluate_algebraic(values, derivs, params)]),
            ("ham", [con["ham"]]), ("mom", [con["mom"]]),
            ("gam", [con["gam"]]), ("psi4", psi4))} == {
            "algebraic": "8c9993b4817096ebcac5b8e0fb60935a"
                         "fa7d400f21349098cb22d8f2d2b623c3",
            "ham": "1669cf8cf740dedd490dde3edaf59b51"
                   "b3e9e6e9dae24d79b1452301dcb77de9",
            "mom": "ea873b2531e6bf1ccc9c276d4396000b"
                   "b8a0d0a2737ca405f79d59b29fc7a187",
            "gam": "4429af6dda471d18f86816b0d2624f3b"
                   "3acc49f3050726dce92442d8e1f85d6c",
            "psi4": "22ab2c0b278fa9504fb83b52865bfaf4"
                    "d09a9c13e5c8adb8abb00ef0bbfae983",
        }
