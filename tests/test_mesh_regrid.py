"""Tests for wavelet indicators and regrid/transfer."""

import numpy as np
import pytest

from repro.octree import LinearOctree, bbh_grid
from repro.mesh import (
    Mesh,
    field_wavelets,
    regrid_flags,
    remesh,
    transfer_fields,
    wavelet_coefficients,
)


def _gaussian(c, width=2.0, center=(0.0, 0.0, 0.0)):
    d2 = sum((c[..., i] - center[i]) ** 2 for i in range(3))
    return np.exp(-d2 / width**2)


class TestWavelets:
    def test_zero_on_low_degree_polynomials(self):
        mesh = Mesh(LinearOctree.uniform(2))
        c = mesh.coordinates()
        u = 1.0 + c[..., 0] + c[..., 1] ** 2 + c[..., 2] ** 3
        w = wavelet_coefficients(u)
        assert w.max() < 1e-8 * max(1.0, np.abs(u).max())

    def test_large_on_unresolved_feature(self):
        mesh = Mesh(LinearOctree.uniform(3))
        c = mesh.coordinates()
        u = _gaussian(c, width=3.0)
        w = wavelet_coefficients(u)
        # octants near the feature have large coefficients
        centers = mesh.tree.domain.to_physical(mesh.tree.octants.centers())
        near = np.linalg.norm(centers, axis=1) < 20.0
        assert near.any() and (~near).any()
        assert w[near].max() > 100 * max(w[~near].max(), 1e-16)

    def test_multi_dof_takes_max(self):
        mesh = Mesh(LinearOctree.uniform(2))
        c = mesh.coordinates()
        u = np.stack([np.zeros_like(c[..., 0]), _gaussian(c, width=3.0)])
        w = field_wavelets(u)
        assert w.shape == (mesh.num_octants,)
        assert np.allclose(w, wavelet_coefficients(u[1]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            wavelet_coefficients(np.zeros((4, 5, 5, 5)))


class TestRegrid:
    def test_refines_at_feature(self):
        mesh = Mesh(LinearOctree.uniform(3, domain=None))
        c = mesh.coordinates()
        u = _gaussian(c, width=2.0)
        refine, coarsen = regrid_flags(mesh, u, eps=1e-4, max_level=5)
        assert refine.any()
        new = remesh(mesh, refine, coarsen)
        assert new.tree.max_level > mesh.tree.max_level
        assert new.tree.is_complete()

    def test_coarsens_smooth_region(self):
        g = bbh_grid(mass_ratio=1.0, max_level=6, base_level=2)
        mesh = Mesh(g)
        u = mesh.allocate()  # identically zero: everything may coarsen
        refine, coarsen = regrid_flags(mesh, u, eps=1e-4, min_level=1)
        assert not refine.any()
        assert coarsen.any()
        new = remesh(mesh, refine, coarsen)
        assert new.num_octants < mesh.num_octants

    def test_max_level_respected(self):
        mesh = Mesh(LinearOctree.uniform(3))
        c = mesh.coordinates()
        u = _gaussian(c, width=1.0)
        refine, _ = regrid_flags(mesh, u, eps=1e-12, max_level=3)
        assert not refine.any()


class TestTransfer:
    def test_identity_when_grid_unchanged(self):
        mesh = Mesh(LinearOctree.uniform(2))
        rng = np.random.default_rng(0)
        u = rng.normal(size=(mesh.num_octants, 7, 7, 7))
        out = transfer_fields(mesh, mesh, u)
        assert np.array_equal(out, u)

    def test_polynomial_preserved_under_refinement(self):
        old = Mesh(LinearOctree.uniform(2))
        c = old.coordinates()
        u = c[..., 0] ** 3 + c[..., 1] * c[..., 2]
        flags = np.zeros(old.num_octants, dtype=bool)
        flags[10:20] = True
        new = remesh(old, flags, np.zeros_like(flags))
        v = transfer_fields(old, new, u)
        cn = new.coordinates()
        expect = cn[..., 0] ** 3 + cn[..., 1] * cn[..., 2]
        assert np.abs(v - expect).max() < 1e-9 * np.abs(expect).max()

    def test_polynomial_preserved_under_coarsening(self):
        old = Mesh(LinearOctree.uniform(3))
        c = old.coordinates()
        u = 2.0 * c[..., 0] - c[..., 1] ** 2 + 0.1 * c[..., 2] ** 3
        flags = np.ones(old.num_octants, dtype=bool)
        new_tree = old.tree.coarsen(flags)
        assert len(new_tree) < old.num_octants
        new = Mesh(new_tree)
        v = transfer_fields(old, new, u)
        cn = new.coordinates()
        expect = 2.0 * cn[..., 0] - cn[..., 1] ** 2 + 0.1 * cn[..., 2] ** 3
        assert np.abs(v - expect).max() < 1e-9 * np.abs(expect).max()

    def test_multi_dof_transfer(self):
        old = Mesh(LinearOctree.uniform(2))
        c = old.coordinates()
        u = np.stack([c[..., 0], c[..., 1] ** 2])
        flags = np.zeros(old.num_octants, dtype=bool)
        flags[0] = True
        new = remesh(old, flags, np.zeros_like(flags))
        v = transfer_fields(old, new, u)
        assert v.shape[0] == 2
        cn = new.coordinates()
        assert np.allclose(v[0], cn[..., 0], atol=1e-9)
        assert np.allclose(v[1], cn[..., 1] ** 2, atol=1e-9)

    def test_shape_validation(self):
        old = Mesh(LinearOctree.uniform(1))
        with pytest.raises(ValueError):
            transfer_fields(old, old, np.zeros((3, 7, 7, 7)))

    def test_roundtrip_refine_then_coarsen(self):
        """Refine everywhere then coarsen back: injection recovers the
        original values exactly (fine even points coincide)."""
        old = Mesh(LinearOctree.uniform(2))
        rng = np.random.default_rng(1)
        u = rng.normal(size=(old.num_octants, 7, 7, 7))
        fine = remesh(old, np.ones(old.num_octants, dtype=bool),
                      np.zeros(old.num_octants, dtype=bool))
        uf = transfer_fields(old, fine, u)
        back_tree = fine.tree.coarsen(np.ones(fine.num_octants, dtype=bool))
        back = Mesh(back_tree)
        ub = transfer_fields(fine, back, uf)
        assert back.num_octants == old.num_octants
        assert np.allclose(ub, u, atol=1e-11)


    def test_each_refined_block_prolonged_once(self, monkeypatch):
        """Refining one octant by two levels: each refined block — the
        old octant, then its first child — is upsampled once and its
        children sliced from it, bit for bit what prolonging it again for
        each child gives (23 prolongations: one per level-2 child, two
        per level-3 one)."""
        from repro.mesh import child_block, regrid
        from repro.octree import balance
        from repro.octree.keys import MAX_DEPTH

        old = Mesh(LinearOctree.uniform(1))
        t = old.tree.refine(np.arange(8) == 0)
        new = Mesh(balance(t.refine(np.arange(len(t)) == 0)))
        u = np.random.default_rng(3).normal(size=(2, 8, 7, 7, 7))
        calls = []
        prolong = regrid.prolong_blocks
        monkeypatch.setattr(regrid, "prolong_blocks",
                            lambda b, r: calls.append(1) or prolong(b, r))
        got = transfer_fields(old, new, u)

        oc, refined = new.tree.octants, set()
        for j in range(new.num_octants):
            xyz = [int(oc.x[j]), int(oc.y[j]), int(oc.z[j])]
            i = int(old.tree.locate(*(np.array([a], dtype=np.uint64)
                                      for a in xyz))[0])
            blk = u[:, i]
            anchor = [int(c[i]) for c in (old.tree.octants.x,
                                          old.tree.octants.y,
                                          old.tree.octants.z)]
            for lv in range(int(old.tree.levels[i]), int(oc.level[j])):
                refined.add((*anchor, lv))
                half = 1 << (MAX_DEPTH - lv - 1)
                bits = [int(xyz[a] - anchor[a] >= half) for a in range(3)]
                blk = child_block(blk, bits[0] + 2 * bits[1] + 4 * bits[2])
                anchor = [anchor[a] + bits[a] * half for a in range(3)]
            assert np.array_equal(got[:, j], blk)
        assert len(calls) == len(refined) == 2


class TestSimultaneousRefineCoarsen:
    def test_refine_and_coarsen_in_one_cycle(self):
        """A regrid can deepen one region while coarsening another."""
        mesh = Mesh(LinearOctree.uniform(3))
        n = mesh.num_octants
        centers = mesh.tree.domain.to_physical(mesh.tree.octants.centers())
        refine = np.linalg.norm(centers, axis=1) < 15.0
        # coarsen the x > 25 half: complete sibling families live there
        coarsen = centers[:, 0] > 25.0
        new = remesh(mesh, refine, coarsen)
        assert new.tree.is_complete()
        assert new.tree.max_level > 3  # refined near the centre
        assert new.tree.min_level < 3  # coarsened in the far field


class TestUnchangedTree:
    """Flags that leave the balanced tree as it was: ``remesh`` hands the
    same ``Mesh`` back, so a solver's ``regrid`` builds none (no
    adjacency, no transfer plan) and reports no change."""

    @staticmethod
    def _partial_family_flags(mesh):
        # seven of every eight siblings want coarsening: no family is
        # complete, so nothing coarsens
        coarsen = np.ones(mesh.num_octants, dtype=bool)
        coarsen[::8] = False
        return np.zeros_like(coarsen), coarsen

    def test_remesh_returns_the_same_mesh(self):
        mesh = Mesh(LinearOctree.uniform(2))
        assert remesh(mesh, *self._partial_family_flags(mesh)) is mesh
        refine = np.arange(mesh.num_octants) == 3
        new = remesh(mesh, refine, np.zeros_like(refine))
        assert new is not mesh and new.num_octants == mesh.num_octants + 7

    @pytest.mark.parametrize("kind", ["wave", "bssn", "bssn-tracked"])
    def test_solver_regrid_constructs_no_mesh(self, kind, monkeypatch):
        from repro.bssn import flat_metric_state
        from repro.solver import (BSSNSolver, PunctureTracker, WaveSolver,
                                  bssn_solver, wave_solver)

        mesh = Mesh(LinearOctree.uniform(2))
        if kind == "wave":
            solver, module = WaveSolver(mesh), wave_solver
        else:
            solver, module = BSSNSolver(mesh), bssn_solver
            solver.set_state(flat_metric_state(mesh.allocate().shape))
        if kind == "bssn-tracked":
            # splits no level-2 octant (edge 25 ≤ m/2) and every level-1
            # one (edge 50 > max(d, m/2), d = 43.3): the hole is refined
            # enough, and nothing may coarsen below it
            solver.tracker = PunctureTracker([[0.0, 0.0, 0.0]], masses=[60.0])
        flags = self._partial_family_flags(mesh)
        monkeypatch.setattr(module, "regrid_flags", lambda *a, **kw: flags)
        built = []
        init = Mesh.__init__
        monkeypatch.setattr(
            Mesh, "__init__",
            lambda self, *a, **kw: (built.append(self), init(self, *a, **kw))[1],
        )
        state = solver.state
        assert solver.regrid(1e-3) is False
        assert built == [] and solver.mesh is mesh and solver.state is state
        if kind == "bssn-tracked":
            # every family complete: the wavelet flags alone would
            # coarsen all 64 octants, and the tracker vetoes each one
            everything = (np.zeros(mesh.num_octants, dtype=bool),
                          np.ones(mesh.num_octants, dtype=bool))
            monkeypatch.setattr(module, "regrid_flags",
                                lambda *a, **kw: everything)
            assert solver.regrid(1e-3) is False
            assert built == [] and solver.mesh is mesh and solver.state is state
            solver.tracker = None
            assert solver.regrid(1e-3) is True
            assert len(built) == 1 and solver.mesh.num_octants == 8
