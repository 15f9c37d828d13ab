"""Tests for the BSSN evolution driver (Algorithm 1) at toy scale."""

import numpy as np
import pytest

from repro.bssn import BSSNParams, Puncture, binary_punctures, flat_metric_state
from repro.bssn import state as S
from repro.codegen.backends import native_impl
from repro.codegen import COMPILED_VARIANT, get_algebra_kernel
from repro.io import restore_solver, save_checkpoint
from repro.jobs import state_digest
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree, balance, bbh_grid, puncture_refine_fn
from repro.solver import (
    BSSNSolver,
    PunctureTracker,
    WaveSolver,
    enforce_algebraic_constraints,
)

from .test_backends import _traced_peak


@pytest.fixture(scope="module")
def flat_solver():
    mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-10.0, 10.0)))
    s = BSSNSolver(mesh)
    s.set_state(flat_metric_state((mesh.num_octants, 7, 7, 7)))
    return s


class TestAlgebraicEnforcement:
    def test_unit_determinant_restored(self):
        u = flat_metric_state((4, 7, 7, 7))
        u[S.GT11] *= 1.1  # det drifts
        enforce_algebraic_constraints(u)
        from repro.bssn.geometry import det_sym, sym3x3

        det = det_sym(sym3x3(u[S.GT_SYM, ...]))
        assert np.allclose(det, 1.0, atol=1e-12)

    def test_traceless_At_restored(self):
        u = flat_metric_state((4, 7, 7, 7))
        u[S.AT11] = 0.3
        u[S.AT22] = 0.3
        u[S.AT33] = 0.3
        enforce_algebraic_constraints(u)
        tr = u[S.AT11] + u[S.AT22] + u[S.AT33]
        assert np.allclose(tr, 0.0, atol=1e-12)

    def test_floors(self):
        u = flat_metric_state((2, 7, 7, 7))
        u[S.CHI] = -1.0
        u[S.ALPHA] = 0.0
        enforce_algebraic_constraints(u, chi_floor=1e-6)
        assert np.all(u[S.CHI] >= 1e-6)
        assert np.all(u[S.ALPHA] >= 1e-6)


class TestFlatEvolution:
    def test_flat_stays_flat(self, flat_solver):
        s = flat_solver
        for _ in range(2):
            s.step()
        assert np.abs(s.state[S.ALPHA] - 1.0).max() < 1e-13
        assert np.abs(s.state[S.K]).max() < 1e-13
        assert np.abs(s.state[S.GT12]).max() < 1e-13

    def test_requires_initial_data(self):
        mesh = Mesh(LinearOctree.uniform(1))
        s = BSSNSolver(mesh)
        with pytest.raises(RuntimeError):
            s.step()

    def test_state_shape_validated(self):
        mesh = Mesh(LinearOctree.uniform(1))
        s = BSSNSolver(mesh)
        with pytest.raises(ValueError):
            s.set_state(np.zeros((24, 3, 7, 7, 7)))


@pytest.fixture(scope="module")
def puncture_solver():
    fn = puncture_refine_fn([(np.zeros(3), 1.0)], theta=0.6)
    tree = balance(
        LinearOctree.from_refinement(
            fn, domain=Domain(-16.0, 16.0), base_level=2, max_level=4
        )
    )
    assert tree.max_level == 4  # actually graded toward the puncture
    mesh = Mesh(tree)
    # compiled: the assertions are physical, and test_backends already
    # ties the two backends bit for bit
    s = BSSNSolver(mesh, BSSNParams(eta=2.0), backend="auto")
    s.set_punctures([Puncture(1.0, [0.0, 0.0, 0.0])])
    return s


@pytest.mark.parametrize("backend", ["numpy", "auto"])
def test_chunked_constraints_equal_whole_mesh_unzip(backend):
    """Every solver diagnostic unzips one chunk at a time through the
    RHS's range path, and equals, bit for bit, its evaluation on the
    patches of the whole mesh unzipped at once, on a refined grid cut
    into several chunks: the constraints() norms, psi4_field on every
    octant, on a shell subset and on every octant in reverse order, and
    WaveSolver.energy."""
    from repro.bssn import compute_constraints, compute_derivatives, compute_psi4

    mesh = Mesh(bbh_grid(mass_ratio=2.0, max_level=3, base_level=2))
    chunk = 16
    s = BSSNSolver(mesh, backend=backend, chunk_octants=chunk)
    s.set_punctures(binary_punctures(mass_ratio=2.0, separation=6.0))
    assert mesh.num_octants > 2 * chunk and mesh.num_octants % chunk
    patches = mesh.unzip(s.state)
    k, r, acc = mesh.k, mesh.r, {}

    def interior(pch):
        return np.ascontiguousarray(pch[:, :, k:k + r, k:k + r, k:k + r])

    for lo in range(0, mesh.num_octants, chunk):
        pch = patches[:, lo:lo + chunk]
        derivs = compute_derivatives(pch, mesh.dx[lo:lo + chunk], s.params,
                                     s.pd)
        for name, arr in compute_constraints(interior(pch), derivs,
                                             s.params).items():
            acc.setdefault(name, []).append(arr.reshape(-1))
    whole = {}
    for name, parts in acc.items():
        flat = np.concatenate(parts)
        whole[f"{name}_l2"] = float(np.sqrt(np.mean(flat**2)))
        whole[f"{name}_linf"] = float(np.abs(flat).max())
    assert s.constraints() == whole
    assert whole["ham_linf"] > 0.0

    # Ψ₄: all octants, the shell of octants centred 20.7 M out, and all
    # octants reversed (the tail chunk selected whole but out of order)
    shell = np.flatnonzero(np.abs(np.linalg.norm(s.coords()[:, 3, 3, 3], axis=-1)
                                  - 20.0) < 2.0)
    assert len(np.unique(shell // chunk)) > 1 and len(shell) % chunk
    every = np.arange(mesh.num_octants)
    for idx in (every, shell, every[::-1]):
        derivs = compute_derivatives(patches[:, idx], mesh.dx[idx], s.params,
                                     s.pd)
        ref = compute_psi4(interior(patches[:, idx]), derivs,
                           mesh.coordinates(idx), s.params)
        for got, want in zip(s.psi4_field(idx), ref):
            assert np.array_equal(got, want)
    assert np.abs(ref[0]).max() > 0.0

    w = WaveSolver(mesh, backend=backend, chunk_octants=chunk)
    w.state[0] = np.exp(-(w.coords() ** 2).sum(axis=-1))
    w.state[1] = 0.3 * w.state[0]
    phi = mesh.unzip(w.state)[0]
    grad2 = sum(w.pd.d1(phi, mesh.dx, d) ** 2 for d in range(3))
    dens = 0.5 * (w.state[1] ** 2 + w.speed**2 * grad2)
    assert w.energy() == float((dens * (mesh.dx**3)[:, None, None, None]).sum())


class TestDiagnosticAllocations:
    """No diagnostic allocates a patch array of the whole mesh: each
    unzips one of the solver's chunks at a time.  Peak bytes
    ``tracemalloc`` traces during a warm call on the 120-octant q = 2
    grid, with chunks of 8 octants (the compiled BSSN kernel's), stay
    below the bytes of the whole mesh's patches (50.6 MB for BSSN,
    4.2 MB for the wave pair).  On a 2-vCPU x86-64 VM with CPython 3.11
    the peaks read 14-16 MB and 0.8 MB; Ψ₄ and the energy off a
    whole-mesh unzip read 259-274 MB and 9.1 MB."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return Mesh(bbh_grid(mass_ratio=2.0, max_level=3, base_level=2))

    @pytest.mark.parametrize("diagnostic", ["constraints", "psi4_field",
                                            "extract_now", "energy"])
    def test_peak_below_a_whole_mesh_patch_array(self, mesh, diagnostic):
        if diagnostic == "energy":
            s = WaveSolver(mesh, backend="auto", chunk_octants=8)
            s.state[0] = np.exp(-(s.coords() ** 2).sum(axis=-1))
            run = s.energy
        else:
            s = BSSNSolver(mesh, backend="auto", chunk_octants=8)
            s.set_punctures(binary_punctures(mass_ratio=2.0, separation=6.0))
            s.attach_extractor([20.0])
            run = {"constraints": s.constraints,
                   "psi4_field": lambda: s.psi4_field(np.arange(mesh.num_octants)),
                   "extract_now": s.extract_now}[diagnostic]
        whole = s.state.shape[0] * mesh.num_octants * mesh.P**3 * 8
        assert _traced_peak(run) < whole


class TestPunctureEvolution:
    def test_short_evolution_stable(self, puncture_solver):
        """A few steps of a Schwarzschild puncture: finite state, lapse
        collapsing at the puncture (1+log), constraints bounded."""
        s = puncture_solver
        c0 = s.constraints()
        for _ in range(3):
            s.step()
        assert np.isfinite(s.state).all()
        c1 = s.constraints()
        # constraint growth bounded over 3 steps
        assert c1["ham_l2"] < 20.0 * max(c0["ham_l2"], 1e-10)
        # lapse stays in (0, 1] and is smallest near the puncture
        alpha = s.state[S.ALPHA]
        assert alpha.min() > 0.0
        assert alpha.max() <= 1.0 + 1e-8
        centers = s.mesh.tree.domain.to_physical(s.mesh.tree.octants.centers())
        inner = np.linalg.norm(centers, axis=1) < 4.0
        assert inner.any() and (~inner).any()
        assert alpha[inner].min() < alpha[~inner].min()

    def test_psi4_field_available(self, puncture_solver):
        s = puncture_solver
        idx = np.arange(min(8, s.mesh.num_octants))
        re, im = s.psi4_field(idx)
        assert re.shape == (len(idx), 7, 7, 7)
        assert np.isfinite(re).all() and np.isfinite(im).all()

    def test_evolve_with_monitor(self, puncture_solver):
        s = puncture_solver
        t0 = s.t
        rec = s.evolve(t0 + 2.0 * s.dt, monitor_every=1)
        assert len(rec.times) >= 2
        assert all(np.isfinite(list(c.values())).all() is not False
                   for c in rec.constraint_history)


class TestRegridIntegration:
    def test_regrid_transfers_state(self):
        mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-16.0, 16.0)))
        s = BSSNSolver(mesh)
        s.set_punctures([Puncture(1.0, [0.0, 0.0, 0.0])])
        changed = s.regrid(1e-4, max_level=4)
        assert changed
        assert s.mesh.num_octants != 64
        # state shape follows the mesh and stays physical
        assert s.state.shape[1] == s.mesh.num_octants
        assert s.state[S.CHI].min() > 0
        # one step on the new grid works
        s.step()
        assert np.isfinite(s.state).all()


def _hole_octants(solver):
    """The leaves that contain the tracked punctures."""
    tree = solver.mesh.tree
    lat = np.floor(tree.domain.to_lattice(np.array(solver.tracker.positions)))
    return tree.octants[tree.locate(*lat.astype(np.uint64).T)]


def _tracker_splits(tracker, octants, domain):
    """``tracker.refine_fn()`` on the octants' physical centres and sizes."""
    return tracker.refine_fn()(domain.to_physical(octants.centers()),
                               octants.size * domain.lattice_h, 0)


class TestTrackedRegrid:
    """A q = 2 binary whose grid follows its punctures: the tracker
    attached as ``solver.tracker`` is a second source of flags for the
    one ``regrid``, advanced after every accepted step by ``on_step``.

    The grid starts uniform at level ``L - 1``.  ``EPS`` is above every
    wavelet coefficient of the run (at most 0.6), so the wavelet flags
    refine nothing and coarsen every family below 0.4: without the
    tracker the grid collapses to level 1, holes included.  A uniform
    initial shift β^x = 0.8 (a gauge choice) carries both punctures
    toward −x (dx_p/dt = −β).  The first regrid refines the octants the
    tracker splits; by the second the lighter hole has left the sphere
    in which the tracker splits the level-2 octant behind it, and that
    octant's children coarsen."""

    L = 3          # regrid max_level
    EPS = 4.0      # regrid_eps, see the class docstring
    T_END = 0.3    # three steps, a regrid before the second and third
    T_MID = 0.2    # two steps: between the two regrids

    @classmethod
    def _solver(cls, backend, **kw):
        punctures = binary_punctures(mass_ratio=2.0, separation=6.25)
        tree = bbh_grid(mass_ratio=2.0, separation=6.25, max_level=cls.L - 1,
                        base_level=cls.L - 1, domain=Domain(-6.0, 10.0))
        s = BSSNSolver(Mesh(tree), BSSNParams(eta=2.0), backend=backend, **kw)
        s.set_punctures(punctures)
        s.state[S.BETA[0]] += 0.8
        s.tracker = PunctureTracker([p.position for p in punctures],
                                    masses=[p.mass for p in punctures])
        return s

    @classmethod
    def _evolve(cls, solver, t_end, hole_checks=None):
        def on_step(s):
            # the positions the regrid before this step saw
            if hole_checks is not None and s.record.regrid_steps[-1:] == [
                    s.step_count - 1]:
                oc, dom = _hole_octants(s), s.mesh.tree.domain
                asked = (~_tracker_splits(s.tracker, oc, dom)
                         & _tracker_splits(s.tracker, oc.parents(), dom))
                hole_checks.append(bool(np.all((oc.level == cls.L) | asked)))
            s.tracker.update(s.mesh, s.state, s.t - s.dt, s.dt)

        solver.evolve(t_end, regrid_every=1, regrid_eps=cls.EPS,
                      max_level=cls.L, on_step=on_step)
        return solver

    @pytest.fixture(scope="class")
    def tracked_run(self):
        checks = []
        return self._evolve(self._solver("auto"), self.T_END, checks), checks

    def test_grid_follows_the_punctures(self, tracked_run):
        s, hole_checks = tracked_run
        assert s.record.regrid_steps == [1, 2]  # both regrids changed the grid
        assert hole_checks == [True, True]
        assert np.isfinite(s.state).all()

    @pytest.mark.skipif(native_impl() is None,
                        reason="no native toolchain: 'auto' runs NumPy")
    def test_numpy_and_compiled_agree(self, tracked_run):
        s, _ = tracked_run
        n = self._evolve(self._solver(
            "numpy", algebra=get_algebra_kernel(COMPILED_VARIANT)), self.T_END)
        assert state_digest(n.state) == state_digest(s.state)
        assert np.array_equal(n.tracker.positions, s.tracker.positions)

    def test_restored_tracker_steers_the_restored_run(self, tracked_run,
                                                      tmp_path):
        s, _ = tracked_run
        first = self._evolve(self._solver("auto"), self.T_MID)
        assert first.record.regrid_steps == [1]
        save_checkpoint(tmp_path / "mid.npz", first)
        rest = self._evolve(restore_solver(tmp_path / "mid.npz",
                                           backend="auto"), self.T_END)
        assert rest.record.regrid_steps == [2]
        assert state_digest(rest.state) == state_digest(s.state)
        assert np.array_equal(rest.tracker.positions, s.tracker.positions)


class TestExtractionIntegration:
    def test_schwarzschild_radiates_nothing(self):
        """A single static puncture has no (2,2) radiation: extracted Ψ₄
        modes stay at roundoff — a physics end-to-end check."""
        from repro.bssn import Puncture

        mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-12.0, 12.0)))
        s = BSSNSolver(mesh)
        s.set_punctures([Puncture(1.0, [0.0, 0.0, 0.0])])
        ex = s.attach_extractor([8.0], extract_every=1)
        s.evolve_with_extraction(2 * s.dt)
        t, c22 = ex.series(8.0, 2, 2)
        assert len(t) == 2
        assert np.abs(c22).max() < 1e-10

    def test_extraction_forwards_evolve_options(self):
        """``evolve_with_extraction`` is ``evolve`` plus a sampling hook:
        regrid options reach the loop, unknown ones are rejected."""
        mesh = Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0)))
        s = BSSNSolver(mesh)
        s.set_punctures([Puncture(1.0, [0.0, 0.0, 0.0])])
        s.attach_extractor([4.0], extract_every=100)
        regrids = []
        s.regrid = lambda eps, max_level=None: regrids.append(
            (s.step_count, eps, max_level))
        s.evolve_with_extraction(3 * s.dt, regrid_every=2, regrid_eps=1e-2,
                                 max_level=3)
        assert s.step_count == 3
        assert regrids == [(2, 1e-2, 3)]
        with pytest.raises(TypeError):
            s.evolve_with_extraction(4 * s.dt, regrid_evry=2)

    def test_requires_attached_extractor(self):
        mesh = Mesh(LinearOctree.uniform(1, domain=Domain(-8.0, 8.0)))
        s = BSSNSolver(mesh)
        with pytest.raises(RuntimeError):
            s.extract_now()
        with pytest.raises(RuntimeError):
            s.evolve_with_extraction(0.1)
