"""The rank-parallel driver must equal the single-address-space solver it
wraps bit for bit — every contiguous partition, both backends."""

import functools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bssn import Puncture, mesh_puncture_state
from repro.codegen import backends as B
from repro.mesh import Mesh
from repro.octree import (
    Domain,
    LinearOctree,
    Partition,
    balance,
    bbh_grid,
    partition_octree,
    partition_octree_hilbert,
)
from repro.parallel import (
    DistributedSolver,
    SimComm,
    build_halo_plan,
    exchange_ghosts,
)
from repro.solver import BSSNSolver, GaussianSource, WaveSolver

STEPS = 2
needs_native = pytest.mark.skipif(
    B.native_impl() is None,
    reason="neither numba nor a cffi+cc toolchain is available",
)
BACKENDS = ["numpy", pytest.param("compiled", marks=needs_native)]
#: ranks x backend; a NumPy case is named by its rank count alone
matrix = pytest.mark.parametrize("ranks,backend", [
    pytest.param(ranks, backend, id=name, marks=marks)
    for ranks in (1, 2, 3, 5, 7)
    for backend, name, marks in (("numpy", f"{ranks}", ()),
                                 ("compiled", f"{ranks}-compiled", needs_native))
])


@functools.lru_cache(maxsize=None)
def _mesh(case):
    if case == "wave-bbh":  # level jumps across rank boundaries
        return Mesh(bbh_grid(mass_ratio=2.0, max_level=5, base_level=2,
                             domain=Domain(-16.0, 16.0)))
    if case == "wave-cuts":  # 15 octants, one refined corner
        tree = LinearOctree.uniform(1, domain=Domain(-8.0, 8.0))
        return Mesh(balance(tree.refine(np.arange(len(tree)) == 5)))
    return Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))


def _solver(case, backend):
    mesh = _mesh(case)
    if case == "bssn-uniform":
        solver = BSSNSolver(mesh, backend=backend)
        solver.set_state(
            mesh_puncture_state(mesh, [Puncture(1.0, [0.0, 0.0, 0.0])]))
        return solver
    source = GaussianSource(
        lambda t: np.exp(-(((t - 0.5) / 0.3) ** 2)), width=1.0)
    return WaveSolver(mesh, source=source, ko_sigma=0.05, backend=backend)


@functools.lru_cache(maxsize=None)
def _reference(case, backend):
    """``state``, ``t`` and ``step_count`` of the single-address-space
    solver after ``STEPS`` steps (not the solver: its arena would stay
    alive for the session)."""
    ref = _solver(case, backend)
    for _ in range(STEPS):
        ref.step()
    return SimpleNamespace(state=ref.state.copy(), t=ref.t,
                           step_count=ref.step_count)


def _assert_bitwise(case, ranks, backend):
    """Fig. 21's multi-GPU correctness property, held to bits."""
    ref = _reference(case, backend)
    dist = DistributedSolver(_solver(case, backend),
                             partition_octree(_mesh(case).tree, ranks))
    for _ in range(STEPS):
        dist.step()
    assert dist.backend == backend
    assert np.array_equal(dist.state, ref.state)
    assert (dist.t, dist.step_count) == (ref.t, ref.step_count)
    assert (dist.bytes_communicated() > 0) == (ranks > 1)


@matrix
def test_matches_single_rank(ranks, backend):
    _assert_bitwise("wave-uniform", ranks, backend)


@matrix
def test_level_jump_grid_matches_single_rank(ranks, backend):
    """Cross-rank coarse/fine interfaces exchange and interpolate right."""
    _assert_bitwise("wave-bbh", ranks, backend)


@matrix
def test_bssn_matches_single_rank(ranks, backend):
    """The full 24-variable BSSN evolution through the driver."""
    _assert_bitwise("bssn-uniform", ranks, backend)


def test_adaptive_grid_with_level_boundaries():
    _assert_bitwise("wave-bbh", 4, "numpy")


def test_distributed_bssn_matches_single_rank():
    """The partition of ``examples/distributed_evolution.py``."""
    _assert_bitwise("bssn-uniform", 4, "numpy")


def test_communication_happens_every_stage():
    solver = _solver("wave-uniform", "numpy")
    dist = DistributedSolver(solver, partition_octree(solver.mesh.tree, 2))
    dist.step()
    b1 = dist.bytes_communicated()
    assert b1 > 0
    dist.step()
    assert dist.bytes_communicated() == 2 * b1  # 4 exchanges per step

    # volume matches the halo plan
    per_exchange = dist.halo.bytes_per_exchange(r=7, dof=2).sum()
    assert b1 == 4 * per_exchange


@given(cuts=st.lists(st.integers(0, 15), min_size=0, max_size=5))
@settings(max_examples=12, deadline=None)
def test_any_contiguous_cut_vector_is_bitwise(cuts):
    """Random contiguous cuts of a fixed 15-octant mesh with one level
    jump; repeated cuts make empty ranks."""
    ref = _reference("wave-cuts", "numpy")
    tree = _mesh("wave-cuts").tree
    offsets = np.array([0, *sorted(cuts), len(tree)], dtype=np.int64)
    dist = DistributedSolver(_solver("wave-cuts", "numpy"),
                             Partition(tree, offsets))
    for _ in range(STEPS):
        dist.step()
    assert np.array_equal(dist.state, ref.state)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", ["wave-bbh", "bssn-uniform"])
def test_rank_reads_only_owned_and_ghost_octants(case, backend):
    """The solver's range call on a view that is NaN outside owned ∪
    ``ghost_lists[rank]``: the owned rows equal the global ``full_rhs``
    bit for bit and no other row of ``out`` is written — the first test
    to fail when a halo plan misses a ghost.  The rank unzips its own
    ``hi - lo`` octants and no others."""
    solver = _solver(case, backend)
    mesh = solver.mesh
    u = np.random.default_rng(3).normal(
        scale=0.01, size=solver.state.shape) + solver.state
    expect = solver.full_rhs(u, 0.3).copy()
    part = partition_octree(mesh.tree, 4)
    plan = build_halo_plan(mesh, part)
    unzipped = []
    unzip = mesh.unzip

    def counting_unzip(u, out=None, **kw):
        unzipped.extend(range(kw["lo"], kw["hi"]))
        return unzip(u, out, **kw)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(mesh, "unzip", counting_unzip)
        for rank in range(part.num_parts):
            lo, hi = (int(o) for o in part.offsets[rank:rank + 2])
            view = np.full_like(u, np.nan)
            view[:, lo:hi] = u[:, lo:hi]
            view[:, plan.ghost_lists[rank]] = u[:, plan.ghost_lists[rank]]
            out = np.full_like(u, 7.0)
            unzipped.clear()
            solver.rhs_range(view, 0.3, out, lo, hi)
            assert unzipped == list(range(lo, hi))
            assert np.array_equal(out[:, lo:hi], expect[:, lo:hi])
            assert np.all(out[:, :lo] == 7.0) and np.all(out[:, hi:] == 7.0)


def test_driver_reads_and_assigns_through_to_the_wrapped_solver():
    solver = _solver("wave-uniform", "numpy")
    dist = DistributedSolver(solver, partition_octree(solver.mesh.tree, 2))
    assert dist.state is solver.state and dist.dt == solver.dt
    dist.courant = 0.125
    dist.t = 1.5
    assert (solver.courant, solver.t) == (0.125, 1.5)
    assert "courant" not in vars(dist) and "t" not in vars(dist)
    dist.step()
    assert dist.state is solver.state and solver.step_count == 1


def test_driver_refuses_a_partition_without_offsets():
    solver = _solver("wave-uniform", "numpy")
    hilbert = partition_octree_hilbert(solver.mesh.tree, 3)
    with pytest.raises(ValueError, match="contiguous SFC partition"):
        DistributedSolver(solver, hilbert)


def test_exchange_ghosts_refuses_a_partition_without_offsets():
    mesh = _mesh("wave-uniform")
    hilbert = partition_octree_hilbert(mesh.tree, 3)
    plan = build_halo_plan(mesh, hilbert)
    fields = [mesh.allocate(2)[:, hilbert.local_indices(r)] for r in range(3)]
    with pytest.raises(ValueError, match="contiguous SFC partition"):
        exchange_ghosts(plan, fields, SimComm(3), dof=2)


def test_driver_refuses_regrid_and_stays_untouched():
    """``regrid`` would pass through ``__getattr__`` and swap the mesh
    under ``partition`` / ``ranges`` / ``halo``: the driver refuses it,
    directly and through ``SupervisedRun.run(regrid_every=)``, and
    nothing has changed afterwards."""
    from repro.resilience import SupervisedRun

    solver = _solver("wave-uniform", "numpy")
    dist = DistributedSolver(solver, partition_octree(solver.mesh.tree, 3))
    for _ in range(STEPS):
        dist.step()
    mesh, ranges, halo = solver.mesh, list(dist.ranges), dist.halo
    state = solver.state.copy()
    with pytest.raises(ValueError, match="regrid on a distributed run"):
        dist.regrid(1e-6, max_level=3)
    run = SupervisedRun(dist)
    with pytest.raises(ValueError, match="regrid on a distributed run"):
        run.run(solver.t + 10 * solver.dt, regrid_every=1, regrid_eps=1e-6)
    assert solver.mesh is mesh and dist.halo is halo
    assert dist.ranges == ranges and solver.step_count == STEPS
    assert np.array_equal(solver.state, state)
