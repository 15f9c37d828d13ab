"""Randomized differential test over grids: refining is no worse than
not refining.

Hypothesis draws a one-level refinement of a uniform base grid (any
nonempty proper subset of its octants split once, 2:1 balanced by
construction).  Each case is evolved for the same time on the refined
grid, on the uniform base grid and on the uniform grid at the finest
level, and the three are compared at the base grid's points, which all
of them carry:

    max|u_ref - u_fine| <= 2 max|u_base - u_fine| + 1e-12 max|u_fine|

The data are resolved well enough that the base grid's own error is
below 1e-3 of max|u_fine|, so the bound is not vacuous.  A wrong but
smooth prolongation or padding fill only shows up on the refined grid:
one prolongation weight off by 1e-3 breaks the bound.  The explicit
examples refine the octant whose +x+y+z corner is the domain centre,
so the fine side of the interface reads the coarse octants on its high
side where the data vary most.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bssn import BSSNParams
from repro.bssn.testdata import gauge_wave_state
from repro.mesh import Mesh
from repro.octree import LATTICE, MAX_DEPTH, Domain, LinearOctree, is_balanced
from repro.solver import BSSNSolver, WaveSolver

#: the fine grid's steps each case runs (the base grid takes half as many)
FINE_STEPS = 4


def _wave_pulse(mesh):
    solver = WaveSolver(mesh, backend="auto")
    solver.state[0] = np.exp(-(mesh.coordinates() ** 2).sum(-1) / 25.0)
    return solver


def _gauge_wave(mesh):
    solver = BSSNSolver(mesh, BSSNParams(), backend="auto")
    solver.set_state(gauge_wave_state(mesh.coordinates(), amplitude=0.01,
                                      wavelength=32.0))
    return solver


#: name -> (base level, domain, solver with its initial data on a mesh)
CASES = {
    "wave": (2, Domain(-12.0, 12.0), _wave_pulse),
    "gauge_wave": (1, Domain(-8.0, 8.0), _gauge_wave),
}


def _on_base_points(tree, u, base_level):
    """``u`` at the base grid's points, ``(..., N, N, N)`` with
    ``N = 6·2^base_level + 1`` and axes [z, y, x] (a point on a shared
    face takes the value of the last octant that holds it)."""
    oc = tree.octants
    base = 2 ** (MAX_DEPTH - base_level)  # base octant edge, lattice units
    n = 6 * 2 ** base_level + 1
    out = np.full(u.shape[:-4] + (n,) * 3, np.nan)
    for level in np.unique(oc.level):
        sel = np.flatnonzero(oc.level == level)
        stride = 2 ** (int(level) - base_level)
        j = np.arange(6 // stride + 1)
        iz, iy, ix = ((6 * a[sel].astype(np.int64) // base)[:, None] + j
                      for a in (oc.z, oc.y, oc.x))
        out[..., iz[:, :, None, None], iy[:, None, :, None],
            ix[:, None, None, :]] = u[..., sel, ::stride, ::stride, ::stride]
    assert not np.isnan(out).any()
    return out


def _evolve(name, tree, t_end):
    base_level, _, build = CASES[name]
    solver = build(Mesh(tree))
    solver.evolve(t_end)
    return _on_base_points(tree, solver.state, base_level)


@functools.cache
def _reference(name):
    """(t_end, u_fine, max|u_base - u_fine|, max|u_fine|) of one case,
    computed once per process."""
    base_level, domain, build = CASES[name]
    fine = LinearOctree.uniform(base_level + 1, domain)
    t_end = FINE_STEPS * build(Mesh(fine)).dt
    u_fine = _evolve(name, fine, t_end)
    u_base = _evolve(name, LinearOctree.uniform(base_level, domain), t_end)
    base_err = np.abs(u_base - u_fine).max()
    scale = np.abs(u_fine).max()
    assert 0.0 < base_err < 1e-3 * scale  # resolved: not vacuous
    return t_end, u_fine, base_err, scale


def _check(name, cells):
    base_level, domain, _ = CASES[name]
    t_end, u_fine, base_err, scale = _reference(name)
    base = LinearOctree.uniform(base_level, domain)
    flags = np.zeros(len(base), dtype=bool)
    flags[sorted(cells)] = True
    refined = base.refine(flags)
    assert is_balanced(refined)
    ref_err = np.abs(_evolve(name, refined, t_end) - u_fine).max()
    assert ref_err <= 2.0 * base_err + 1e-12 * scale, (
        f"refined {ref_err:.3e} vs base {base_err:.3e}")


def _refinements(name):
    n = 8 ** CASES[name][0]
    return st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)


def _below_centre(name):
    """The octant whose +x+y+z corner is the domain centre."""
    c = np.uint64(int(LATTICE) // 2 - 1)
    return int(LinearOctree.uniform(CASES[name][0]).locate(c, c, c))


@settings(max_examples=4, deadline=None)
@given(cells=_refinements("wave"))
@example(cells={_below_centre("wave")})
def test_wave_pulse_refined_no_worse_than_base(cells):
    _check("wave", cells)


@settings(max_examples=4, deadline=None)
@given(cells=_refinements("gauge_wave"))
@example(cells={_below_centre("gauge_wave")})
def test_bssn_gauge_wave_refined_no_worse_than_base(cells):
    _check("gauge_wave", cells)
