#!/usr/bin/env python3
"""Head-on black-hole collision at toy scale, on a grid that follows the
holes.

Two equal-mass Brill–Lindquist punctures start at rest on the x axis.
The grid starts one level short of what a puncture tracker asks for
around them; the tracker is attached as ``solver.tracker``, so every
regrid of ``evolve`` refines what it would split (up to ``max_level``)
and coarsens nothing below it.  The tracker is advanced from the shift
after every step.
We watch the lapse collapse at both holes and dump a slice-level view of
the grid (Fig. 3-style).  The script exits non-zero unless both
punctures end in octants at the level the tracker asks for.

Run:  python examples/head_on_collision.py
"""

import sys

import numpy as np

from repro.bssn import BSSNParams, Puncture
from repro.bssn import state as S
from repro.mesh import Mesh, ascii_level_map, level_profile
from repro.octree import Domain, LinearOctree, balance
from repro.solver import BSSNSolver, PunctureTracker

MAX_LEVEL = 5
#: above every wavelet coefficient of the run: the tracker alone refines
REGRID_EPS = 1.0


def at_tracker_level(solver) -> bool:
    """Each puncture's octant is one the tracker does not split and whose
    parent it does, or sits at ``MAX_LEVEL``."""
    tree, tracker = solver.mesh.tree, solver.tracker
    lat = np.floor(tree.domain.to_lattice(np.array(tracker.positions)))
    oc = tree.octants[tree.locate(*lat.astype(np.uint64).T)]
    asked = (~tracker.split_flags(oc, tree.domain)
             & tracker.split_flags(oc.parents(), tree.domain))
    return bool(np.all((oc.level == MAX_LEVEL) | asked))


def main() -> int:
    d = 3.0  # initial separation
    punctures = [
        Puncture(0.5, [-d / 2, 0.0, 0.0]),
        Puncture(0.5, [+d / 2, 0.0, 0.0]),
    ]
    tracker = PunctureTracker([p.position for p in punctures],
                              masses=[p.mass for p in punctures])
    tree = balance(LinearOctree.from_refinement(
        tracker.refine_fn(), domain=Domain(-16.0, 16.0), base_level=2,
        max_level=MAX_LEVEL - 1,
    ))
    print(f"grid: {len(tree)} octants, levels "
          f"{tree.min_level}..{tree.max_level}")

    solver = BSSNSolver(Mesh(tree), BSSNParams(eta=2.0, ko_sigma=0.3),
                        backend="auto")
    solver.set_punctures(punctures)
    solver.tracker = tracker

    def on_step(s):
        s.tracker.update(s.mesh, s.state, s.t - s.dt, s.dt)
        t = s.mesh.tree
        regridded = s.record.regrid_steps[-1:] == [s.step_count - 1]
        print(f"t={s.t:6.3f}  min(alpha)={s.state[S.ALPHA].min():.4f}  "
              f"separation={s.tracker.separation():.4f}  "
              f"{s.mesh.num_octants} octants, levels "
              f"{t.min_level}..{t.max_level}"
              + ("  <- regrid" if regridded else ""))

    print(f"\nseparation at t=0: {tracker.separation():.3f}")
    solver.evolve(0.3, regrid_every=2, regrid_eps=REGRID_EPS,
                  max_level=MAX_LEVEL, on_step=on_step)

    tree = solver.mesh.tree
    print("\nz = 0 level map (digits = refinement level):")
    print(ascii_level_map(tree, resolution=32))
    xs, levels = level_profile(tree, axis=0, num=40)
    print("level profile along x (both punctures visible):")
    for x, l in zip(xs[::2], levels[::2]):
        print(f"  x={x:+7.2f}  " + "#" * int(l))

    c = solver.constraints()
    print(f"\nconstraints after {solver.step_count} steps: "
          f"ham_l2={c['ham_l2']:.3e}  mom_l2={c['mom_l2']:.3e}")
    ok = at_tracker_level(solver)
    print("both punctures sit in octants at the tracker's level"
          if ok else "a puncture is not at the tracker's level: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
