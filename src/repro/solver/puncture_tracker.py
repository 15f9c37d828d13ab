"""Moving-puncture tracking.

In moving-puncture evolutions the black holes are advected by the shift:
dx_p/dt = −β^i(x_p).  Production codes track the punctures this way to
steer the AMR (the refinement regions of Figs. 3/12 follow the holes) and
to diagnose the orbit.  The tracker integrates the puncture positions
with RK2 using interpolated shift values and can emit refinement
callables for re-gridding.
"""

from __future__ import annotations

import numpy as np

from repro.bssn import state as S
from repro.octree import puncture_refine_fn


class PunctureTracker:
    """Integrates puncture trajectories from the evolved shift."""

    def __init__(self, positions, masses=None):
        self.positions = [np.array(p, dtype=np.float64) for p in positions]
        self.masses = (
            list(masses) if masses is not None else [1.0] * len(self.positions)
        )
        if len(self.masses) != len(self.positions):
            raise ValueError("need one mass per puncture")
        self.history: list[tuple[float, list[np.ndarray]]] = []

    @property
    def num_punctures(self) -> int:
        """Number of tracked punctures."""
        return len(self.positions)

    def shift_at(self, mesh, state: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Interpolated shift vector at the given points, shape (m, 3)."""
        out = np.empty((len(points), 3))
        for d in range(3):
            out[:, d] = mesh.interpolate_to_points(state[S.BETA[d]], points)
        return out

    def update(self, mesh, state: np.ndarray, t: float, dt: float) -> None:
        """Advance the puncture positions by one step (RK2 midpoint)."""
        pts = np.array(self.positions)
        b1 = self.shift_at(mesh, state, pts)
        mid = pts - 0.5 * dt * b1
        b2 = self.shift_at(mesh, state, mid)
        new = pts - dt * b2
        self.positions = [new[i].copy() for i in range(len(new))]
        self.history.append((t + dt, [p.copy() for p in self.positions]))

    def separation(self) -> float:
        """Coordinate distance between the first two punctures."""
        if self.num_punctures < 2:
            return 0.0
        return float(np.linalg.norm(self.positions[0] - self.positions[1]))

    def refine_fn(self, theta: float = 1.0):
        """A puncture-centred refinement callable at the *current*
        positions (feed to LinearOctree.from_refinement)."""
        return puncture_refine_fn(
            list(zip([p.copy() for p in self.positions], self.masses)),
            theta=theta,
        )

    def split_flags(self, octants, domain) -> np.ndarray:
        """Which of ``octants`` :meth:`refine_fn` splits at the current
        positions: the flags :meth:`BSSNSolver.regrid` takes from an
        attached tracker."""
        centers = domain.to_physical(octants.centers())
        sizes = octants.size.astype(np.float64) * domain.lattice_h
        return self.refine_fn()(centers, sizes, 0)

    def trajectory(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, positions (n, 3)) for one puncture."""
        if not self.history:
            return np.zeros(0), np.zeros((0, 3))
        times = np.array([t for t, _ in self.history])
        pos = np.array([ps[index] for _, ps in self.history])
        return times, pos
