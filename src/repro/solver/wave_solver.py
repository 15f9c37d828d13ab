"""Linear gravitational-wave propagation on the adaptive mesh.

The paper's accuracy experiments (Figs. 19, 21) evolve binaries for weeks
on A100s; at Python toy scale we exercise the identical mesh / stencil /
unzip / RK4 / extraction machinery on the linear wave equation

    ∂_t φ = π,      ∂_t π = c² ∇²φ + S(x, t),

with a compact source S carrying a model inspiral–merger–ringdown signal
(see :mod:`repro.gw.waveform`).  The extracted signal at radius R then
plays the role of the (2,2) mode of Ψ₄: its convergence under the
refinement tolerance ε reproduces Fig. 19's shape, and running the same
problem through the CPU and virtual-GPU execution paths reproduces
Fig. 21's overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mesh import Mesh, regrid_flags, remesh, transfer_fields
from repro.perf import StepProfiler
from .base import Solver

PHI, PI = 0, 1
#: both fields vanish at infinity (the Sommerfeld u_∞)
_U_INF = np.zeros(2)


@dataclass
class GaussianSource:
    """S(x, t) = A(t) exp(-|x - x0|² / w²)."""

    amplitude: Callable[[float], float]
    width: float = 1.5
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __call__(self, coords: np.ndarray, t: float) -> np.ndarray:
        d2 = ((coords - np.asarray(self.center)) ** 2).sum(axis=-1)
        return self.amplitude(t) * np.exp(-d2 / self.width**2)


class WaveSolver(Solver):
    """6th-order FD wave equation on an octree mesh with KO dissipation,
    Sommerfeld boundaries and optional wavelet re-gridding.

    ``backend`` (``"numpy"`` | ``"compiled"`` | ``"auto"``) picks the
    chunk kernel, see :mod:`repro.codegen.backends`.  ``source(coords,
    t)`` must be a pure function of its arguments: it is evaluated once
    per time and octant range and reused (RK4's two middle stages share
    a time, and the last stage's is the next step's first).
    """

    default_regrid_eps = 1e-4

    def __init__(
        self,
        mesh: Mesh,
        *,
        speed: float = 1.0,
        courant: float = 0.25,
        ko_sigma: float = 0.1,
        source: Callable[[np.ndarray, float], np.ndarray] | None = None,
        chunk_octants: int | None = None,
        profiler: StepProfiler | None = None,
        backend: str = "numpy",
    ):
        # imported here: repro.codegen pulls in sympy
        from repro.codegen.backends import (
            NativeWaveRHS,
            NumpyWaveRHS,
            resolve_backend,
        )

        kernel = (NumpyWaveRHS() if resolve_backend(backend) == "numpy"
                  else NativeWaveRHS())
        super().__init__(mesh, kernel, courant=courant,
                         chunk_octants=chunk_octants, profiler=profiler)
        self.speed = speed
        self.ko_sigma = ko_sigma
        self.source = source
        self.state = mesh.allocate(2)

    def _chunk_rhs(self, patches: np.ndarray, t: float, rhs: np.ndarray,
                   a: int, b: int, lo: int, hi: int) -> None:
        """Octants ``a:b`` of the range ``lo:hi`` of the RHS of (φ, π)
        from their ``patches``: the kernel (Laplacian + KO) with the
        source, then their Sommerfeld faces.  The range's source values
        are cached per mesh for the last ``t``."""
        ws = self.workspace()
        src = None
        if self.source is not None:
            last = ws.cache.get(("source", lo, hi))
            if last is None or last[0] is not self.source or last[1] != t:
                with self._prof.phase("algebra"):
                    last = ws.cache["source", lo, hi] = (
                        self.source, t, self.source(self.coords()[lo:hi], t))
            src = last[2][a - lo:b - lo]
        self.kernel(patches, a, b, self.mesh, self.speed**2, self.ko_sigma,
                    src, rhs, ws.pool, self._prof)
        self._sommerfeld(rhs, patches, _U_INF, self.speed, a, b)

    def regrid(self, eps: float, *, max_level: int | None = None) -> bool:
        """Wavelet-driven re-mesh + state transfer; True if the grid changed."""
        prof = self._prof
        tracer = prof.tracer
        with prof.region("regrid"):
            refine, coarsen = regrid_flags(self.mesh, self.state, eps,
                                           max_level=max_level)
            if not refine.any() and not coarsen.any():
                return False
            new_mesh = remesh(self.mesh, refine, coarsen, tracer=tracer)
            if new_mesh is self.mesh:
                return False
            self.state = transfer_fields(self.mesh, new_mesh, self.state,
                                         tracer=tracer)
            self.mesh = new_mesh
            return True

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Interpolate φ at physical points (extraction)."""
        return self.mesh.interpolate_to_points(self.state[PHI], points)

    def energy(self) -> float:
        """Discrete energy ~ ∫ (π² + c²|∇φ|²)/2 (monitoring; decays only
        through dissipation and the outer boundary)."""
        mesh = self.mesh
        patches = mesh.unzip(self.state)
        h = mesh.dx
        gx = self.pd.d1(patches[PHI], h, 0)
        gy = self.pd.d1(patches[PHI], h, 1)
        gz = self.pd.d1(patches[PHI], h, 2)
        dens = 0.5 * (
            self.state[PI] ** 2 + self.speed**2 * (gx**2 + gy**2 + gz**2)
        )
        w = (mesh.dx**3)[:, None, None, None]
        return float((dens * w).sum())
