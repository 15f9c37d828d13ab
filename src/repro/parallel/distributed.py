"""A functional distributed evolution driver.

Executes Algorithm 1's per-stage communication pattern for real: each
rank owns an SFC chunk of octants, exchanges ghost blocks through a
:class:`SimComm` before every unzip, evaluates the RHS only on its own
octants, and the ranks advance in lockstep.  Because the communicator
copies payloads, no rank ever reads another rank's memory — the result
must still match the single-address-space solver exactly (tested), which
is the correctness property behind the paper's multi-GPU runs.

Implemented for the linear wave solver (2 dof); the BSSN driver uses the
same mesh/halo machinery with 24 dof.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bssn.sommerfeld import ASYMPTOTIC, sommerfeld_faces
from repro.fd import PatchDerivatives
from repro.mesh import Mesh
from repro.octree import Partition
from repro.solver.rk4 import RK4_B, courant_dt
from .comm import SimComm
from .halo import HaloPlan, build_halo_plan, exchange_ghosts

PHI, PI = 0, 1


class _DistributedSolver:
    """What the two rank-parallel drivers share: rank-owned state, one
    halo exchange per RK4 stage, lockstep AXPY.  Subclasses supply
    ``_rank_rhs`` (the RHS on one rank's owned octants) and may override
    ``_post_stage`` (applied to every rank state an AXPY produces)."""

    def __init__(self, mesh: Mesh, partition: Partition, *, dof: int,
                 courant: float, comm: SimComm | None):
        self.mesh = mesh
        self.partition = partition
        self.dof = dof
        self.courant = courant
        self.comm = comm if comm is not None else SimComm(partition.num_parts)
        #: halo-exchange re-request budget (0 disables the resilient path)
        self.halo_retries = 2
        #: optional repro.resilience.RunJournal receiving recovery events
        self.journal = None
        #: optional repro.telemetry.TelemetrySink: halo exchanges are then
        #: spanned on the trace timeline with per-edge traffic counters
        self.telemetry = None
        self.halo: HaloPlan = build_halo_plan(mesh, partition)
        self.pd = PatchDerivatives(k=mesh.k)
        # per-rank owned state (dof, n_local, r, r, r)
        self.local_state: list[np.ndarray] = []
        self.t = 0.0
        self.step_count = 0
        self._coords = mesh.coordinates()
        self._radii = np.maximum(np.linalg.norm(self._coords, axis=-1), 1e-12)

    @property
    def num_ranks(self) -> int:
        """Number of ranks."""
        return self.partition.num_parts

    @property
    def dt(self) -> float:
        """Global timestep (Courant-limited by the finest level)."""
        return courant_dt(self.mesh.min_dx, self.courant)

    def set_state(self, u: np.ndarray) -> None:
        """Scatter a global (dof, n, r, r, r) state to the ranks."""
        part = self.partition
        self.local_state = [
            np.ascontiguousarray(u[:, part.offsets[r] : part.offsets[r + 1]])
            for r in range(self.num_ranks)
        ]

    def gather_state(self) -> np.ndarray:
        """Assemble the global state from the ranks (diagnostics)."""
        return np.concatenate(self.local_state, axis=1)

    # -- resilience hooks (used by repro.resilience.SupervisedRun) -----
    def snapshot_state(self) -> list[np.ndarray]:
        """Value copies of every rank's owned blocks."""
        return [u.copy() for u in self.local_state]

    def restore_state(self, snapshot: list[np.ndarray]) -> None:
        """Restore rank states from a snapshot (rollback)."""
        self.local_state = [u.copy() for u in snapshot]

    def bytes_communicated(self) -> int:
        """Total halo traffic so far."""
        return self.comm.total_bytes()

    # ------------------------------------------------------------------
    def _rank_view(self, rank: int, locals_: list[np.ndarray],
                   ghosts: dict[int, np.ndarray]) -> np.ndarray:
        """This rank's picture of the global field: own blocks + received
        ghosts, zero elsewhere (never read)."""
        part = self.partition
        r = self.mesh.r
        view = np.zeros((self.dof, self.mesh.num_octants, r, r, r))
        view[:, part.offsets[rank] : part.offsets[rank + 1]] = locals_[rank]
        for g, block in ghosts.items():
            view[:, g] = block
        return view

    def _stage_rhs(self, locals_: list[np.ndarray], t: float) -> list[np.ndarray]:
        """One distributed RHS evaluation: halo exchange, then per-rank
        unzip + RHS restricted to owned octants.  Lost or corrupted
        ghost messages are re-requested (``halo_retries``); a dead rank
        propagates :class:`repro.parallel.RankDeadError` to the caller,
        which owns restart policy."""
        part = self.partition
        tel = self.telemetry
        ghosts = exchange_ghosts(
            self.halo, locals_, self.comm, dof=self.dof,
            max_retries=self.halo_retries, validate=self.halo_retries > 0,
            journal=self.journal,
            tracer=tel.tracer if tel is not None else None,
            metrics=tel.metrics if tel is not None else None,
        )
        out = []
        for rank in range(self.num_ranks):
            lo, hi = part.offsets[rank], part.offsets[rank + 1]
            view = self._rank_view(rank, locals_, ghosts[rank])
            patches = self.mesh.unzip(view)[:, lo:hi]
            out.append(self._rank_rhs(lo, hi, patches, locals_[rank], t))
        return out

    def _rank_rhs(self, lo: int, hi: int, patches: np.ndarray,
                  local: np.ndarray, t: float) -> np.ndarray:
        """RHS on owned octants ``lo:hi`` from their unzipped patches."""
        raise NotImplementedError

    def _sommerfeld(self, lo: int, hi: int, rhs: np.ndarray,
                    patches: np.ndarray, u_inf: np.ndarray,
                    speed: float) -> None:
        """The Sommerfeld condition on the physical-boundary faces of
        the owned octants ``lo:hi`` (rank-local indices, empty faces
        dropped)."""
        faces = [(axis, side, octs[(octs >= lo) & (octs < hi)] - lo)
                 for axis, side, octs in self.mesh.boundary_faces()]
        sommerfeld_faces(rhs, patches, [f for f in faces if len(f[2])],
                         self._coords[lo:hi], self._radii[lo:hi],
                         self.mesh.dx[lo:hi], u_inf, speed)

    def _post_stage(self, u: np.ndarray) -> None:
        """Hook applied in place to each rank state an AXPY produced."""

    def _advance(self, u0, ks, c: float) -> list[np.ndarray]:
        out = [u + c * self.dt * k for u, k in zip(u0, ks)]
        for u in out:
            self._post_stage(u)
        return out

    def step(self) -> None:
        """One RK4 step with 4 halo exchanges (one per stage)."""
        dt = self.dt
        u0 = self.local_state
        k1 = self._stage_rhs(u0, self.t)
        k2 = self._stage_rhs(self._advance(u0, k1, 0.5), self.t + 0.5 * dt)
        k3 = self._stage_rhs(self._advance(u0, k2, 0.5), self.t + 0.5 * dt)
        k4 = self._stage_rhs(self._advance(u0, k3, 1.0), self.t + dt)
        new = [
            u + dt * (RK4_B[0] * a + RK4_B[1] * b + RK4_B[2] * c + RK4_B[3] * d)
            for u, a, b, c, d in zip(u0, k1, k2, k3, k4)
        ]
        for u in new:
            self._post_stage(u)
        self.local_state = new
        self.t += dt
        self.step_count += 1


class DistributedWaveSolver(_DistributedSolver):
    """Rank-parallel wave evolution over a partitioned mesh."""

    def __init__(
        self,
        mesh: Mesh,
        partition: Partition,
        *,
        speed: float = 1.0,
        courant: float = 0.25,
        ko_sigma: float = 0.1,
        source: Callable[[np.ndarray, float], np.ndarray] | None = None,
        comm: SimComm | None = None,
    ):
        super().__init__(mesh, partition, dof=2, courant=courant, comm=comm)
        self.speed = speed
        self.ko_sigma = ko_sigma
        self.source = source
        self.set_state(mesh.allocate(2))

    def _rank_rhs(self, lo, hi, patches, local, t):
        k, r = self.mesh.k, self.mesh.r
        h = self.mesh.dx[lo:hi]
        lap = self.pd.d2(patches[PHI], h, 0)
        lap += self.pd.d2(patches[PHI], h, 1)
        lap += self.pd.d2(patches[PHI], h, 2)
        rhs = np.empty_like(local)
        rhs[PHI] = patches[PI, :, k : k + r, k : k + r, k : k + r]
        rhs[PI] = self.speed**2 * lap
        if self.source is not None:
            rhs[PI] += self.source(self._coords[lo:hi], t)
        rhs[PHI] += self.ko_sigma * self.pd.ko_all(patches[PHI], h)
        rhs[PI] += self.ko_sigma * self.pd.ko_all(patches[PI], h)
        self._sommerfeld(lo, hi, rhs, patches, np.zeros(2), self.speed)
        return rhs


class DistributedBSSNSolver(_DistributedSolver):
    """Rank-parallel BSSN evolution (Algorithm 1's multi-GPU pattern).

    Per RK stage: halo exchange of the 24-variable ghost blocks, per-rank
    unzip restricted to owned octants, per-rank RHS (D + A + KO +
    Sommerfeld), lockstep AXPY.  Must agree with the single-rank
    :class:`repro.solver.BSSNSolver` to roundoff (tested).
    """

    def __init__(self, mesh: Mesh, partition: Partition, params=None,
                 *, courant: float = 0.25, comm: SimComm | None = None):
        from repro.bssn import BSSNParams
        from repro.bssn import state as S

        super().__init__(mesh, partition, dof=S.NUM_VARS, courant=courant,
                         comm=comm)
        self.params = params if params is not None else BSSNParams()

    def _rank_rhs(self, lo, hi, patches, local, t):
        from repro.bssn import compute_derivatives, evaluate_algebraic

        k, r = self.mesh.k, self.mesh.r
        derivs = compute_derivatives(patches, self.mesh.dx[lo:hi],
                                     self.params, self.pd)
        values = np.ascontiguousarray(
            patches[:, :, k : k + r, k : k + r, k : k + r]
        )
        rhs = evaluate_algebraic(values, derivs, self.params)
        rhs += self.params.ko_sigma * derivs.ko
        self._sommerfeld(lo, hi, rhs, patches, ASYMPTOTIC, 1.0)
        return rhs

    def _post_stage(self, u: np.ndarray) -> None:
        from repro.solver import enforce_algebraic_constraints

        enforce_algebraic_constraints(u)
