"""What the BSSN and wave drivers share of Algorithm 1: the per-mesh
workspace arena, global timestep, rollback snapshots, ``full_rhs`` as
one fused unzip → kernel → boundary loop over octant chunks, the RK4
step bookkeeping and the evolve loop.  A subclass supplies
``_chunk_rhs`` (its call of a chunk kernel from
:mod:`repro.codegen.backends`) and ``regrid``."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.fd import PatchDerivatives
from repro.mesh import Mesh, prolong_sources
from repro.perf import NO_PROFILER, SolverWorkspace, StepProfiler
from .rk4 import courant_dt, rk4_step


class Solver:
    """RK4 time stepping of ``full_rhs`` on an adaptive octree mesh.

    Every buffer of a step — one chunk's unzip patches, kernel scratch,
    RK4 stages — lives in the per-mesh :class:`repro.perf.SolverWorkspace`,
    rebuilt only after a regrid.  ``chunk_octants`` defaults to the chunk
    kernel's own (cache-sized for the native kernels).
    """

    #: wavelet tolerance :meth:`evolve` regrids with unless told otherwise
    default_regrid_eps: float
    #: applied to every RK4 stage state (None: nothing to enforce)
    _post_stage: Callable[[np.ndarray], None] | None = None

    def __init__(self, mesh: Mesh, kernel, *, courant: float,
                 chunk_octants: int | None, profiler: StepProfiler | None):
        self.mesh = mesh
        #: the chunk kernel ``full_rhs`` loops over
        self.kernel = kernel
        self.courant = courant
        self.chunk = int(kernel.chunk_octants if chunk_octants is None
                         else chunk_octants)
        self.profiler = profiler
        #: derivative operators for diagnostics
        self.pd = PatchDerivatives(k=mesh.k)
        self.state: np.ndarray | None = None
        self.t = 0.0
        self.step_count = 0
        self._workspace: SolverWorkspace | None = None

    @property
    def backend(self) -> str:
        """``"numpy"`` or ``"compiled"`` — what the chunk kernel runs on.
        Wave results are bitwise-identical either way; BSSN results are
        when the NumPy kernel runs the compiled schedule (``algebra=``),
        and differ in the last bits with its default algebra."""
        return self.kernel.backend

    @property
    def _prof(self) -> StepProfiler:
        return self.profiler if self.profiler is not None else NO_PROFILER

    def workspace(self) -> SolverWorkspace:
        """The per-mesh workspace arena (rebuilt only after regrid)."""
        ws = self._workspace
        if ws is None or not ws.matches(self.mesh):
            ws = self._workspace = SolverWorkspace(self.mesh)
        return ws

    @property
    def dt(self) -> float:
        """Global timestep (Courant-limited by the finest level)."""
        return courant_dt(self.mesh.min_dx, self.courant)

    def coords(self) -> np.ndarray:
        """Grid-point coordinates of the current mesh (hoisted: they
        live, and die on regrid, with the workspace)."""
        cache = self.workspace().cache
        if "coords" not in cache:
            cache["coords"] = self.mesh.coordinates()
        return cache["coords"]

    def full_rhs(
        self, u: np.ndarray, t: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """RHS over the whole mesh: :meth:`rhs_range` over every octant."""
        rhs = np.empty_like(u) if out is None else out
        self.rhs_range(u, t, rhs, 0, self.mesh.num_octants)
        return rhs

    def rhs_range(self, u: np.ndarray, t: float, rhs: np.ndarray,
                  lo: int, hi: int) -> None:
        """Octants ``lo:hi`` of the RHS of the state ``u``, Alg. 1's unzip,
        kernel and boundary fused per chunk: the coarse sources the range
        reads are prolonged once, then every chunk of ``self.chunk``
        octants is unzipped into one arena buffer (run as the chunk
        kernel's backend does it) and given to :meth:`_chunk_rhs` — the
        chunk kernel, then the Sommerfeld condition on the chunk's faces.
        Padded patches exist for one chunk at a time, and ``u`` is read
        only where they need it."""
        for a, b, patches in self._unzip_chunks(u, lo, hi, self._prof):
            self._chunk_rhs(patches, t, rhs, a, b, lo, hi)

    def _unzip_chunks(self, u: np.ndarray, lo: int, hi: int, prof):
        """Yield ``(a, b, patches)`` for every chunk of ``self.chunk``
        octants of ``lo:hi``: the coarse sources the range reads are
        prolonged once, then each chunk's padded patches are unzipped, as
        the chunk kernel's backend runs it, into a prefix of the
        workspace's flat ``solver.patch_chunk``, which the next chunk
        overwrites; ``prof`` times it as the ``unzip`` phase.  The RHS
        and every diagnostic read the state this way."""
        mesh, chunk = self.mesh, self.chunk
        pool = self.workspace().pool
        nv, P3 = u.shape[0], mesh.P**3
        with prof.phase("unzip"):
            up = prolong_sources(mesh.plan, u, lo, hi, pool=pool,
                                 tracer=prof.tracer,
                                 executor=self.kernel.prolong)
            arena = pool.get("solver.patch_chunk", (
                nv * min(chunk, mesh.num_octants) * P3,))
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            # the tail chunk is a prefix of the same buffer
            patches = arena[:nv * (b - a) * P3].reshape(
                (nv, b - a) + (mesh.P,) * 3)
            with prof.phase("unzip"):
                mesh.unzip(u, out=patches, coalesce=True, tracer=prof.tracer,
                           executor=self.kernel.unzip_gather, up=up,
                           lo=a, hi=b)
            yield a, b, patches

    def _sommerfeld(self, rhs: np.ndarray, patches: np.ndarray,
                    u_inf: np.ndarray, speed: float, lo: int, hi: int) -> None:
        """Alg. 1's boundary phase: the chunk kernel's backend applies
        the Sommerfeld condition on the physical-boundary faces of
        octants ``lo:hi`` of ``rhs`` from their ``patches``.  The point
        radii (clipped away from zero) are hoisted per mesh."""
        cache = self.workspace().cache
        with self._prof.phase("boundary"):
            if "radii" not in cache:
                radii = cache["radii"] = np.linalg.norm(self.coords(), axis=-1)
                np.maximum(radii, 1e-12, out=radii)
            self.kernel.sommerfeld(rhs, patches, self.mesh, self.coords(),
                                   cache["radii"], u_inf, speed, lo, hi)

    # -- resilience hooks (used by repro.resilience.SupervisedRun) -------
    def snapshot_state(self) -> np.ndarray:
        """Value copy of the current state into one reused arena buffer.

        The supervisor calls this every step; the returned array is
        overwritten by the next snapshot.
        """
        if self.state is None:
            raise RuntimeError("no state to snapshot")
        snap = self.workspace().pool.get("supervisor.snapshot", self.state.shape)
        np.copyto(snap, self.state)
        return snap

    def restore_state(self, snapshot: np.ndarray) -> None:
        """Copy a snapshot's values back into the live state (rollback)."""
        np.copyto(self.state, snapshot)

    # -- stepping --------------------------------------------------------
    def step(self) -> None:
        """Advance one RK4 step, in place in the workspace's stage and
        ping-pong buffers."""
        self.advance(self.full_rhs)

    def advance(self, rhs: Callable[..., np.ndarray]) -> None:
        """The one RK4 step, of ``rhs(u, t, out=)``: :meth:`full_rhs`, or
        the rank-parallel driver's halo exchange around its ranges.  The
        stage combines run as the chunk kernel's backend runs them
        (``kernel.rk4_combine``: None on the NumPy kernels)."""
        if self.state is None:
            raise RuntimeError("no initial data set")
        prof = self._prof
        prof.begin_step()
        self.state = rk4_step(
            rhs,
            self.state,
            self.t,
            self.dt,
            post_stage=self._post_stage,
            work=self.workspace().rk4(self.state.shape, self.state.dtype),
            combine=self.kernel.rk4_combine,
            profiler=prof,
        )
        prof.end_step()
        self.t += self.dt
        self.step_count += 1

    def evolve(
        self,
        t_end: float,
        *,
        on_step: Callable[["Solver"], None] | None = None,
        regrid_every: int = 0,
        regrid_eps: float | None = None,
        max_level: int | None = None,
    ) -> None:
        """Algorithm 1: march to ``t_end``, re-gridding every
        ``regrid_every`` steps and calling ``on_step(self)`` after each."""
        if regrid_eps is None:
            regrid_eps = self.default_regrid_eps
        while self.t < t_end - 1e-12:
            if regrid_every and self.step_count and self.step_count % regrid_every == 0:
                self.regrid(regrid_eps, max_level=max_level)
            self.step()
            if on_step is not None:
                on_step(self)
