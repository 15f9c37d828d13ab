"""The BSSN evolution driver — Algorithm 1 of the paper.

Per timestep: halo exchange + octant-to-patch (our :meth:`Mesh.unzip`
performs both in one step on shared memory), RHS evaluation,
patch-to-octant, AXPY (inside RK4).  Re-gridding is the only operation
that rebuilds the mesh ("host/device synchronous" in the paper); wave
extraction runs every ``extract_every`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bssn import (
    BSSNParams,
    Puncture,
    compute_constraints,
    compute_derivatives,
    compute_psi4,
    constraint_norms,
    mesh_puncture_state,
)
from repro.bssn import state as S
from repro.bssn.sommerfeld import ASYMPTOTIC
from repro.codegen.backends import NativeBSSNRHS, NumpyBSSNRHS, resolve_backend
from repro.mesh import Mesh, regrid_flags, remesh, transfer_fields
from repro.perf import NO_PROFILER, StepProfiler
from .base import Solver


#: the floor enforcement holds χ and α above, in both executions
ENFORCE_FLOOR = 1e-6


def _det(g00, g01, g02, g11, g12, g22) -> np.ndarray:
    """det of a symmetric 3x3 metric from its six slots, in the operation
    order the native ``enforce_det`` repeats."""
    return (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
            + g02 * (g01 * g12 - g11 * g02))


def enforce_algebraic_constraints(
    u: np.ndarray, chi_floor: float = ENFORCE_FLOOR
) -> None:
    """det(γ̃) = 1, tr(Ã) = 0, χ > floor, α > floor (in place).

    Standard moving-puncture hygiene applied after every RK stage.
    Vectorised over the six symmetric slots: the metric is rescaled in
    place through the contiguous ``GT_SYM_SLICE`` view and the
    trace-free projection subtracts directly from ``AT_SYM_SLICE``.

    This is the ``backend="numpy"`` execution.  A compiled solver runs
    its kernel's native ``enforce`` instead — two C passes around this
    function's one ``np.power``, the same operations in the same order,
    so bit for bit the same.
    """
    gt = u[S.GT_SYM_SLICE]  # (6, ...) view: xx xy xz yy yz zz
    g00, g01, g02, g11, g12, g22 = gt
    gt *= np.power(_det(*gt), -1.0 / 3.0)
    # inverse of the rescaled metric (adjugate over its determinant):
    # tr3 = (1/(3 det)) (cof_ij Ã_ij), the off-diagonal cofactors twice
    inv = 1.0 / _det(*gt)
    At = u[S.AT_SYM_SLICE]
    A00, A01, A02, A11, A12, A22 = At
    diag = ((g11 * g22 - g12 * g12) * A00 + (g00 * g22 - g02 * g02) * A11
            + (g00 * g11 - g01 * g01) * A22)
    off = ((g02 * g12 - g01 * g22) * A01 + (g01 * g12 - g02 * g11) * A02
           + (g01 * g02 - g00 * g12) * A12)
    At -= gt * ((inv / 3.0) * (diag + off * 2.0))
    np.maximum(u[S.CHI], chi_floor, out=u[S.CHI])
    np.maximum(u[S.ALPHA], chi_floor, out=u[S.ALPHA])


@dataclass
class EvolutionRecord:
    """Time series gathered during an evolution."""

    times: list[float] = field(default_factory=list)
    constraint_history: list[dict[str, float]] = field(default_factory=list)
    regrid_steps: list[int] = field(default_factory=list)
    num_octants: list[int] = field(default_factory=list)


class BSSNSolver(Solver):
    """Evolve the BSSN system on an adaptive octree mesh.

    Parameters mirror the paper's setup: RK4 with Courant factor
    λ = 0.25, 6th-order stencils, KO dissipation, 1+log / Γ-driver gauge,
    Sommerfeld boundaries, wavelet-driven re-gridding every ``f_r`` steps.

    ``backend`` (``"numpy"`` | ``"compiled"`` | ``"auto"``) picks the
    chunk kernel, see :mod:`repro.codegen.backends`; ``algebra`` swaps
    the NumPy kernel's A component for a generated one
    (:func:`repro.codegen.get_algebra_kernel`).
    """

    default_regrid_eps = 1e-3

    def __init__(
        self,
        mesh: Mesh,
        params: BSSNParams | None = None,
        *,
        courant: float = 0.25,
        chunk_octants: int | None = None,
        algebra=None,
        profiler: StepProfiler | None = None,
        backend: str = "numpy",
    ):
        if resolve_backend(backend) == "numpy":
            kernel = NumpyBSSNRHS(algebra)
        elif algebra is not None:
            raise ValueError(
                "backend='compiled' runs its own A kernel; drop the "
                "algebra= override or use backend='numpy'"
            )
        else:
            kernel = NativeBSSNRHS()
        super().__init__(mesh, kernel, courant=courant,
                         chunk_octants=chunk_octants, profiler=profiler)
        self.params = params if params is not None else BSSNParams()
        self.record = EvolutionRecord()
        #: a :class:`repro.solver.PunctureTracker` whose punctures
        #: :meth:`regrid` keeps refined (None: wavelet flags only)
        self.tracker = None

    # -- setup -----------------------------------------------------------
    def set_punctures(self, punctures: list[Puncture]) -> None:
        """Set Brill–Lindquist / Bowen–York initial data."""
        self.state = mesh_puncture_state(self.mesh, punctures)

    def set_state(self, u: np.ndarray) -> None:
        """Install an existing 24-variable state array."""
        expect = (S.NUM_VARS, self.mesh.num_octants, self.mesh.r) + (self.mesh.r,) * 2
        if u.shape != expect:
            raise ValueError(f"state must have shape {expect}")
        self.state = u

    # -- RHS ----------------------------------------------------------------
    def _chunk_rhs(self, patches: np.ndarray, t: float, rhs: np.ndarray,
                   a: int, b: int, lo: int, hi: int) -> None:
        """Octants ``a:b`` of the range ``lo:hi`` from their ``patches``:
        the chunk kernel (D + A + KO) → write, then their Sommerfeld
        faces."""
        self.kernel(patches, a, b, self.mesh, self.params, rhs,
                    self.workspace().pool, self._prof)
        self._sommerfeld(rhs, patches, ASYMPTOTIC, 1.0, a, b)

    # -- stepping ------------------------------------------------------------
    def _post_stage(self, u: np.ndarray) -> None:
        """Algebraic-constraint enforcement on every RK4 stage state, as
        the chunk kernel's backend runs it (``kernel.enforce``: None on
        the NumPy kernel, False for a state it cannot take)."""
        native = self.kernel.enforce
        if native is None or not native(u, self.workspace().pool,
                                        ENFORCE_FLOOR):
            enforce_algebraic_constraints(u, ENFORCE_FLOOR)

    def evolve(
        self,
        t_end: float,
        *,
        monitor_every: int = 0,
        on_step: Callable[["BSSNSolver"], None] | None = None,
        **regrid,
    ) -> EvolutionRecord:
        """:meth:`Solver.evolve`, recording constraint norms every
        ``monitor_every`` steps; returns the evolution record."""

        def hook(solver):
            if monitor_every and solver.step_count % monitor_every == 0:
                record = solver.record
                record.times.append(solver.t)
                record.constraint_history.append(solver.constraints())
                record.num_octants.append(solver.mesh.num_octants)
            if on_step is not None:
                on_step(solver)

        super().evolve(t_end, on_step=hook, **regrid)
        return self.record

    def regrid(self, eps: float, *, max_level: int | None = None) -> bool:
        """Wavelet-driven re-mesh + state transfer. Returns True if the
        grid changed.  With a :attr:`tracker` attached, its punctures
        are a second source of flags: every octant the tracker would
        split is refined (up to ``max_level``), and no octant whose
        parent it would split is coarsened.  Spanned on the telemetry
        timeline when a traced profiler is attached (the only
        host/device-sync of Alg. 1)."""
        prof = self._prof
        tracer = prof.tracer
        with prof.region("regrid"):
            refine, coarsen = regrid_flags(
                self.mesh, self.state, eps, max_level=max_level
            )
            if self.tracker is not None:
                oc, dom = self.mesh.tree.octants, self.mesh.tree.domain
                split = self.tracker.split_flags(oc, dom)
                if max_level is not None:
                    split &= oc.level < max_level
                refine = refine | split
                idx = np.flatnonzero(coarsen)
                coarsen = coarsen.copy()
                coarsen[idx] = ~self.tracker.split_flags(oc[idx].parents(), dom)
            if not refine.any() and not coarsen.any():
                return False
            new_mesh = remesh(self.mesh, refine, coarsen, tracer=tracer)
            if new_mesh is self.mesh:
                return False
            self.state = transfer_fields(self.mesh, new_mesh, self.state,
                                         tracer=tracer)
            self.mesh = new_mesh
            self.record.regrid_steps.append(self.step_count)
            return True

    # -- diagnostics ---------------------------------------------------------
    def constraints(self) -> dict[str, float]:
        """Constraint norms of the current state (chunked evaluation)."""
        acc: dict[str, list[np.ndarray]] = {}
        with self._prof.region("constraints"):
            for _, values, derivs in self._diagnostic_chunks():
                con = compute_constraints(values, derivs, self.params)
                for name, arr in con.items():
                    acc.setdefault(name, []).append(arr.reshape(-1))
            return constraint_norms(
                {name: np.concatenate(parts) for name, parts in acc.items()})

    def _diagnostic_chunks(self, octants: np.ndarray | None = None):
        """The one diagnostic loop: yield ``(pos, values, derivs)`` for
        every chunk of ``self.chunk`` octants that holds one of
        ``octants`` (default: every octant, in order) — ``pos`` the
        positions in ``octants`` of the chunk's selected octants, whose
        interior values and NumPy derivatives follow.  The chunk is
        unzipped through :meth:`_unzip_chunks`, as the RHS's are, so
        padded patches exist for one chunk at a time, never for the
        whole mesh."""
        mesh, k, r, chunk = self.mesh, self.mesh.k, self.mesh.r, self.chunk
        n = mesh.num_octants
        idx = np.arange(n) if octants is None else np.asarray(octants)
        for lo in (np.unique(idx // chunk) * chunk).tolist():
            pos = np.flatnonzero(idx // chunk == lo // chunk)
            sel = idx[pos]
            for a, b, pch in self._unzip_chunks(self.state, lo, min(lo + chunk, n),
                                                NO_PROFILER):
                if not np.array_equal(sel, np.arange(a, b)):
                    pch = pch[:, sel - a]
                derivs = compute_derivatives(pch, mesh.dx[sel], self.params,
                                             self.pd)
                yield pos, np.ascontiguousarray(
                    pch[:, :, k:k + r, k:k + r, k:k + r]), derivs

    def attach_extractor(self, radii: list[float], *, l_max: int = 2,
                         extract_every: int = 16) -> "object":
        """Attach Ψ₄ extraction on spheres (paper: every ~16 steps on
        asynchronous streams).  Returns the WaveExtractor; sampled
        automatically by :meth:`evolve_with_extraction`."""
        from repro.gw import WaveExtractor

        self.extractor = WaveExtractor(radii, l_max=l_max, s=-2)
        self.extract_every = int(extract_every)
        return self.extractor

    def extract_now(self) -> None:
        """Sample Ψ₄ on the attached spheres at the current time."""
        if getattr(self, "extractor", None) is None:
            raise RuntimeError("no extractor attached")
        radii = [sph.radius for sph in self.extractor.spheres]
        # only octants overlapping the extraction shells need Ψ₄
        centers = self.mesh.tree.domain.to_physical(
            self.mesh.tree.octants.centers()
        )
        rads = np.linalg.norm(centers, axis=1)
        reach = (
            self.mesh.tree.octants.size.astype(np.float64)
            * self.mesh.tree.domain.lattice_h
        ) * np.sqrt(3.0)
        sel = np.zeros(self.mesh.num_octants, dtype=bool)
        for r0 in radii:
            sel |= np.abs(rads - r0) <= reach
        idx = np.flatnonzero(sel)
        re, im = self.psi4_field(idx)
        # assemble full-mesh fields (zeros away from the shells; the
        # spheres only sample inside `sel`)
        re_full = self.mesh.allocate()
        im_full = self.mesh.allocate()
        re_full[idx] = re
        im_full[idx] = im
        self.extractor.sample(self.mesh, (re_full, im_full), self.t)

    def evolve_with_extraction(self, t_end: float, **kwargs) -> EvolutionRecord:
        """:meth:`evolve` plus periodic Ψ₄ extraction."""
        if getattr(self, "extractor", None) is None:
            raise RuntimeError("attach_extractor first")

        def sample(solver):
            if solver.step_count % solver.extract_every == 0:
                solver.extract_now()

        return self.evolve(t_end, on_step=sample, **kwargs)

    def psi4_field(self, octant_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Re, Im) Ψ₄ on the interiors of the selected octants, evaluated
        only on the chunks that hold them."""
        idx = np.asarray(octant_indices)
        shape = (len(idx),) + (self.mesh.r,) * 3
        re, im = np.empty(shape), np.empty(shape)
        for pos, values, derivs in self._diagnostic_chunks(idx):
            re[pos], im[pos] = compute_psi4(
                values, derivs, self.mesh.coordinates(idx[pos]), self.params)
        return re, im
