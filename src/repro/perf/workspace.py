"""Per-mesh solver workspaces: every hot-path buffer, allocated once.

Two pieces:

* :class:`RK4Workspace` — the four stage arrays of the classic RK4
  update plus ping-pong output buffers, so :func:`repro.solver.rk4.rk4_step`
  can run fully in place (the paper's AXPY phase).
* :class:`SolverWorkspace` — ties an RK4 workspace, a :class:`BufferPool`
  for the prolongation, the unzip chunk and the native kernels'
  scratch, and the hoisted per-mesh
  invariants (point coordinates and radii) to one mesh.  Solvers
  rebuild it only on regrid — the paper's "host/device synchronous"
  moment — and otherwise reuse every byte step after step.
"""

from __future__ import annotations

import numpy as np

from .pool import BufferPool


class RK4Workspace:
    """Stage arrays and ping-pong state buffers for an in-place RK4 step.

    ``out_for(u)`` returns whichever of the two output buffers does not
    alias ``u``, so ``u_new = rk4_step(..., work=ws)`` can be fed back as
    the next step's input without copying.
    """

    def __init__(self, shape: tuple, dtype=np.float64):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.k = np.empty(self.shape, self.dtype)
        self.ksum = np.empty(self.shape, self.dtype)
        self.stage = np.empty(self.shape, self.dtype)
        self.scratch = np.empty(self.shape, self.dtype)
        self._out = (
            np.empty(self.shape, self.dtype),
            np.empty(self.shape, self.dtype),
        )

    def out_for(self, u: np.ndarray) -> np.ndarray:
        """An output buffer guaranteed not to alias ``u``."""
        a, b = self._out
        return b if np.shares_memory(u, a) else a

    @property
    def nbytes(self) -> int:
        return 6 * int(np.prod(self.shape)) * self.dtype.itemsize


class SolverWorkspace:
    """All reusable per-step storage for one solver on one mesh.

    Parameters
    ----------
    mesh:
        The mesh this workspace is valid for.  Solvers compare identity
        (``workspace.matches(self.mesh)``) and rebuild after regrid.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.pool = BufferPool()
        #: hoisted per-mesh invariants (point coordinates, Sommerfeld
        #: radii); dies with the workspace on regrid
        self.cache: dict = {}
        self._rk4: RK4Workspace | None = None

    def matches(self, mesh) -> bool:
        """True when this workspace was built for exactly ``mesh``."""
        return mesh is self.mesh

    def rk4(self, shape: tuple, dtype=np.float64) -> RK4Workspace:
        """The (lazily built) RK4 stage workspace for states of ``shape``."""
        ws = self._rk4
        if ws is None or ws.shape != tuple(shape) or ws.dtype != np.dtype(dtype):
            ws = RK4Workspace(shape, dtype)
            self._rk4 = ws
        return ws

    @property
    def nbytes(self) -> int:
        total = self.pool.nbytes
        if self._rk4 is not None:
            total += self._rk4.nbytes
        return total
