"""The Mesh: a balanced octree equipped with grid points and transfer maps.

Each leaf octant carries a vertex-centred block of ``r^3`` grid points
(r = 7), padded to ``(r + 2k)^3`` patches (k = 3) for 6th-order stencils
(paper §III-C).  The mesh owns the O2P transfer plan and exposes the
unzip/zip operations plus field allocation and coordinates.
"""

from __future__ import annotations

import numpy as np

from repro.octree import Adjacency, LinearOctree, build_adjacency
from .maps import TransferPlan
from .octant_to_patch import (
    allocate_patches,
    gather_to_patches,
    scatter_to_patches,
)
from .patch_to_octant import zip_patches


class Mesh:
    """Computational grid over a 2:1-balanced linear octree."""

    def __init__(self, tree: LinearOctree, r: int = 7, k: int = 3,
                 adjacency: Adjacency | None = None):
        self.tree = tree
        self.r = r
        self.k = k
        self.P = r + 2 * k
        self.adjacency = adjacency if adjacency is not None else build_adjacency(tree)
        self.plan = TransferPlan(tree, self.adjacency, r=r, k=k)
        # physical grid spacing per octant
        dom = tree.domain
        self.dx = dom.octant_dx(tree.levels, r)

    # -- sizes ---------------------------------------------------------
    @property
    def num_octants(self) -> int:
        """Number of leaf octants."""
        return len(self.tree)

    @property
    def num_points(self) -> int:
        """Grid points per field variable ('unknowns' in the paper)."""
        return self.num_octants * self.r**3

    @property
    def min_dx(self) -> float:
        """Finest physical grid spacing on the mesh."""
        return float(self.dx.min())

    # -- fields ----------------------------------------------------------
    def allocate(self, dof: int | None = None, dtype=np.float64) -> np.ndarray:
        """Zero-filled field storage: ``(dof, n, r, r, r)`` or ``(n, r, r, r)``."""
        shape = (self.num_octants, self.r, self.r, self.r)
        if dof is not None:
            shape = (dof,) + shape
        return np.zeros(shape, dtype=dtype)

    def allocate_patches(self, dof: int | None = None, dtype=np.float64) -> np.ndarray:
        """Zero-filled patch storage matching this mesh."""
        lead = () if dof is None else (dof,)
        return allocate_patches(self.plan, lead, dtype=dtype)

    def coordinates(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Physical coordinates of grid points: ``(n, r, r, r, 3)``.

        Array axes are [oct, z, y, x]; the last axis holds (x, y, z).
        """
        tree = self.tree
        oc = tree.octants if indices is None else tree.octants[indices]
        dom = tree.domain
        n = len(oc)
        r = self.r
        step = oc.size.astype(np.float64) / (r - 1)  # lattice units per interval
        i = np.arange(r, dtype=np.float64)
        out = np.empty((n, r, r, r, 3))
        x = oc.x.astype(np.float64)[:, None] + step[:, None] * i[None, :]
        y = oc.y.astype(np.float64)[:, None] + step[:, None] * i[None, :]
        z = oc.z.astype(np.float64)[:, None] + step[:, None] * i[None, :]
        out[..., 0] = dom.to_physical(x)[:, None, None, :]
        out[..., 1] = dom.to_physical(y)[:, None, :, None]
        out[..., 2] = dom.to_physical(z)[:, :, None, None]
        return out

    def patch_coordinates(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Physical coordinates of *patch* points: ``(n, P, P, P, 3)``."""
        tree = self.tree
        oc = tree.octants if indices is None else tree.octants[indices]
        dom = tree.domain
        n, P, k, r = len(oc), self.P, self.k, self.r
        step = oc.size.astype(np.float64) / (r - 1)
        i = np.arange(P, dtype=np.float64) - k
        out = np.empty((n, P, P, P, 3))
        x = oc.x.astype(np.float64)[:, None] + step[:, None] * i[None, :]
        y = oc.y.astype(np.float64)[:, None] + step[:, None] * i[None, :]
        z = oc.z.astype(np.float64)[:, None] + step[:, None] * i[None, :]
        out[..., 0] = dom.to_physical(x)[:, None, None, :]
        out[..., 1] = dom.to_physical(y)[:, None, :, None]
        out[..., 2] = dom.to_physical(z)[:, :, None, None]
        return out

    # -- unzip / zip -----------------------------------------------------
    def unzip(self, u: np.ndarray, out: np.ndarray | None = None, *,
              method: str = "scatter", coalesce: bool = False,
              pool=None, tracer=None, executor=None,
              up: np.ndarray | None = None, lo: int = 0,
              hi: int | None = None) -> np.ndarray:
        """octant-to-patch: fill padded patches (Alg. 2).

        ``method='scatter'`` is the paper's loop-over-octants algorithm;
        ``'gather'`` is the legacy loop-over-patches baseline.
        The rest is scatter only: the patches of octants ``lo:hi`` land
        in ``out`` ``(..., hi - lo, P, P, P)``; ``up`` hands in their
        coarse sources' upsample (:func:`repro.mesh.prolong_sources`),
        ``coalesce``/``pool`` select the NumPy
        gather-map execution and a buffer arena for its staging, and
        ``executor`` hands in a compiled chunk kernel's native gather
        and padding fill (``solver.kernel.unzip_gather``) — see
        :func:`repro.mesh.octant_to_patch.scatter_to_patches`.
        ``tracer`` (a :class:`repro.telemetry.Tracer`) records the
        prolong/scatter sub-phases as nested spans.
        """
        if method == "scatter":
            hi = self.num_octants if hi is None else hi
            if out is None:
                out = np.zeros(u.shape[:-4] + (hi - lo,) + (self.P,) * 3,
                               dtype=u.dtype)
            return scatter_to_patches(self.plan, u, out, coalesce=coalesce,
                                      pool=pool, tracer=tracer,
                                      executor=executor, up=up, lo=lo, hi=hi)
        if method == "gather":
            return gather_to_patches(self.plan, u, out)
        raise ValueError("method must be 'scatter' or 'gather'")

    def zip(self, patches: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """patch-to-octant: keep interiors, discard padding."""
        return zip_patches(self.plan, patches, out)

    # -- boundary ----------------------------------------------------------
    def boundary_octants(self) -> np.ndarray:
        """Indices of octants touching the physical boundary."""
        return self.plan.boundary_octants()

    def boundary_faces(self) -> list[tuple[int, str, np.ndarray]]:
        """(axis, side, octant indices) for faces on the physical boundary."""
        return list(self.plan.boundary)

    def interpolate_to_points(self, u: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Sample a field at arbitrary physical points by degree-(r-1)
        Lagrange interpolation inside the containing octant.

        ``u``: (n, r, r, r); ``points``: (m, 3).  Used for wave extraction
        on spheres (paper §III-A, Ψ₄ extraction).
        """

        tree = self.tree
        dom = tree.domain
        pts = np.asarray(points, dtype=np.float64)
        lat = dom.to_lattice(pts)
        idx = tree.locate_checked(
            np.floor(lat[:, 0]).astype(np.int64),
            np.floor(lat[:, 1]).astype(np.int64),
            np.floor(lat[:, 2]).astype(np.int64),
        )
        if np.any(idx < 0):
            raise ValueError("points outside the computational domain")
        oc = tree.octants[idx]
        step = oc.size.astype(np.float64) / (self.r - 1)
        # local coordinates in block units (0 .. r-1)
        loc = np.stack(
            [
                (lat[:, 0] - oc.x.astype(np.float64)) / step,
                (lat[:, 1] - oc.y.astype(np.float64)) / step,
                (lat[:, 2] - oc.z.astype(np.float64)) / step,
            ],
            axis=1,
        )
        # batched Lagrange weights: solve the Vandermonde moment system for
        # all points and axes at once (m, 3, r)
        nodes = np.arange(self.r, dtype=np.float64)
        m = len(pts)
        V = np.vander(nodes, self.r, increasing=True).T  # (r, r): V[p, j] = j^p
        rhs = loc[..., None] ** np.arange(self.r)[None, None, :]  # (m, 3, r)
        W = np.linalg.solve(
            np.broadcast_to(V, (m, 3, self.r, self.r)), rhs[..., None]
        )[..., 0]
        blocks = u[idx]  # (m, r, r, r)
        out = np.einsum("mzyx,mz,my,mx->m", blocks, W[:, 2], W[:, 1], W[:, 0])
        return out
