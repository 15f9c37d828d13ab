"""Inter-level transfer operators (prolongation / injection).

All transfers are tensor products of 1-D operators (paper §IV-A,
"Interpolations").  With vertex-centred blocks of ``r = 7`` points
(6 intervals), the fine lattice inside a coarse octant has ``2r - 1 = 13``
points: the 7 even ones coincide with coarse points (copied) and the 6 odd
ones are midpoints interpolated with the full degree-(r-1) Lagrange
polynomial — so prolongation is exact for polynomials up to degree 6,
matching the O(h^6) interior stencils.

Injection (fine -> coarse) is pointwise sampling of the even fine points,
which again coincide exactly with coarse points.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.fd.stencils import fd_weights


@lru_cache(maxsize=None)
def prolongation_matrix_1d(r: int = 7) -> np.ndarray:
    """The (2r-1, r) matrix mapping r coarse values to 2r-1 fine values."""
    nodes = np.arange(r, dtype=np.float64)
    P = np.zeros((2 * r - 1, r))
    for j in range(2 * r - 1):
        x = j / 2.0
        if j % 2 == 0:
            P[j, j // 2] = 1.0
        else:
            P[j] = fd_weights(nodes, x, 0)
    return P


def scratch(pool, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The arena buffer ``name`` — or, for poolless callers, a fresh one."""
    if pool is None:
        return np.empty(shape, dtype)
    return pool.get(name, shape, dtype)


def prolong_blocks(u: np.ndarray, r: int = 7, out: np.ndarray | None = None,
                   *, pool=None) -> np.ndarray:
    """Upsample blocks ``(..., r, r, r)`` to ``(..., 2r-1, 2r-1, 2r-1)``.

    Applied once per coarse octant during the loop-over-octants scatter;
    the loop-over-patches gather instead re-does this per destination
    (the redundancy Fig. 7 measures).

    Three batched matrix products — z, then y, then x — each written
    with ``out=`` so the result lands contiguous in ``(Z, Y, X)`` order
    with no transpose and no copy: into ``out`` (C-contiguous) when
    given, through two intermediates drawn from ``pool`` (duck-typed
    ``get(name, shape, dtype)``) when given.  Every output point is the
    same length-``r`` BLAS dot product as in a ``tensordot`` chain over
    the three axes, so the two agree bitwise (asserted in
    tests/test_mesh_interp.py).
    """
    if u.shape[-3:] != (r, r, r):
        raise ValueError(f"blocks must end in ({r},{r},{r})")
    P = prolongation_matrix_1d(r)
    f = 2 * r - 1
    lead = u.shape[:-3]
    nb = math.prod(lead)
    dtype = np.result_type(u.dtype, P.dtype)
    if out is None:
        out = scratch(None, "unzip.prolong", lead + (f, f, f), dtype)
    elif out.shape != lead + (f, f, f) or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be C-contiguous with shape {lead + (f, f, f)}"
        )
    zs = scratch(pool, "unzip.prolong_z", (nb, f, r * r), dtype)
    ys = scratch(pool, "unzip.prolong_y", (nb * f, f, r), dtype)
    np.matmul(P, u.reshape(nb, r, r * r), out=zs)  # (b, Z, yx)
    np.matmul(P, zs.reshape(nb * f, r, r), out=ys)  # (bZ, Y, x)
    np.matmul(ys.reshape(nb * f * f, r), P.T, out=out.reshape(nb * f * f, f))
    return out


def prolong_flops(r: int = 7) -> int:
    """Multiply-add flop count of one full-block prolongation (2 flops per
    matrix entry product), for the performance counters."""
    f = 2 * r - 1
    stage1 = f * r * r  # outputs of z pass
    stage2 = f * f * r
    stage3 = f * f * f
    return 2 * r * (stage1 + stage2 + stage3)


def paper_interp_ops(r: int = 7) -> int:
    """The paper's operation-count formula for one interpolation,
    ``3 (2r - 1) r^3`` (used in the Q_U bound, Eq. 20)."""
    return 3 * (2 * r - 1) * r**3


def child_block(parent: np.ndarray, child_index: int, r: int = 7) -> np.ndarray:
    """Prolong a parent block onto one of its 8 children.

    ``child_index = cx + 2 cy + 4 cz``.  The child covers half the parent
    per axis, so its block is a 7-point window of the 13-point upsample.
    """
    up = prolong_blocks(parent, r)
    cx = child_index & 1
    cy = (child_index >> 1) & 1
    cz = (child_index >> 2) & 1
    sx = slice(0, r) if cx == 0 else slice(r - 1, 2 * r - 1)
    sy = slice(0, r) if cy == 0 else slice(r - 1, 2 * r - 1)
    sz = slice(0, r) if cz == 0 else slice(r - 1, 2 * r - 1)
    return np.ascontiguousarray(up[..., sz, sy, sx])


def parent_from_children(children: np.ndarray, r: int = 7) -> np.ndarray:
    """Assemble a parent block by injecting its 8 children.

    ``children`` has shape ``(..., 8, r, r, r)`` in Morton child order.
    Parent points inside child c are the child's even-index points;
    points on shared child faces are written by both owners (identical
    values up to the solution's own inter-block consistency).
    """
    if children.shape[-4:] != (8, r, r, r):
        raise ValueError(f"children must end in (8,{r},{r},{r})")
    if r % 2 == 0:
        raise ValueError("r must be odd")
    half = r // 2  # parent points per child per axis, exclusive of far face
    out_shape = children.shape[:-4] + (r, r, r)
    out = np.empty(out_shape, dtype=children.dtype)
    for ci in range(8):
        cx, cy, cz = ci & 1, (ci >> 1) & 1, (ci >> 2) & 1
        dst = (
            slice(cz * half, cz * half + half + 1),
            slice(cy * half, cy * half + half + 1),
            slice(cx * half, cx * half + half + 1),
        )
        out[(..., *dst)] = children[..., ci, ::2, ::2, ::2]
    return out


@lru_cache(maxsize=None)
def extrapolation_matrix_1d(r: int = 7, k: int = 3, side: str = "high") -> np.ndarray:
    """(k, r) matrix extrapolating k points beyond one end of an r-point row.

    Used to fill out-of-domain padding at the physical boundary before the
    Sommerfeld condition overrides the boundary RHS.  Degree 4 (the 5
    nearest nodes) rather than the full degree r-1: extrapolation weights
    grow combinatorially with degree and the cascaded corner fills would
    amplify roundoff by ~1e9 at degree 6, while the padding values only
    need to be smooth, not spectrally accurate.
    """
    deg_nodes = min(5, r)
    E = np.zeros((k, r))
    if side == "high":
        nodes = np.arange(r - deg_nodes, r, dtype=np.float64)
        cols = slice(r - deg_nodes, r)
    else:
        nodes = np.arange(deg_nodes, dtype=np.float64)
        cols = slice(0, deg_nodes)
    for j in range(k):
        x = float(r - 1 + (j + 1)) if side == "high" else float(-(k - j))
        E[j, cols] = fd_weights(nodes, x, 0)
    return E


@lru_cache(maxsize=None)
def extrapolation_matrices(r: int = 7, k: int = 3) -> np.ndarray:
    """Both :func:`extrapolation_matrix_1d`, stacked ``(2, k, r)`` low
    then high — the layout the native padding fill indexes by side."""
    return np.stack([extrapolation_matrix_1d(r, k, side)
                     for side in ("low", "high")])
