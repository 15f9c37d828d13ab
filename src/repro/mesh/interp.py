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


@lru_cache(maxsize=None)
def prolongation_taps(r: int = 7) -> np.ndarray:
    """The odd rows of :func:`prolongation_matrix_1d`, C-contiguous
    ``(r - 1, r)``: the taps of each interpolated fine point."""
    return np.ascontiguousarray(prolongation_matrix_1d(r)[1::2])


def scratch(pool, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """The arena buffer ``name`` — or, for poolless callers, a fresh one."""
    if pool is None:
        return np.empty(shape, dtype)
    return pool.get(name, shape, dtype)


#: blocks per batch of :func:`prolong_blocks`: a batch's passes stay in
#: cache, which more than pays for the Python loop over batches
_BATCH = 64


def prolong_blocks(u: np.ndarray, r: int = 7,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Upsample blocks ``(..., r, r, r)`` to ``(..., 2r-1, 2r-1, 2r-1)``.

    The one definition of the prolongation's arithmetic: an x, a y and a
    z pass; even output points are copies (so a 0·inf in a neighbour
    cannot poison an injected point), and every odd one sums its ``r``
    taps (:func:`prolongation_taps`) from +0.0 in tap order.  A point is
    fixed by that sequence alone, not by which blocks are prolonged with
    it, and the native ``prolong_rows`` (:mod:`repro.codegen.cbackend`)
    runs it lane for lane, bit for bit.  A batch of blocks runs each
    pass with its axis first and the blocks last, so every ufunc call
    sweeps whole planes of the batch.  ``out`` (C-contiguous) receives
    the result when given.
    """
    if u.shape[-3:] != (r, r, r):
        raise ValueError(f"blocks must end in ({r},{r},{r})")
    f = 2 * r - 1
    shape = u.shape[:-3] + (f, f, f)
    w = prolongation_taps(r)[:, :, None, None, None]
    if out is None:
        out = np.empty(shape, np.result_type(u.dtype, w.dtype))
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous with shape {shape}")
    blocks, dst = u.reshape((-1, r, r, r)), out.reshape((-1, f, f, f))
    for a in range(0, len(blocks), _BATCH):
        v = blocks[a:a + _BATCH].transpose(3, 1, 2, 0)  # (x, z, y, B)
        for _ in range(3):
            v = np.ascontiguousarray(v)
            res = np.empty((f,) + v.shape[1:], out.dtype)
            res[0::2] = v
            odd = res[1::2]
            odd[...] = 0.0
            for t in range(r):
                odd += w[:, t] * v[t]
            v = res.transpose(2, 0, 1, 3)  # (y, X, z, B), (z, Y, X, B), ...
        dst[a:a + _BATCH] = v.transpose(3, 1, 2, 0)  # (X, Z, Y, B) -> (B, Z, Y, X)
    return out


def prolong_flops(r: int = 7) -> int:
    """Flops of one full-block prolongation, for the performance
    counters: the multiply-add of every tap of every odd output point
    of the three passes (the even points are copies)."""
    f = 2 * r - 1
    odd_points = (r - 1) * (r * r + r * f + f * f)  # x, y, z passes
    return 2 * r * odd_points


def paper_interp_ops(r: int = 7) -> int:
    """The paper's operation-count formula for one interpolation,
    ``3 (2r - 1) r^3`` (used in the Q_U bound, Eq. 20)."""
    return 3 * (2 * r - 1) * r**3


def child_window(up: np.ndarray, child_index: int, r: int = 7) -> np.ndarray:
    """Child ``child_index = cx + 2 cy + 4 cz`` of an upsampled parent
    ``(..., 2r-1, 2r-1, 2r-1)``: the child covers half the parent per
    axis, so its block is an ``r``-point window of the upsample."""
    sx, sy, sz = (slice(0, r) if (child_index >> a) & 1 == 0
                  else slice(r - 1, 2 * r - 1) for a in range(3))
    return np.ascontiguousarray(up[..., sz, sy, sx])


def child_block(parent: np.ndarray, child_index: int, r: int = 7) -> np.ndarray:
    """Prolong a parent block onto one of its 8 children."""
    return child_window(prolong_blocks(parent, r), child_index, r)


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
