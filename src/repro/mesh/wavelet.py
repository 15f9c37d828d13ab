"""Interpolating-wavelet refinement indicator.

Dendro-GR drives AMR with wavelet coefficients: the local interpolation
error of reconstructing a block from its own even-indexed (coarse)
samples.  Where the coefficient exceeds the tolerance ε the octant is
refined; where it falls well below, the family may be coarsened.  The
waveform-convergence study (Fig. 19) sweeps exactly this ε.
"""

from __future__ import annotations

import numpy as np

from .interp import prolong_blocks


def wavelet_coefficients(u: np.ndarray, r: int = 7) -> np.ndarray:
    """Max-norm wavelet coefficient per octant.

    ``u`` has shape ``(..., n, r, r, r)``; the result has shape
    ``(..., n)``.  The coefficient is ``max |u - P(S u)|`` where ``S``
    samples every other point and ``P`` is Lagrange prolongation — zero
    (to roundoff) for locally smooth, well-resolved data.
    """
    if u.shape[-3:] != (r, r, r):
        raise ValueError(f"blocks must end in ({r},{r},{r})")
    if r % 2 == 0:
        raise ValueError("r must be odd")
    nc = (r + 1) // 2
    rec = prolong_blocks(u[..., ::2, ::2, ::2], nc)
    return np.abs(u - rec).max(axis=(-3, -2, -1))


def field_wavelets(fields: np.ndarray, r: int = 7) -> np.ndarray:
    """Per-octant indicator over a multi-dof field ``(dof, n, r, r, r)``:
    the max across variables (Dendro-GR refines on the worst offender)."""
    w = wavelet_coefficients(fields, r)
    if w.ndim == 2:
        w = w.max(axis=0)
    return w
