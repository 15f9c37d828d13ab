"""Sommerfeld (radiative) boundary conditions.

At the faces of the cubic domain the RHS of every variable is replaced by
the outgoing-wave condition

    ∂_t u = − c (x^i / r) ∂_i u − c (u − u_∞) / r,

with centred first derivatives taken at the face points of the padded
patch (whose out-of-domain padding is the extrapolation fill).
Asymptotic values u_∞ of the BSSN variables are 1 for α, χ, and the
diagonal conformal metric, 0 for everything else.
"""

from __future__ import annotations

import numpy as np

from repro.fd.derivatives import apply_stencil
from repro.fd.stencils import D1_CENTERED_6

from . import state as S

#: asymptotic value per variable
ASYMPTOTIC = np.zeros(S.NUM_VARS)
ASYMPTOTIC[S.ALPHA] = 1.0
ASYMPTOTIC[S.CHI] = 1.0
ASYMPTOTIC[S.GT11] = 1.0
ASYMPTOTIC[S.GT22] = 1.0
ASYMPTOTIC[S.GT33] = 1.0


def sommerfeld_faces(
    rhs: np.ndarray,
    patches: np.ndarray,
    faces,
    coords: np.ndarray,
    radii: np.ndarray,
    h: np.ndarray,
    u_inf: np.ndarray,
    speed: float,
    *,
    lo: int = 0,
) -> None:
    """Overwrite ``rhs`` at the physical-boundary points (in place) with
    ``(−c · (Σ_d x_d ∂_d u + (u − u_∞))) / r``.

    ``rhs`` ``(nv, n, r, r, r)`` and ``patches`` ``(nv, m, P, P, P)`` —
    the patches of octants ``lo:lo + m`` — hold any number of variables;
    ``faces`` is the plan's ``(axis, side, octants)`` list (octants in
    that range); ``coords`` ``(n, r, r, r, 3)``, ``radii``
    ``(n, r, r, r)`` (clipped away from zero) and the spacings ``h``
    ``(n,)`` are the mesh's; ``u_inf`` is ``(nv,)``.  Only the ``r²``
    points of a face are differentiated: the stencil runs on face-slab
    views of the face's patches — views, because a compact copy of a
    slab would make a strided tap axis contiguous and change einsum's
    accumulation order — which is bitwise what a whole-octant sweep
    gives there.  The NumPy twin, and the oracle, of the native
    ``sommerfeld_faces`` kernel (:mod:`repro.codegen.cbackend`).
    """
    nv, r, P = rhs.shape[0], rhs.shape[-1], patches.shape[-1]
    k = (P - r) // 2
    w = D1_CENTERED_6.left
    uinf = np.asarray(u_inf).reshape(nv, 1, 1, 1, 1)
    for axis, side, octs in faces:
        j = 0 if side == "low" else r - 1
        # the face in [z, y, x] order: of the interior, and of the patch
        face = [slice(None)] * 3
        face[2 - axis] = slice(j, j + 1)
        pface = [slice(k, k + r)] * 3
        pface[2 - axis] = slice(k + j, k + j + 1)
        shape = (nv, len(octs)) + tuple(
            1 if a == 2 - axis else r for a in range(3))
        sub = np.take(patches, octs - lo, axis=1)
        acc = np.zeros(shape)
        for d in range(3):
            slab = list(pface)
            slab[2 - d] = slice(slab[2 - d].start - w, slab[2 - d].stop + w)
            acc += coords[(octs, *face, d)] * apply_stencil(
                sub[(..., *slab)], D1_CENTERED_6, h[octs], 4 - d)
        acc += sub[(..., *pface)] - uinf
        rhs[(slice(None), octs, *face)] = acc * -speed / radii[(octs, *face)]
