"""The Weyl scalar Ψ₄ for gravitational-wave extraction (paper §III-A).

Ψ₄ is built from the electric and magnetic parts of the Weyl tensor
projected onto a quasi-Kinnersley null tetrad constructed from the
coordinate radial direction:

    E_ij = R_ij + K K_ij − K_ik K^k_j
    B_ij = ε_i^{kl} D_k K_lj
    Ψ₄   = (E_ab − i B_ab) m̄^a m̄^b,   m̄ = (θ̂ − i φ̂)/√2

with {r̂, θ̂, φ̂} Gram–Schmidt-orthonormalised against the physical
metric.  The (ℓ, m) mode decomposition on extraction spheres lives in
:mod:`repro.gw.extraction`.
"""

from __future__ import annotations

import numpy as np

from .geometry import bssn_geometry, christoffel_full
from .rhs import BSSNParams, Derivs, array_accessors

_LEVI = np.zeros((3, 3, 3))
_LEVI[0, 1, 2] = _LEVI[1, 2, 0] = _LEVI[2, 0, 1] = 1.0
_LEVI[0, 2, 1] = _LEVI[2, 1, 0] = _LEVI[1, 0, 2] = -1.0


def _gram_schmidt(vectors, g):
    """Orthonormalise a triad against metric ``g`` ([i][j] arrays)."""
    out = []
    for v in vectors:
        w = [np.array(c, dtype=np.float64, copy=True) for c in v]
        for u in out:
            dot = 0.0
            for i in range(3):
                for j in range(3):
                    dot = dot + g[i][j] * w[i] * u[j]
            for i in range(3):
                w[i] = w[i] - dot * u[i]
        norm2 = 0.0
        for i in range(3):
            for j in range(3):
                norm2 = norm2 + g[i][j] * w[i] * w[j]
        inv = 1.0 / np.sqrt(np.maximum(norm2, 1e-30))
        out.append([w[i] * inv for i in range(3)])
    return out


def compute_psi4(
    values: np.ndarray,
    derivs: Derivs,
    coords: np.ndarray,
    params: BSSNParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(Re Ψ₄, Im Ψ₄) on patch interiors.

    ``coords``: grid-point coordinates (n, r, r, r, 3).
    """
    get, d1, _, d2 = array_accessors(values, derivs, params or BSSNParams())
    geo = bssn_geometry(get, d1, d2)
    chi, Kt, gt, At, gtu = geo.chi, geo.K, geo.gt, geo.At, geo.gtu
    dchi, dgt = geo.dchi, geo.dgt
    C2f = christoffel_full(geo.C2, gt, gtu, chi, dchi)

    inv_chi = 1.0 / chi
    # physical metric and extrinsic curvature
    g = [[gt[i][j] * inv_chi for j in range(3)] for i in range(3)]
    Kij = [
        [(At[i][j] + gt[i][j] * Kt / 3.0) * inv_chi for j in range(3)]
        for i in range(3)
    ]
    # K^k_j = γ^{kl} K_lj = χ gt^{kl} K_lj
    Kud = [[None] * 3 for _ in range(3)]
    for k in range(3):
        for j in range(3):
            s = 0.0
            for l in range(3):
                s = s + chi * gtu[k][l] * Kij[l][j]
            Kud[k][j] = s

    # E_ij = R_ij + K K_ij − K_ik K^k_j
    E = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            s = geo.Rt[i][j] + geo.Rc[i][j] + Kt * Kij[i][j]
            for k in range(3):
                s = s - Kij[i][k] * Kud[k][j]
            E[i][j] = s
            E[j][i] = s

    # ∂_k K_lj from the conformal pieces
    def dKij(k, l, j):
        return (
            geo.dAt[k][l][j] + dgt[k][l][j] * Kt / 3.0 + gt[l][j] * geo.dK[k] / 3.0
        ) * inv_chi - Kij[l][j] * dchi[k] * inv_chi

    # D_k K_lj (full covariant), then B_ij = ε_i^{kl} D_k K_lj with
    # ε_i^{kl} = γ_im [mkl]/√γ,  √γ = χ^{-3/2}
    sqrtg_inv = chi ** 1.5
    B = [[None] * 3 for _ in range(3)]
    DK = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for l in range(3):
            for j in range(3):
                s = dKij(k, l, j)
                for m in range(3):
                    s = s - C2f[m][k][l] * Kij[m][j] - C2f[m][k][j] * Kij[l][m]
                DK[k][l][j] = s
    for i in range(3):
        for j in range(3):
            s = 0.0
            for m in range(3):
                for k in range(3):
                    for l in range(3):
                        if _LEVI[m, k, l] != 0.0:
                            s = s + g[i][m] * _LEVI[m, k, l] * sqrtg_inv * DK[k][l][j]
            B[i][j] = s
    # symmetrise B (antisymmetric part vanishes analytically in vacuum)
    Bs = [[0.5 * (B[i][j] + B[j][i]) for j in range(3)] for i in range(3)]

    # tetrad from coordinate directions, orthonormalised against γ
    x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
    rho2 = x * x + y * y
    rho = np.sqrt(np.maximum(rho2, 1e-30))
    v_r = [x, y, z]
    # φ̂ seed; degenerate on the z axis -> fall back to a fixed direction
    on_axis = rho < 1e-10
    v_p = [np.where(on_axis, 1.0, -y), np.where(on_axis, 0.0, x), np.zeros_like(z)]
    # θ̂ seed
    v_t = [
        np.where(on_axis, 0.0, x * z),
        np.where(on_axis, 1.0, y * z),
        np.where(on_axis, 0.0, -rho2),
    ]
    rhat, that, phat = _gram_schmidt([v_r, v_t, v_p], g)

    def proj(T, u, w):
        s = 0.0
        for i in range(3):
            for j in range(3):
                s = s + T[i][j] * u[i] * w[j]
        return s

    Ett = proj(E, that, that)
    Epp = proj(E, phat, phat)
    Etp = proj(E, that, phat)
    Btt = proj(Bs, that, that)
    Bpp = proj(Bs, phat, phat)
    Btp = proj(Bs, that, phat)

    re = 0.5 * (Ett - Epp) - Btp
    im = -Etp - 0.5 * (Btt - Bpp)
    return re, im
