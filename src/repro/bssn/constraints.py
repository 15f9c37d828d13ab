"""Hamiltonian, momentum, and Gamma constraint monitors.

For vacuum data the constraints vanish analytically; their numerical
residuals measure discretisation error and are the standard accuracy
diagnostic for BSSN evolutions (paper §V-C establishes accuracy through
waveform convergence; constraint monitors are the underlying check).
"""

from __future__ import annotations

import numpy as np

from .geometry import bssn_geometry, gamma_source, raise_two
from .rhs import BSSNParams, Derivs, array_accessors


def compute_constraints(
    values: np.ndarray, derivs: Derivs, params: BSSNParams | None = None
) -> dict[str, np.ndarray]:
    """Constraint residual fields on patch interiors.

    Returns ``{'ham': (n,r,r,r), 'mom': (3,n,r,r,r), 'gam': (3,n,r,r,r)}``.
    """
    get, d1, _, d2 = array_accessors(values, derivs, params or BSSNParams())
    g = bssn_geometry(get, d1, d2)
    gtu, At, dgt = g.gtu, g.At, g.dgt

    At_uu = raise_two(At, gtu)
    At2 = 0.0
    for i in range(3):
        for j in range(3):
            At2 = At2 + At[i][j] * At_uu[i][j]

    # Hamiltonian: H = R + (2/3) K^2 − Ã_ij Ã^{ij},  R = χ gt^{ij} (R̃+Rχ)_ij
    Rscal = 0.0
    for i in range(3):
        for j in range(3):
            Rscal = Rscal + gtu[i][j] * (g.Rt[i][j] + g.Rc[i][j])
    ham = g.chi * Rscal + (2.0 / 3.0) * g.K * g.K - At2

    # Momentum: M^i = ∂_j Ã^{ij} + the source term of Eq. 8, with
    # ∂_j Ã^{ij} expanded by the product rule (∂ gt^{-1} = −gt^{-1}
    # ∂gt gt^{-1}).
    dgtu = [  # ∂_d gt^{ik}
        [
            [
                -sum(
                    gtu[i][a] * dgt[d][a][b] * gtu[b][k]
                    for a in range(3)
                    for b in range(3)
                )
                for k in range(3)
            ]
            for i in range(3)
        ]
        for d in range(3)
    ]
    div = []
    for i in range(3):
        s = 0.0
        for j in range(3):
            for kk in range(3):
                for ll in range(3):
                    # ∂_j (gt^{ik} gt^{jl} Ã_kl)
                    s = s + (
                        dgtu[j][i][kk] * gtu[j][ll] * At[kk][ll]
                        + gtu[i][kk] * dgtu[j][j][ll] * At[kk][ll]
                        + gtu[i][kk] * gtu[j][ll] * g.dAt[j][kk][ll]
                    )
        div.append(s)
    mom = np.stack(gamma_source(g, At_uu, div))

    # Gamma constraint: G^i = Γ̃^i (evolved) − gt^{jk} Γ̃^i_jk (computed)
    gam = np.zeros((3,) + ham.shape)
    for i in range(3):
        cal = 0.0
        for j in range(3):
            for kk in range(3):
                cal = cal + gtu[j][kk] * g.C2[i][j][kk]
        gam[i] = g.Gt[i] - cal

    return {"ham": ham, "mom": mom, "gam": gam}


def constraint_norms(con: dict[str, np.ndarray]) -> dict[str, float]:
    """L2 and Linf norms of each constraint residual."""
    out = {}
    for name, arr in con.items():
        out[f"{name}_l2"] = float(np.sqrt(np.mean(arr**2)))
        out[f"{name}_linf"] = float(np.abs(arr).max())
    return out
