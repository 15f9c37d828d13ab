"""Pointwise geometric quantities shared by the BSSN RHS, the constraint
monitors, and the Ψ₄ extraction: inverse conformal metric, Christoffel
symbols (Eqs. 12–13), and the Ricci tensor split (Eqs. 16–19).  The three
reach them through one prelude, :func:`bssn_geometry`.

All functions are vectorised over grid points: every tensor component is
an array of identical shape and tensors are nested Python lists indexed
``[i][j]`` — the structure mirrors the paper's equations rather than
packing components into trailing array axes, which keeps each expression
readable and each temporary a flat contiguous array.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import state as S
from .state import SYM_IDX

#: the index pairs (a ≤ b) of a symmetric 3×3 tensor, in storage order
_SYM_PAIRS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def sym3x3(arr6):
    """View the 6 symmetric components as a nested [i][j] list."""
    return [[arr6[SYM_IDX[i, j]] for j in range(3)] for i in range(3)]


def det_sym(g):
    """Determinant of a symmetric 3x3 field given as [i][j] lists."""
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[1][2])
        - g[0][1] * (g[0][1] * g[2][2] - g[1][2] * g[0][2])
        + g[0][2] * (g[0][1] * g[1][2] - g[1][1] * g[0][2])
    )


def inverse_sym(g, det=None):
    """Inverse of a symmetric 3x3 field (adjugate / determinant)."""
    if det is None:
        det = det_sym(g)
    inv_det = 1.0 / det
    gu = [[None] * 3 for _ in range(3)]
    gu[0][0] = (g[1][1] * g[2][2] - g[1][2] * g[1][2]) * inv_det
    gu[0][1] = (g[0][2] * g[1][2] - g[0][1] * g[2][2]) * inv_det
    gu[0][2] = (g[0][1] * g[1][2] - g[0][2] * g[1][1]) * inv_det
    gu[1][1] = (g[0][0] * g[2][2] - g[0][2] * g[0][2]) * inv_det
    gu[1][2] = (g[0][1] * g[0][2] - g[0][0] * g[1][2]) * inv_det
    gu[2][2] = (g[0][0] * g[1][1] - g[0][1] * g[0][1]) * inv_det
    gu[1][0] = gu[0][1]
    gu[2][0] = gu[0][2]
    gu[2][1] = gu[1][2]
    return gu


def christoffel_conformal(gt, gtu, dgt):
    """Conformal Christoffels (Eq. 12).

    ``dgt[k][i][j]`` is ∂_k γ̃_ij.  Returns (Γ̃^k_ij as C2[k][i][j],
    Γ̃_kij lowered as C1[k][i][j]).
    """
    C1 = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                C1[k][i][j] = 0.5 * (dgt[j][k][i] + dgt[i][k][j] - dgt[k][i][j])
                C1[k][j][i] = C1[k][i][j]
    C2 = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                s = gtu[k][0] * C1[0][i][j]
                s = s + gtu[k][1] * C1[1][i][j]
                s = s + gtu[k][2] * C1[2][i][j]
                C2[k][i][j] = s
                C2[k][j][i] = s
    return C2, C1


def christoffel_full(C2, gt, gtu, chi, dchi):
    """Physical Christoffels Γ^k_ij (Eq. 13) from the conformal ones.

    ``dchi[k]`` is ∂_k χ; ``chi`` must already be floored away from zero.
    """
    # gtu^{kl} ∂_l χ
    gradchi_up = [
        gtu[k][0] * dchi[0] + gtu[k][1] * dchi[1] + gtu[k][2] * dchi[2]
        for k in range(3)
    ]
    inv2chi = 0.5 / chi
    C2f = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                corr = -(
                    (1.0 if k == i else 0.0) * dchi[j]
                    + (1.0 if k == j else 0.0) * dchi[i]
                    - gt[i][j] * gradchi_up[k]
                ) * inv2chi
                C2f[k][i][j] = C2[k][i][j] + corr
                C2f[k][j][i] = C2f[k][i][j]
    return C2f


def ricci_conformal(gt, gtu, Gt, dGt, d2gt, C1, C2):
    """R̃_ij (Eq. 17) with the evolved Γ̃^k in the derivative terms.

    ``dGt[j][k]`` is ∂_j Γ̃^k; ``d2gt[(a,b)][i][j]`` is ∂_a∂_b γ̃_ij.
    """
    Rt = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            # -1/2 gt^{lm} d_l d_m gt_ij
            s = 0.0
            for l in range(3):
                for m in range(3):
                    key = (l, m) if l <= m else (m, l)
                    s = s - 0.5 * gtu[l][m] * d2gt[key][i][j]
            # 1/2 (gt_ki dGt^k/dx^j + gt_kj dGt^k/dx^i)
            for k in range(3):
                s = s + 0.5 * (gt[k][i] * dGt[j][k] + gt[k][j] * dGt[i][k])
            # 1/2 Gt^k (C1_ijk + C1_jik)   [C1_ijk = Γ̃_ijk, lowered 1st idx]
            for k in range(3):
                s = s + 0.5 * Gt[k] * (C1[i][j][k] + C1[j][i][k])
            # gt^{lm} (C2^k_li C1_jkm + C2^k_lj C1_ikm + C2^k_im C1_klj)
            for l in range(3):
                for m in range(3):
                    glm = gtu[l][m]
                    for k in range(3):
                        s = s + glm * (
                            C2[k][l][i] * C1[j][k][m]
                            + C2[k][l][j] * C1[i][k][m]
                            + C2[k][i][m] * C1[k][l][j]
                        )
            Rt[i][j] = s
            Rt[j][i] = s
    return Rt


def ricci_chi(gt, gtu, Gt, chi, dchi, d2chi, C2):
    """R^χ_ij (Eqs. 18–19); ``chi`` must be floored."""
    inv_chi = 1.0 / chi
    # gt^{kl} d_k d_l chi  and  gt^{kl} d_k chi d_l chi  and  Gt^m d_m chi
    lap = 0.0
    grad2 = 0.0
    for k_ in range(3):
        for l_ in range(3):
            key = (k_, l_) if k_ <= l_ else (l_, k_)
            lap = lap + gtu[k_][l_] * d2chi[key]
            grad2 = grad2 + gtu[k_][l_] * dchi[k_] * dchi[l_]
    Gdchi = Gt[0] * dchi[0] + Gt[1] * dchi[1] + Gt[2] * dchi[2]
    bracket = lap - 1.5 * inv_chi * grad2 - Gdchi
    Rc = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            cd = d2chi[(i, j) if i <= j else (j, i)]
            for k in range(3):
                cd = cd - C2[k][i][j] * dchi[k]
            M = 0.5 * inv_chi * cd - 0.25 * inv_chi**2 * dchi[i] * dchi[j]
            Rc[i][j] = M + 0.5 * inv_chi * gt[i][j] * bracket
            Rc[j][i] = Rc[i][j]
    return Rc


def trace_free(X, gt, gtu):
    """(X_ij)^TF with respect to the conformal metric (Eq. 11)."""
    tr = 0.0
    for l in range(3):
        for m in range(3):
            tr = tr + gtu[l][m] * X[l][m]
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            out[i][j] = X[i][j] - gt[i][j] * tr / 3.0
            out[j][i] = out[i][j]
    return out


def raise_one(At, gtu):
    """At^i_j = gt^{ik} At_kj."""
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            s = gtu[i][0] * At[0][j]
            s = s + gtu[i][1] * At[1][j]
            s = s + gtu[i][2] * At[2][j]
            out[i][j] = s
    return out


def raise_two(At, gtu):
    """At^{ij} = gt^{ik} gt^{jl} At_kl."""
    mixed = raise_one(At, gtu)
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            s = mixed[i][0] * gtu[j][0]
            s = s + mixed[i][1] * gtu[j][1]
            s = s + mixed[i][2] * gtu[j][2]
            out[i][j] = s
            out[j][i] = s
    return out


def bssn_geometry(get, d1, d2) -> SimpleNamespace:
    """The tensor prelude the RHS, the constraints and Ψ₄ share, generic
    over arrays and SymPy symbols like :func:`repro.bssn.rhs.algebraic_rhs_exprs`,
    whose ``get`` / ``d1`` / ``d2`` accessors it takes (``get(S.CHI)``
    already floored).

    Returns the fields ``chi``, ``K``, ``Gt`` (Γ̃^i), ``gt``, ``At``; their
    derivatives ``dchi[d]``, ``dK[d]``, ``dGt[d][k]``, ``dgt[d][i][j]``,
    ``dAt[d][i][j]``, ``d2chi[(a, b)]``, ``d2gt[(a, b)][i][j]``; and
    ``gtu`` (γ̃^ij), ``C1``/``C2`` (Eq. 12) and ``Rt``/``Rc`` (R̃_ij and
    R^χ_ij, Eqs. 17–19).  Nothing else: what one caller alone needs
    stays with it.
    """
    def sym(slots, fetch):
        return [[fetch(slots[SYM_IDX[i, j]]) for j in range(3)] for i in range(3)]

    chi, K = get(S.CHI), get(S.K)
    Gt = [get(i) for i in S.GT]
    gt, At = sym(S.GT_SYM, get), sym(S.AT_SYM, get)
    dchi = [d1(S.CHI, d) for d in range(3)]
    dK = [d1(S.K, d) for d in range(3)]
    dGt = [[d1(S.GT[k], d) for k in range(3)] for d in range(3)]
    dgt = [sym(S.GT_SYM, lambda m: d1(m, d)) for d in range(3)]
    dAt = [sym(S.AT_SYM, lambda m: d1(m, d)) for d in range(3)]
    d2chi = {p: d2(S.CHI, *p) for p in _SYM_PAIRS}
    d2gt = {p: sym(S.GT_SYM, lambda m: d2(m, *p)) for p in _SYM_PAIRS}

    gtu = inverse_sym(gt)
    C2, C1 = christoffel_conformal(gt, gtu, dgt)
    return SimpleNamespace(
        chi=chi, K=K, Gt=Gt, gt=gt, At=At, dchi=dchi, dK=dK, dGt=dGt,
        dgt=dgt, dAt=dAt, d2chi=d2chi, d2gt=d2gt, gtu=gtu, C1=C1, C2=C2,
        Rt=ricci_conformal(gt, gtu, Gt, dGt, d2gt, C1, C2),
        Rc=ricci_chi(gt, gtu, Gt, chi, dchi, d2chi, C2))


def gamma_source(g: SimpleNamespace, At_uu, acc=(0.0, 0.0, 0.0)) -> list:
    """Γ̃^i_jk Ã^{jk} − (3/2χ) Ã^{ij} ∂_j χ − (2/3) γ̃^{ij} ∂_j K, added
    term by term onto ``acc[i]``: the source of Eq. 8 (from 0) and the
    non-derivative part of the momentum constraint (onto ∂_j Ã^{ij})."""
    out = []
    for i in range(3):
        t = acc[i]
        for j in range(3):
            for k in range(3):
                t = t + g.C2[i][j][k] * At_uu[j][k]
        for j in range(3):
            t = t - 1.5 / g.chi * At_uu[i][j] * g.dchi[j]
            t = t - (2.0 / 3.0) * g.gtu[i][j] * g.dK[j]
        out.append(t)
    return out
