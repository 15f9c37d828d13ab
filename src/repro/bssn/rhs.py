"""The BSSN right-hand side (Eqs. 1–19) — reference implementation.

The evaluation is split exactly as in paper §IV-B:

* :func:`compute_derivatives` — the D component: all 210 derivative
  evaluations (72 first, 66 second, 72 Kreiss–Oliger) from the padded
  patches;
* :func:`evaluate_algebraic` — the A component: the pointwise map from
  the 24 + 210 inputs to the 24 outputs.

The generated kernels in :mod:`repro.codegen` consume the same
:class:`Derivs` container and must agree with this reference to roundoff
(tested in ``tests/test_codegen_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fd import PatchDerivatives
from repro.perf import NO_PROFILER
from . import state as S
from .geometry import (
    _SYM_PAIRS,
    bssn_geometry,
    christoffel_full,
    gamma_source,
    raise_one,
    raise_two,
    trace_free,
)


@dataclass
class BSSNParams:
    """Gauge and dissipation parameters (moving-puncture defaults)."""

    eta: float = 2.0  # Gamma-driver damping
    gauge_f: float = 0.75  # the 3/4 f(α) factor of Eq. 2 (f = 1)
    ko_sigma: float = 0.4  # Kreiss–Oliger strength
    chi_floor: float = 1e-4
    # lapse family: ∂_t α = λ₁ β·∂α − 2 α K (c1 + c2 α);
    # (1, 0) = 1+log (moving punctures), (0, 1/2) = harmonic slicing
    lapse_c1: float = 1.0
    lapse_c2: float = 0.0
    use_upwind: bool = True  # upwind-biased advection derivatives
    lambda1: float = 1.0  # advection switches (Dendro's lambda[0..3])
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda4: float = 1.0


#: second-derivative variable list and its position lookup
_S2 = list(S.SECOND_DERIV_VARS)
_S2_POS = {v: i for i, v in enumerate(_S2)}
_PAIR_POS = {p: i for i, p in enumerate(_SYM_PAIRS)}


@dataclass
class Derivs:
    """All 210 derivative arrays of one RHS evaluation (the D component).

    ``d1[v, d]``: ∂_d of variable v (first derivatives, 72 arrays);
    ``adv[v, d]``: advective ∂_d (upwind-biased; aliases d1 if centred);
    ``d2[p, q]``: ∂_a∂_b of the p-th entry of SECOND_DERIV_VARS where q
    indexes the symmetric pair (a, b) (66 arrays);
    ``ko[v]``: summed KO dissipation (72 directional evaluations).
    """

    d1: np.ndarray
    adv: np.ndarray
    d2: np.ndarray
    ko: np.ndarray

    def first(self, var: int, direction: int) -> np.ndarray:
        """First derivative ∂_d of variable ``var``."""
        return self.d1[var, direction]

    def advective(self, var: int, direction: int) -> np.ndarray:
        """Advective (upwind-biased) ∂_d of variable ``var``."""
        return self.adv[var, direction]

    def second(self, var: int, a: int, b: int) -> np.ndarray:
        """Second derivative ∂_a∂_b of variable ``var``."""
        key = (a, b) if a <= b else (b, a)
        return self.d2[_S2_POS[var], _PAIR_POS[key]]


def compute_derivatives(
    patches: np.ndarray,
    h,
    params: BSSNParams,
    pd: PatchDerivatives | None = None,
) -> Derivs:
    """The D component: evaluate all 210 derivatives on patch interiors.

    Every sweep runs directly on the ``(24, n, P, P, P)`` batch (the
    stencil helpers accept arbitrary leading axes), so no flatten/tile
    copies are made.
    """
    if patches.shape[0] != S.NUM_VARS:
        raise ValueError(f"expected {S.NUM_VARS} variables")
    if pd is None:
        pd = PatchDerivatives(k=3)
    n = patches.shape[1]
    P = patches.shape[-1]
    k = pd.k
    r = P - 2 * k
    shape = (S.NUM_VARS, n, r, r, r)
    h_arr = np.asarray(h, dtype=np.float64)

    # direction-major storage keeps each sweep's destination contiguous;
    # the returned views are variable-major, matching Derivs indexing
    d1_base = np.empty((3,) + shape)
    for d in range(3):
        pd.d1(patches, h_arr, d, out=d1_base[d])
    d1 = np.swapaxes(d1_base, 0, 1)

    if params.use_upwind:
        # shift vector on the interior selects the bias pointwise
        # (broadcast over the variable axis)
        adv_base = np.empty((3,) + shape)
        for d in range(3):
            beta_int = patches[S.BETA[d], :, k : k + r, k : k + r, k : k + r]
            pd.d1_upwind(patches, h_arr, d, beta_int, out=adv_base[d])
        adv = np.swapaxes(adv_base, 0, 1)
    else:
        adv = d1

    src2 = np.take(patches, _S2, axis=0)
    d2_base = np.empty((6, len(_S2)) + shape[1:])
    for q, (a, b) in enumerate(_SYM_PAIRS):
        pd.d2_mixed(src2, h_arr, a, b, out=d2_base[q])
    d2 = np.swapaxes(d2_base, 0, 1)

    ko = pd.ko_all(patches, h_arr)

    return Derivs(d1=d1, adv=adv, d2=d2, ko=ko)


def algebraic_rhs_exprs(get, d1, adv, d2, params) -> list:
    """The A component (Eqs. 1–8) in generic form: 24 + 210 inputs -> a
    list of 24 output expressions.

    ``get(var)``, ``d1(var, dir)``, ``adv(var, dir)`` and ``d2(var, a, b)``
    are accessor callables returning either NumPy arrays (reference
    evaluation) or SymPy symbols (code generation) — the single source of
    truth for the equations, so generated kernels match the reference by
    construction.  The χ accessor must return an already-floored value.
    """
    rhs: list = [None] * S.NUM_VARS

    g = bssn_geometry(get, d1, d2)
    chi, Kt, Gt, gt, At, gtu = g.chi, g.K, g.Gt, g.gt, g.At, g.gtu
    a = get(S.ALPHA)
    beta = [get(i) for i in S.BETA]
    Bv = [get(i) for i in S.B]
    da = [d1(S.ALPHA, d) for d in range(3)]
    dbeta = [[d1(S.BETA[i], d) for d in range(3)] for i in range(3)]
    d2a = {p: d2(S.ALPHA, *p) for p in _SYM_PAIRS}

    C2f = christoffel_full(g.C2, gt, gtu, chi, g.dchi)
    R = [[g.Rt[i][j] + g.Rc[i][j] for j in range(3)] for i in range(3)]

    At_ud = raise_one(At, gtu)  # At^i_j
    At_uu = raise_two(At, gtu)  # At^{ij}
    At2 = 0.0  # At_ij At^{ij}
    for i in range(3):
        for j in range(3):
            At2 = At2 + At[i][j] * At_uu[i][j]

    div_beta = dbeta[0][0] + dbeta[1][1] + dbeta[2][2]

    def adv_scalar(var):
        """β^k ∂_k (advective upwind when enabled)."""
        s = beta[0] * adv(var, 0)
        s = s + beta[1] * adv(var, 1)
        s = s + beta[2] * adv(var, 2)
        return s

    # --- lapse (Eq. 1 generalised): ∂_t α = β·∂α − 2 α K (c1 + c2 α);
    # c=(1,0) is the paper's 1+log, c=(0,1/2) is harmonic slicing
    rhs[S.ALPHA] = params.lambda1 * adv_scalar(S.ALPHA) - 2.0 * a * Kt * (
        params.lapse_c1 + params.lapse_c2 * a
    )

    # --- shift (Eq. 2): ∂_t β^i = β^j ∂_j β^i + (3/4) f(α) B^i
    for i in range(3):
        rhs[S.BETA[i]] = params.lambda2 * adv_scalar(S.BETA[i]) + params.gauge_f * Bv[i]

    # --- conformal metric (Eq. 4): weighted Lie derivative − 2 α Ã_ij
    for i in range(3):
        for j in range(i, 3):
            m = S.GT_SYM[S.SYM_IDX[i, j]]
            lie = adv_scalar(m)
            for k in range(3):
                lie = lie + gt[i][k] * dbeta[k][j] + gt[k][j] * dbeta[k][i]
            lie = lie - (2.0 / 3.0) * gt[i][j] * div_beta
            rhs[m] = lie - 2.0 * a * At[i][j]

    # --- conformal factor (Eq. 5)
    rhs[S.CHI] = adv_scalar(S.CHI) + (2.0 / 3.0) * chi * (a * Kt - div_beta)

    # --- DiDjα (full covariant Hessian of the lapse, Eqs. 13–15)
    DDa = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            s = d2a[(i, j)]
            for k in range(3):
                s = s - C2f[k][i][j] * da[k]
            DDa[i][j] = s
            DDa[j][i] = s
    lap_a = 0.0  # D^i D_i α = χ gt^{ij} DDa_ij
    for i in range(3):
        for j in range(3):
            lap_a = lap_a + gtu[i][j] * DDa[i][j]
    lap_a = chi * lap_a

    # --- Ã_ij (Eq. 6)
    X = [[chi * (-DDa[i][j] + a * R[i][j]) for j in range(3)] for i in range(3)]
    XTF = trace_free(X, gt, gtu)
    for i in range(3):
        for j in range(i, 3):
            m = S.AT_SYM[S.SYM_IDX[i, j]]
            lie = adv_scalar(m)
            for k in range(3):
                lie = lie + At[i][k] * dbeta[k][j] + At[k][j] * dbeta[k][i]
            lie = lie - (2.0 / 3.0) * At[i][j] * div_beta
            AA = 0.0  # Ã_ik Ã^k_j
            for k in range(3):
                AA = AA + At[i][k] * At_ud[k][j]
            rhs[m] = lie + XTF[i][j] + a * (Kt * At[i][j] - 2.0 * AA)

    # --- K (Eq. 7)
    rhs[S.K] = adv_scalar(S.K) - lap_a + a * (At2 + Kt * Kt / 3.0)

    # --- Γ̃^i (Eq. 8)
    Gt_rhs = [None] * 3
    src = gamma_source(g, At_uu)
    for i in range(3):
        s = 0.0
        # gt^{jk} ∂_j ∂_k β^i
        for j in range(3):
            for k in range(3):
                key = (j, k) if j <= k else (k, j)
                s = s + gtu[j][k] * d2(S.BETA[i], *key)
        # (1/3) gt^{ij} ∂_j ∂_k β^k
        for j in range(3):
            for k in range(3):
                key = (j, k) if j <= k else (k, j)
                s = s + (1.0 / 3.0) * gtu[i][j] * d2(S.BETA[k], *key)
        # advection and Lie-algebra terms
        s = s + adv_scalar(S.GT[i])
        for j in range(3):
            s = s - Gt[j] * dbeta[i][j]
        s = s + (2.0 / 3.0) * Gt[i] * div_beta
        # -2 Ã^{ij} ∂_j α
        for j in range(3):
            s = s - 2.0 * At_uu[i][j] * da[j]
        # 2 α ( Γ̃^i_jk Ã^{jk} − (3/2χ) Ã^{ij} ∂_j χ − (2/3) gt^{ij} ∂_j K )
        Gt_rhs[i] = s + 2.0 * a * src[i]
        rhs[S.GT[i]] = Gt_rhs[i]

    # --- B^i (Eq. 3): ∂_t B^i = ∂_t Γ̃^i − η B^i + β^j ∂_j B^i − β^j ∂_j Γ̃^i
    for i in range(3):
        rhs[S.B[i]] = (
            Gt_rhs[i]
            - params.eta * Bv[i]
            + params.lambda3 * adv_scalar(S.B[i])
            - params.lambda4 * adv_scalar(S.GT[i])
        )

    return rhs


def array_accessors(values: np.ndarray, derivs: Derivs, params: BSSNParams):
    """The ``(get, d1, adv, d2)`` accessors of :func:`algebraic_rhs_exprs`
    over arrays: ``values`` the 24 variables on patch interiors, shape
    ``(24, n, r, r, r)``, and their ``derivs``; ``get`` floors χ."""
    chi_floored = np.maximum(values[S.CHI], params.chi_floor)

    def get(var):
        return chi_floored if var == S.CHI else values[var]

    return get, derivs.first, derivs.advective, derivs.second


def evaluate_algebraic(
    values: np.ndarray, derivs: Derivs, params: BSSNParams
) -> np.ndarray:
    """Reference (hand-vectorised NumPy) evaluation of the A component on
    :func:`array_accessors`.  The expression evaluation allocates (it is
    the readable reference; the generated kernels are the fused form).
    """
    exprs = algebraic_rhs_exprs(*array_accessors(values, derivs, params),
                                params)
    rhs = np.empty_like(values)
    for v, e in enumerate(exprs):
        rhs[v] = e
    return rhs


def add_ko_dissipation(rhs: np.ndarray, derivs: Derivs, params: BSSNParams) -> None:
    """Add σ·KO to every equation (in place)."""
    rhs += params.ko_sigma * derivs.ko


def bssn_rhs(
    patches: np.ndarray,
    h,
    params: BSSNParams | None = None,
    *,
    pd: PatchDerivatives | None = None,
    algebra=None,
    prof=NO_PROFILER,
) -> np.ndarray:
    """Full RHS evaluation on padded patches: D then A then KO.

    ``patches``: (24, n, P, P, P); ``h``: scalar or per-octant array.
    ``algebra`` may be swapped for a generated kernel (paper's SymPyGR /
    binary-reduce / staged+CSE variants).  ``prof`` (a
    :class:`repro.perf.StepProfiler`) times D under ``deriv``, the
    interior copy under ``zip`` and A + KO under ``algebra``.  This is
    the ``backend="numpy"`` BSSN chunk kernel.
    """
    if params is None:
        params = BSSNParams()
    if pd is None:
        pd = PatchDerivatives(k=3)
    with prof.phase("deriv"):
        derivs = compute_derivatives(patches, h, params, pd)
    k = pd.k
    r = patches.shape[-1] - 2 * k
    with prof.phase("zip"):
        values = np.ascontiguousarray(
            patches[:, :, k : k + r, k : k + r, k : k + r]
        )
    with prof.phase("algebra"):
        fn = algebra if algebra is not None else evaluate_algebraic
        rhs = fn(values, derivs, params)
        add_ko_dissipation(rhs, derivs, params)
    return rhs
