"""BSSN state vector layout: the 24 evolution variables of paper §III-A.

Variable order (indices into the leading axis of the state array):

====  =========  =================================================
idx   symbol     meaning
====  =========  =================================================
0     α          lapse
1-3   β^i        shift
4-6   B^i        Gamma-driver auxiliary
7     χ          conformal factor (γ_ij = γ̃_ij / χ)
8     K          trace of extrinsic curvature
9-11  Γ̃^i       conformal connection functions
12-17 γ̃_ij      conformal metric (symmetric, xx xy xz yy yz zz)
18-23 Ã_ij       conformal trace-free extrinsic curvature (same order)
====  =========  =================================================
"""

from __future__ import annotations

import numpy as np

NUM_VARS = 24

ALPHA = 0
BETA0, BETA1, BETA2 = 1, 2, 3
B0, B1, B2 = 4, 5, 6
CHI = 7
K = 8
GT0, GT1, GT2 = 9, 10, 11
GT11, GT12, GT13, GT22, GT23, GT33 = 12, 13, 14, 15, 16, 17
AT11, AT12, AT13, AT22, AT23, AT33 = 18, 19, 20, 21, 22, 23

BETA = (BETA0, BETA1, BETA2)
B = (B0, B1, B2)
GT = (GT0, GT1, GT2)
GT_SYM = (GT11, GT12, GT13, GT22, GT23, GT33)
AT_SYM = (AT11, AT12, AT13, AT22, AT23, AT33)

#: contiguous slices of the symmetric blocks (zero-copy views of the state)
GT_SYM_SLICE = slice(GT11, GT33 + 1)
AT_SYM_SLICE = slice(AT11, AT33 + 1)

#: map (i, j) with i,j in 0..2 -> flat symmetric index 0..5
SYM_IDX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]], dtype=np.int64)

VAR_NAMES = [
    "alpha",
    "beta0", "beta1", "beta2",
    "B0", "B1", "B2",
    "chi",
    "K",
    "Gt0", "Gt1", "Gt2",
    "gt11", "gt12", "gt13", "gt22", "gt23", "gt33",
    "At11", "At12", "At13", "At22", "At23", "At33",
]

#: variables that need all second derivatives (paper §IV-B: α, β^i, χ, γ̃_ij
#: -> 11 variables x 6 second derivatives = 66)
SECOND_DERIV_VARS = (ALPHA, BETA0, BETA1, BETA2, CHI) + GT_SYM

#: derivative budget of one RHS evaluation (paper §IV-B):
#: 72 first + 66 second + 72 KO = 210
NUM_FIRST_DERIVS = 3 * NUM_VARS
NUM_SECOND_DERIVS = 6 * len(SECOND_DERIV_VARS)
NUM_KO_DERIVS = 3 * NUM_VARS
NUM_DERIVS = NUM_FIRST_DERIVS + NUM_SECOND_DERIVS + NUM_KO_DERIVS


def flat_metric_state(shape: tuple[int, ...]) -> np.ndarray:
    """Minkowski initial state: α = 1, χ = 1, γ̃ = δ, everything else 0."""
    u = np.zeros((NUM_VARS,) + shape)
    u[ALPHA] = 1.0
    u[CHI] = 1.0
    u[GT11] = 1.0
    u[GT22] = 1.0
    u[GT33] = 1.0
    return u
