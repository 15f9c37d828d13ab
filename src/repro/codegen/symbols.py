"""Symbol registry for BSSN code generation (paper §IV-B).

The A component is a map from 234 inputs (24 variables + 210 derivative
values) to 24 outputs.  Each input gets a SymPy symbol; at execution time
the same names are bound to the NumPy arrays held by a
:class:`repro.bssn.rhs.Derivs` container.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from repro.bssn import state as S
from repro.bssn.rhs import _SYM_PAIRS, BSSNParams, Derivs
from .spec import PARAM_NAMES

#: parameter symbols appearing in the generated kernels
PARAM_SYMBOLS = {name: sp.Symbol(name) for name in PARAM_NAMES}


class SymbolicParams:
    """Duck-typed stand-in for :class:`BSSNParams` built from symbols."""

    eta = PARAM_SYMBOLS["p_eta"]
    gauge_f = PARAM_SYMBOLS["p_gauge_f"]
    lambda1 = PARAM_SYMBOLS["p_lambda1"]
    lambda2 = PARAM_SYMBOLS["p_lambda2"]
    lambda3 = PARAM_SYMBOLS["p_lambda3"]
    lambda4 = PARAM_SYMBOLS["p_lambda4"]
    lapse_c1 = PARAM_SYMBOLS["p_lapse_c1"]
    lapse_c2 = PARAM_SYMBOLS["p_lapse_c2"]


def value_name(var: int) -> str:
    """Symbol name of an evolution variable."""
    return S.VAR_NAMES[var]


def grad_name(var: int, d: int) -> str:
    """Symbol name of a first derivative."""
    return f"grad_{d}_{S.VAR_NAMES[var]}"


def agrad_name(var: int, d: int) -> str:
    """Symbol name of an advective derivative."""
    return f"agrad_{d}_{S.VAR_NAMES[var]}"


def grad2_name(var: int, a: int, b: int) -> str:
    """Symbol name of a second derivative."""
    a, b = min(a, b), max(a, b)
    return f"grad2_{a}_{b}_{S.VAR_NAMES[var]}"


def input_symbols() -> dict[str, sp.Symbol]:
    """All 234 input symbols, keyed by name."""
    out: dict[str, sp.Symbol] = {}
    for v in range(S.NUM_VARS):
        out[value_name(v)] = sp.Symbol(value_name(v))
        for d in range(3):
            out[grad_name(v, d)] = sp.Symbol(grad_name(v, d))
            out[agrad_name(v, d)] = sp.Symbol(agrad_name(v, d))
    for v in S.SECOND_DERIV_VARS:
        for a, b in _SYM_PAIRS:
            out[grad2_name(v, a, b)] = sp.Symbol(grad2_name(v, a, b))
    return out


def bind_inputs(
    values: np.ndarray, derivs: Derivs, params: BSSNParams, chi_floored: np.ndarray
) -> dict[str, np.ndarray | float]:
    """Runtime environment mapping every symbol name to its array."""
    env: dict[str, np.ndarray | float] = {}
    for v in range(S.NUM_VARS):
        env[value_name(v)] = chi_floored if v == S.CHI else values[v]
        for d in range(3):
            env[grad_name(v, d)] = derivs.d1[v, d]
            env[agrad_name(v, d)] = derivs.adv[v, d]
    for v in S.SECOND_DERIV_VARS:
        for a, b in _SYM_PAIRS:
            env[grad2_name(v, a, b)] = derivs.second(v, a, b)
    for name in PARAM_NAMES:
        env[name] = getattr(params, name[2:])
    return env
