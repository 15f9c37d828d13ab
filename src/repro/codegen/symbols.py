"""Symbol registry for BSSN code generation (paper §IV-B).

The A component is a map from 234 inputs (24 variables + 210 derivative
values) to 24 outputs.  Each input gets a SymPy symbol, named by
:mod:`repro.codegen.spec`; at execution time the same names are bound to
the NumPy arrays held by a :class:`repro.bssn.rhs.Derivs` container
(:func:`repro.codegen.backends.bind_inputs`).
"""

from __future__ import annotations

import sympy as sp

from repro.bssn import state as S
from repro.bssn.rhs import _SYM_PAIRS
from .spec import PARAM_NAMES, agrad_name, grad2_name, grad_name, value_name

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
