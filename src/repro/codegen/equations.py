"""Symbolic BSSN RHS expressions.

The expressions are produced by the *same* generic function
(:func:`repro.bssn.rhs.algebraic_rhs_exprs`) that drives the reference
NumPy evaluation — fed with SymPy symbols instead of arrays — so the
generated kernels agree with the reference by construction (this mirrors
how SymPyGR derives the Dendro-GR kernels from one symbolic source).
"""

from __future__ import annotations

from functools import lru_cache

import sympy as sp

from repro.bssn.rhs import algebraic_rhs_exprs
from .symbols import (
    SymbolicParams,
    agrad_name,
    grad2_name,
    grad_name,
    input_symbols,
    value_name,
)


@lru_cache(maxsize=1)
def symbolic_rhs() -> tuple[list[sp.Expr], dict[str, sp.Symbol]]:
    """(24 RHS expressions, input symbol registry)."""
    syms = input_symbols()

    def get(var):
        return syms[value_name(var)]

    def d1(var, d):
        return syms[grad_name(var, d)]

    def adv(var, d):
        return syms[agrad_name(var, d)]

    def d2(var, a, b):
        return syms[grad2_name(var, a, b)]

    exprs = algebraic_rhs_exprs(get, d1, adv, d2, SymbolicParams())
    return [sp.sympify(e) for e in exprs], syms
