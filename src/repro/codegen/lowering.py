"""Shared scalar lowering of instruction schedules.

One schedule, two textual renderings: the C row-vector kernel
(:mod:`repro.codegen.cbackend`) and the CUDA thread kernel
(:mod:`repro.codegen.cuda_emit`) both lower the *same* dataflow-verified
:class:`~repro.codegen.generators.KernelSpec` statement stream.  This
module holds what they share: input classification, the ``**``
translation policies, and the one walk of the A stage, :func:`a_stage` —
value loads, derivative loads, the lowered statements, output stores —
which each emitter parameterises with a :class:`Dialect` row saying how
its language spells those four kinds of line (C: ``ld`` / ``const v8`` /
``bc()`` literals / ``st`` + KO add; CUDA: ``u[i][pp]`` / ``d[i][pp]`` /
``out[i][pp]``).

Bitwise contract
----------------
The generated schedules (after ``_binarize``) contain only ``+ - * /``
and ``** e`` for non-trivial exponents.  Elementary IEEE-754 operations
are exactly rounded, so any backend that executes the same statements
with the same scalar types agrees with the NumPy execution *bitwise* —
per statement, per point.  The only escape hatch is ``pow``: NumPy
dispatches large-array ``** e`` to a SIMD implementation that differs
from libm at the last ulp, which is why ``_binarize`` expands small
integer exponents into multiplies and a division, and why
:func:`is_bitwise_lowerable` reports any residual ``pow`` fallback.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from repro.bssn import state as S
from .generators import KernelSpec
from .regalloc import is_register_input
from .symbols import PARAM_SYMBOLS

_POW_RE = re.compile(r"(\w+) \*\* ([-\d.e]+)")

#: exponents each policy can translate to an exactly-rounded form
_EXACT_EXPONENTS = (-1.0, 0.5)


def _pow_cuda(base: str, exp: float) -> str:
    """CUDA policy: fast device forms (rsqrt, reciprocal chains)."""
    if exp == -1.0:
        return f"(1.0 / {base})"
    if exp == 0.5:
        return f"sqrt({base})"
    if exp == -0.5:
        return f"rsqrt({base})"
    if exp == int(exp) and -4 <= exp < 0:
        reps = "*".join([base] * int(-exp))
        return f"(1.0 / ({reps}))"
    return f"pow({base}, {exp})"


def _pow_exact(base: str, exp: float) -> str:
    """C policy: only exactly-rounded rewrites (division, sqrt), so the
    result bit-matches NumPy's ufunc execution; anything else falls back
    to libm ``pow`` (flagged by :func:`is_bitwise_lowerable`)."""
    if exp == -1.0:
        return f"(1.0 / {base})"
    if exp == 0.5:
        return f"sqrt({base})"
    return f"pow({base}, {exp})"


_POLICIES = {"cuda": _pow_cuda, "c": _pow_exact}


def classify_inputs(spec: KernelSpec) -> tuple[list[str], list[str], list[str]]:
    """``(values, derivs, params)`` actually referenced by the schedule,
    each sorted by name (the derivative order is the CUDA kernel's
    ``d[i]`` pointer ABI)."""
    used = sorted(
        {n for st in spec.statements for n in st.inputs if n in spec.input_names}
    )
    derivs = [n for n in used if is_register_input(n)]
    values = [n for n in used
              if not is_register_input(n) and n not in PARAM_SYMBOLS]
    params = [n for n in used if n in PARAM_SYMBOLS]
    return values, derivs, params


def lowered_statements(spec: KernelSpec, policy: str):
    """Yield ``("decl", target, expr)`` / ``("out", var, expr)`` tuples,
    one per schedule statement, with ``**`` translated by ``policy``."""
    spell = _POLICIES[policy]
    for st in spec.statements:
        expr = _POW_RE.sub(
            lambda m: spell(m.group(1), float(m.group(2))), st.src)
        if st.is_output:
            yield ("out", st.output_var, expr)
        else:
            yield ("decl", st.target, expr)


class Dialect(NamedTuple):
    """How one target language spells the four kinds of A-stage line."""

    policy: str                       #: key of the ``**`` translation table
    value: Callable[[str, int], str]  #: (name, evolution-variable index)
    deriv: Callable[[str, int], str]  #: (name, position among the derivs)
    decl: Callable[[str, str], str]   #: (temporary, lowered expression)
    out: Callable[[int, str], str]    #: (output variable, lowered expression)


def a_stage(spec: KernelSpec, dialect: Dialect, indent: int) -> list[str]:
    """The A stage of one point (C: of one row vector) in ``dialect``:
    every value load, every derivative load, then the schedule statement
    for statement, each line indented by ``indent`` spaces."""
    values, derivs, _ = classify_inputs(spec)
    lines = [dialect.value(name, S.VAR_NAMES.index(name)) for name in values]
    lines += [dialect.deriv(name, i) for i, name in enumerate(derivs)]
    for kind, target, expr in lowered_statements(spec, dialect.policy):
        spell = dialect.out if kind == "out" else dialect.decl
        lines.append(spell(target, expr))
    return [" " * indent + line for line in lines]


def is_bitwise_lowerable(spec: KernelSpec) -> tuple[bool, list[str]]:
    """Whether the "c" lowering of this schedule is bitwise-exact
    against NumPy execution; returns ``(ok, offending_exponent_srcs)``."""
    offenders = []
    for st in spec.statements:
        for m in _POW_RE.finditer(st.src):
            if float(m.group(2)) not in _EXACT_EXPONENTS:
                offenders.append(st.src)
    return (not offenders, offenders)
