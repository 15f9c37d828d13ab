"""Registry of hot-path functions covered by the allocation lint.

PR 1 made the RK4 step path (unzip → derivatives → RHS algebra →
boundary → zip → AXPY) allocation-free once the per-mesh workspace is
warm.  That discipline is enforced *statically* by
:mod:`repro.analysis.alloclint`, which walks the AST of every function
registered here and flags allocation calls and operator expressions that
materialise array temporaries.

The :func:`hot_path` decorator is free at runtime — it records the
function in :data:`HOT_REGISTRY` and returns it unchanged.  Intentional
allocations (poolless reference branches, ``out=None``
fallbacks) carry an ``# alloc-ok`` comment on the offending line, which
the lint treats as an explicit, reviewed exemption.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: ``"module:qualname" -> function`` for every registered hot function
HOT_REGISTRY: dict[str, Callable] = {}

#: modules that register hot paths on import (the lint imports these so
#: the registry is complete even from a cold interpreter)
HOT_MODULES = (
    "repro.fd.derivatives",
    "repro.mesh.interp",
    "repro.mesh.octant_to_patch",
    "repro.bssn.rhs",
    "repro.bssn.sommerfeld",
    "repro.solver.base",
    "repro.solver.rk4",
    "repro.solver.wave_solver",
    "repro.solver.bssn_solver",
    "repro.resilience.health",
    "repro.codegen.backends",
    "repro.parallel.distributed",
)


def hot_path(fn: F) -> F:
    """Mark ``fn`` as part of the zero-allocation step path (no-op at
    runtime; registration only)."""
    HOT_REGISTRY[f"{fn.__module__}:{fn.__qualname__}"] = fn
    fn.__hot_path__ = True  # type: ignore[attr-defined]
    return fn


def registered_hot_paths() -> dict[str, Callable]:
    """The full registry, after importing every known hot module."""
    import importlib

    for mod in HOT_MODULES:
        importlib.import_module(mod)
    return dict(HOT_REGISTRY)
