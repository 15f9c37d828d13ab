"""SymPy-based RHS code generation (paper §IV-B, Table II, Figs. 10–11).

The public names below resolve lazily, on first use, from the submodule
that defines them: importing the package (or a run-path submodule such as
:mod:`.backends`, which reads the cached schedule through :mod:`.spec`)
loads neither SymPy nor NetworkX; only :mod:`.generators`, :mod:`.graph`,
:mod:`.equations` and :mod:`.symbols` do.
"""

import importlib

_EXPORTS = {
    ".backends": ("BackendUnavailableError", "NativeBSSNRHS", "NativeWaveRHS",
                  "backend_info", "compile_kernel", "emit_source",
                  "get_algebra_kernel", "probe_cffi", "resolve_backend"),
    ".cbackend": ("ToolchainError", "build_native_lib", "emit_c_source"),
    ".cuda_emit": ("emit_cuda",),
    ".equations": ("symbolic_rhs",),
    ".generators": ("generate_binary_reduce", "generate_staged_cse",
                    "generate_sympygr"),
    ".graph": ("ExprDag", "build_dag", "line_graph_schedule"),
    ".regalloc": ("DEFAULT_BUDGET", "SpillStats", "Statement",
                  "analyze_schedule", "max_live_values"),
    ".spec": ("ALL_VARIANTS", "COMPILED_VARIANT", "VARIANTS", "KernelSpec",
              "get_kernel_spec"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(mod, __name__), name)
    globals()[name] = value
    return value
