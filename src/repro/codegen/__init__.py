"""SymPy-based RHS code generation (paper §IV-B, Table II, Figs. 10–11)."""

from .backends import (
    BackendUnavailableError,
    NativeBSSNRHS,
    NativeWaveRHS,
    backend_info,
    probe_cffi,
    resolve_backend,
)
from .cbackend import ToolchainError, build_native_lib, emit_c_source
from .cuda_emit import emit_cuda
from .equations import symbolic_rhs
from .generators import (
    ALL_VARIANTS,
    COMPILED_VARIANT,
    VARIANTS,
    KernelSpec,
    compile_kernel,
    emit_source,
    generate_binary_reduce,
    generate_staged_cse,
    generate_sympygr,
    get_algebra_kernel,
    get_kernel_spec,
)
from .graph import ExprDag, build_dag, line_graph_schedule
from .regalloc import (
    DEFAULT_BUDGET,
    SpillStats,
    Statement,
    analyze_schedule,
    max_live_values,
)

__all__ = [
    "ALL_VARIANTS",
    "COMPILED_VARIANT",
    "DEFAULT_BUDGET",
    "BackendUnavailableError",
    "NativeBSSNRHS",
    "NativeWaveRHS",
    "ToolchainError",
    "backend_info",
    "build_native_lib",
    "emit_c_source",
    "probe_cffi",
    "resolve_backend",
    "ExprDag",
    "KernelSpec",
    "SpillStats",
    "Statement",
    "VARIANTS",
    "analyze_schedule",
    "build_dag",
    "compile_kernel",
    "emit_cuda",
    "emit_source",
    "generate_binary_reduce",
    "generate_staged_cse",
    "generate_sympygr",
    "get_algebra_kernel",
    "get_kernel_spec",
    "line_graph_schedule",
    "max_live_values",
    "symbolic_rhs",
]
