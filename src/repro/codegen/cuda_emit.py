"""CUDA-C source emission for the generated A-component kernels, and
their execution on the host.

The paper's pipeline emits CUDA device code from the SymPy expressions
(SymPyGR); :func:`emit_cuda` produces the equivalent ``.cu`` text from
our :class:`KernelSpec` schedules — one scalar statement per line, with
the paper's launch bounds and the derivative inputs read from the
thread-local arrays the D stage populates.  The A kernel is pointwise
(no ``__syncthreads``, no shared memory), so the reproduction
environment, which has no nvcc, still runs that text:
:func:`build_on_host` puts a shim in front of it that defines the few
names it takes from the CUDA toolchain and a ``launch`` loop behind it
that plays the grid — one call per thread — and compiles the unit with
the host compiler through :func:`~repro.codegen.cbackend.build_native_lib`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bssn import state as S
from .cbackend import NativeLib, build_native_lib
from .spec import KernelSpec
from .lowering import Dialect, a_stage, classify_inputs

LAUNCH_BOUNDS = (343, 3)  # the paper's __launch_bounds__(343, 3)

_CUDA_DIALECT = Dialect(
    policy="cuda",
    value=lambda name, idx: f"const double {name} = u[{idx}][pp];",
    deriv=lambda name, i: f"const double {name} = d[{i}][pp];",
    decl=lambda tgt, expr: f"const double {tgt} = {expr};",
    out=lambda var, expr: (
        f"out[{var}][pp] = {expr};  // {S.VAR_NAMES[var]}_rhs"),
)


def _kernel_name(spec: KernelSpec) -> str:
    return "bssn_rhs_A_" + spec.variant.replace("-", "_")


def emit_cuda(spec: KernelSpec) -> str:
    """Full CUDA-C translation unit for one variant's A kernel (nvcc
    includes ``cuda_runtime.h`` in every ``.cu`` file itself)."""
    params = classify_inputs(spec)[2]
    lines = [
        "// generated by repro.codegen.cuda_emit — do not edit",
        f"// variant: {spec.variant}; {len(spec.statements)} statements,",
        f"// {spec.total_flops} flops/point, input defs: {spec.input_defs}",
        "",
        f"__global__ __launch_bounds__({LAUNCH_BOUNDS[0]}, {LAUNCH_BOUNDS[1]})",
        f"void {_kernel_name(spec)}(",
        "    double* __restrict__ const* out,      // 24 x npts RHS",
        "    const double* __restrict__ const* u,  // 24 x npts variables",
        "    const double* __restrict__ const* d,  // thread-local derivative views",
    ]
    for p in params:
        lines.append(f"    const double {p},")
    lines[-1] = lines[-1].rstrip(",") + ")"
    lines.append("{")
    lines.append("    const unsigned pp = blockIdx.x * blockDim.x + threadIdx.x;")
    lines += a_stage(spec, _CUDA_DIALECT, indent=4)
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CUDA on the host
# ---------------------------------------------------------------------------

#: what the emitted text takes from the CUDA toolchain (``__restrict__``
#: is a keyword of the host compilers already)
_HOST_SHIM = """\
#include <math.h>
#define __global__ static
#define __launch_bounds__(threads, blocks)
#define rsqrt(x) (1.0 / sqrt(x))
static struct { unsigned x; } blockIdx, blockDim, threadIdx;
"""

#: the grid on the host: thread ``pp`` of ``ceil(npts / 343)`` blocks is
#: one call; ``out`` / ``u`` / ``d`` are tables of ``npts``-point rows
_LAUNCH = """
void launch(long npts, double* const* out, const double* const* u,
            const double* const* d, const double* params)"""


def build_on_host(spec: KernelSpec, cuda_src: str | None = None) -> NativeLib:
    """Compile ``cuda_src`` (default: :func:`emit_cuda` of ``spec``) for
    the host; raises :class:`~repro.codegen.cbackend.ToolchainError`
    without cffi + cc or when the text does not compile."""
    if cuda_src is None:
        cuda_src = emit_cuda(spec)
    args = "".join(
        f", params[{j}]" for j in range(len(classify_inputs(spec)[2])))
    launcher = f"""{_LAUNCH}
{{
    blockDim.x = {LAUNCH_BOUNDS[0]};
    for (long pp = 0; pp < npts; ++pp) {{
        blockIdx.x = pp / blockDim.x;
        threadIdx.x = pp % blockDim.x;
        {_kernel_name(spec)}(out, u, d{args});
    }}
}}
"""
    return build_native_lib(_HOST_SHIM + cuda_src + launcher,
                            _LAUNCH + ";", f"cuda-{spec.variant}")


def run_on_host(lib: NativeLib, spec: KernelSpec,
                env: dict) -> tuple[np.ndarray, float]:
    """Launch the built kernel over the points of ``env`` — the
    name → array environment :func:`~repro.codegen.backends.compile_kernel`
    kernels take.  Returns the ``(24, npts)`` outputs, NaN wherever the
    kernel stored nothing, and the seconds the launch took."""
    values, derivs, params = classify_inputs(spec)
    d = np.stack([np.ravel(env[name]) for name in derivs])
    u = np.zeros((S.NUM_VARS, d.shape[1]))
    for name in values:
        u[S.VAR_NAMES.index(name)] = np.ravel(env[name])
    p = np.array([env[name] for name in params], dtype=np.float64)
    out = np.full_like(u, np.nan)
    tables = [lib.ffi.new("double*[]", [lib.ptr(row) for row in a])
              for a in (out, u, d)]
    t0 = time.perf_counter()
    lib.lib.launch(d.shape[1], *tables, lib.ptr(p))
    return out, time.perf_counter() - t0
