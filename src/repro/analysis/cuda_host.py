"""Execution check of the emitted CUDA: the dynamic half of the dataflow
gate.

:func:`~repro.analysis.dataflow.verify_spec` proves a schedule
well-formed; this runs the text :func:`repro.codegen.emit_cuda` lowers
it to — compiled for the host by :mod:`repro.codegen.cuda_emit` —
against the NumPy execution of the same schedule.  Compiling catches what
a symbol-table replay of the text would (an undeclared or redeclared
name), the NaN poison an output never stored, the comparison everything
else.
"""

from __future__ import annotations

import numpy as np

from repro.bssn import state as S
from repro.codegen.cuda_emit import LAUNCH_BOUNDS, build_on_host, run_on_host
from repro.codegen.generators import KernelSpec, compile_kernel
from repro.codegen.lowering import is_bitwise_lowerable
from repro.codegen.symbols import bind_inputs


def sample_env() -> dict:
    """A-kernel inputs at the 8 x 343 points of a uniform grid around one
    boosted puncture: every value and derivative non-trivial, χ small
    near the puncture."""
    from repro.bssn import (
        BSSNParams, Puncture, compute_derivatives, mesh_puncture_state,
    )
    from repro.fd import PatchDerivatives
    from repro.mesh import Mesh
    from repro.octree import LinearOctree

    mesh = Mesh(LinearOctree.uniform(1))
    patches = mesh.unzip(mesh_puncture_state(
        mesh, [Puncture(1.0, [0.3, 0.1, -0.2], momentum=[0.0, 0.1, 0.0])]))
    params = BSSNParams()
    derivs = compute_derivatives(patches, mesh.dx, params,
                                 PatchDerivatives(k=mesh.k))
    core = slice(mesh.k, mesh.k + mesh.r)
    values = np.ascontiguousarray(patches[:, :, core, core, core])
    return bind_inputs(values, derivs, params,
                       np.maximum(values[S.CHI], params.chi_floor))


def check_cuda_on_host(spec: KernelSpec, cuda_src: str | None = None) -> dict:
    """Build and run one variant's CUDA (``cuda_src``, default the
    emitted text) on the host against the NumPy execution of the same
    schedule, both on :func:`sample_env`.

    ``ok`` needs every output stored (no NaN left of the poison) and the
    outputs ``np.array_equal`` to NumPy's where the schedule
    :func:`~repro.codegen.lowering.is_bitwise_lowerable`; elsewhere the
    CUDA policy spells a ``** -n`` as ``1.0 / (x*x…)`` where NumPy calls
    ``pow``, a last-ulp difference per use that cancellation downstream
    amplifies, bounded here by 1e-12 relative at every point.  Raises
    :class:`~repro.codegen.ToolchainError` without cffi + cc or when the
    text does not compile.
    """
    env = sample_env()
    lib = build_on_host(spec, cuda_src)
    out, run_seconds = run_on_host(lib, spec, env)
    ref = np.stack([np.ravel(o) for o in compile_kernel(spec)(env)])
    differ = out != ref
    with np.errstate(divide="ignore"):
        max_rel = float(np.max(
            np.abs(out - ref)[differ] / np.abs(ref)[differ], initial=0.0))
    bound = 0.0 if is_bitwise_lowerable(spec)[0] else 1e-12
    return {
        "build_seconds": lib.compile_seconds,
        "run_seconds": run_seconds,
        "octants": out.shape[1] // LAUNCH_BOUNDS[0],
        "written": not np.isnan(out).any(),
        "max_rel": max_rel,
        "ok": max_rel <= bound,
    }
