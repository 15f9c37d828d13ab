"""E4 — Fig. 11: time per octant for 10 RHS evaluations, three codegen
variants, vs octant count (model-predicted A100 times driven by each
variant's measured flop and spill traffic), and the same three kernels'
emitted CUDA measured on the host."""

import numpy as np
import pytest
from conftest import write_table

from repro.codegen import VARIANTS
from repro.gpu import A100, kernel_time, rhs_stats
from repro.parallel import DEFAULT_O_A

OCTANT_COUNTS = [400, 1352, 2360, 5384, 9304]  # the paper's grid sizes


def _time_per_octant(variant, spill_stats, n_oct):
    st = spill_stats[variant]
    s = rhs_stats(
        n_oct,
        o_a=DEFAULT_O_A,
        spill_bytes_per_point=float(st.spill_bytes),
    )
    return 10.0 * kernel_time(s, A100) / n_oct


def test_fig11_rhs_codegen_variants(benchmark, spill_stats):
    lines = [
        "Fig. 11: modeled time per octant for 10 RHS evaluations (ms)",
        f"{'octants':>8}" + "".join(f"{v:>16}" for v in VARIANTS),
    ]
    rows = {}
    for n in OCTANT_COUNTS:
        vals = [_time_per_octant(v, spill_stats, n) * 1e3 for v in VARIANTS]
        rows[n] = dict(zip(VARIANTS, vals))
        lines.append(f"{n:>8}" + "".join(f"{v:>16.4f}" for v in vals))
    sgr = np.mean([rows[n]["sympygr"] for n in OCTANT_COUNTS])
    br = np.mean([rows[n]["binary-reduce"] for n in OCTANT_COUNTS])
    stg = np.mean([rows[n]["staged-cse"] for n in OCTANT_COUNTS])
    lines.append(
        f"average speedups vs SymPyGR: binary-reduce {sgr / br:.2f}x "
        f"(paper 1.55x), staged+CSE {sgr / stg:.2f}x (paper 1.76x)"
    )
    print("\n" + write_table("fig11_rhs_codegen", lines))

    # who-wins ordering as in the paper
    assert stg < br < sgr
    assert 1.1 < sgr / br < 2.2
    assert 1.3 < sgr / stg < 2.4

    benchmark(lambda: _time_per_octant("staged-cse", spill_stats, 2360))


def test_fig11_cuda_on_host_series():
    """Measured row beside the modelled one: each variant's emitted CUDA
    A kernel, compiled for the host (``codegen.cuda_emit``) and launched
    over 8 octants — best of five launches, as time per octant for 10
    evaluations.  The gate is only that all three ran and agree with the
    NumPy execution of their schedule; whether the schedule order that
    decides spills under ``__launch_bounds__(343, 3)`` survives a host
    compiler that re-schedules is a finding (EXPERIMENTS E-cuda-on-host)."""
    from repro.analysis.cuda_host import check_cuda_on_host, sample_env
    from repro.codegen import get_kernel_spec, probe_cffi
    from repro.codegen.cuda_emit import build_on_host, run_on_host

    if probe_cffi() is None:
        pytest.skip("no cffi + C compiler: the emitted CUDA is not run")

    env = sample_env()
    per_octant = {}
    lines = [
        "Fig. 11 (measured, CUDA A kernel on the host): time per octant "
        "for 10 evaluations (ms)",
        f"{'variant':>16}{'build s':>10}{'ms/octant':>12}{'max rel':>11}",
    ]
    for variant in VARIANTS:
        spec = get_kernel_spec(variant)
        check = check_cuda_on_host(spec)
        assert check["ok"]
        lib = build_on_host(spec)
        best = min(run_on_host(lib, spec, env)[1] for _ in range(5))
        per_octant[variant] = 10.0 * best / check["octants"] * 1e3
        lines.append(
            f"{variant:>16}{check['build_seconds']:>10.2f}"
            f"{per_octant[variant]:>12.4f}{check['max_rel']:>11.1e}")
    sgr = per_octant["sympygr"]
    lines.append(
        f"measured speedups vs SymPyGR: binary-reduce "
        f"{sgr / per_octant['binary-reduce']:.2f}x (paper 1.55x), "
        f"staged+CSE {sgr / per_octant['staged-cse']:.2f}x (paper 1.76x)")
    print("\n" + write_table("fig11_cuda_on_host", lines))


def test_fig11_compiled_backend_series(benchmark):
    """Measured series for the ``compiled`` variant (PR 6): wall-clock
    time per octant for 10 full RHS evaluations of the native fused
    kernel vs the NumPy kernel's execution of the same schedule.  Unlike
    the modeled A100 rows above (which would be identical for
    ``compiled`` — it lowers the staged-cse schedule verbatim, so its
    flop/spill profile is the staged-cse row), this row is real host
    execution."""
    import time

    from repro.bssn import Puncture, mesh_puncture_state
    from repro.codegen import COMPILED_VARIANT, get_algebra_kernel
    from repro.codegen.backends import native_impl
    from repro.mesh import Mesh
    from repro.octree import LinearOctree
    from repro.solver import BSSNSolver

    if native_impl() is None:
        pytest.skip("compiled backend unavailable (no cffi or C compiler)")

    mesh = Mesh(LinearOctree.uniform(2))
    u = mesh_puncture_state(mesh, [Puncture(1.0, [0.2, 0.1, 0.0])])
    numpy_solver = BSSNSolver(
        mesh, algebra=get_algebra_kernel(COMPILED_VARIANT)
    )
    compiled_solver = BSSNSolver(mesh, backend="compiled")

    def ten_rhs(solver):
        out = solver.full_rhs(u, 0.0)
        t0 = time.perf_counter()
        for _ in range(10):
            out = solver.full_rhs(u, 0.0, out=out)
        return time.perf_counter() - t0, out

    t_np, rhs_np = ten_rhs(numpy_solver)
    t_c, rhs_c = ten_rhs(compiled_solver)
    assert np.array_equal(rhs_np, rhs_c)  # bitwise: same schedule, same order

    per_oct_np = t_np / mesh.num_octants * 1e3
    per_oct_c = t_c / mesh.num_octants * 1e3
    lines = [
        "Fig. 11 (measured host series): time per octant, 10 RHS evals (ms)",
        f"{'octants':>8}{'numpy[staged-cse]':>20}{'compiled':>16}{'speedup':>10}",
        f"{mesh.num_octants:>8}{per_oct_np:>20.4f}{per_oct_c:>16.4f}"
        f"{t_np / t_c:>10.2f}x",
        f"native impl: {native_impl()}",
    ]
    print("\n" + write_table("fig11_compiled_backend", lines))
    assert t_c < t_np  # the native kernel must beat the NumPy one

    benchmark(lambda: compiled_solver.full_rhs(u, 0.0, out=rhs_c))


def test_fig11_real_kernel_execution(benchmark):
    """Real (Python) execution of the staged kernel on a small batch —
    correctness-bearing path for the modeled numbers above."""
    from repro.bssn import Puncture, bssn_rhs, mesh_puncture_state
    from repro.codegen import get_algebra_kernel
    from repro.mesh import Mesh
    from repro.octree import LinearOctree

    mesh = Mesh(LinearOctree.uniform(2))
    u = mesh_puncture_state(mesh, [Puncture(1.0, [0.2, 0.1, 0.0])])
    patches = mesh.unzip(u)
    alg = get_algebra_kernel("staged-cse")
    result = benchmark.pedantic(
        lambda: bssn_rhs(patches, mesh.dx, algebra=alg), rounds=2, iterations=1
    )
    assert np.isfinite(result).all()
