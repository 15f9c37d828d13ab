"""E-hotpath — the RK4 hot path: steps/sec, peak allocation, and the
Fig.-20-style per-phase breakdown of the one step pipeline.

Two series on the same BBH-style grid and initial data, one per chunk
kernel (``repro.codegen.backends``):

* ``numpy``    — ``backend="numpy"``: einsum stencil sweeps + ``out=``
  algebra on the workspace arena;
* ``compiled`` — ``backend="compiled"``: the single-pass native chunk
  kernel replaces the per-operator NumPy D+A+KO stages (only when numba
  or cffi+cc is available on the host).

``compiled`` differs from ``numpy`` only by the generated schedule's
statement order vs the hand-vectorised reference A kernel (reported as
a relative deviation; the compiled backend is bitwise-identical to the
*numpy execution of the same schedule* — that stronger check lives in
tests/test_backends.py).  The pre-arena ``legacy``/``fused`` drivers
this benchmark used to time were deleted with the options that selected
them; their last measurements are the historical rows of EXPERIMENTS.md
E-hotpath and ``baselines/hotpath_compiled_baseline.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_solver_hotpath.py --quick \
        --json benchmarks/output/hotpath.json

or via pytest (quick mode): ``pytest benchmarks/bench_solver_hotpath.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
import tracemalloc

import numpy as np

from repro.bssn import Puncture
from repro.mesh import Mesh
from repro.octree import bbh_grid
from repro.perf import PHASES, StepProfiler
from repro.solver import BSSNSolver

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

PUNCTURES = [
    Puncture(1.0, [-1.5, 0.0, 0.0], momentum=[0.0, 0.1, 0.0]),
    Puncture(0.5, [1.5, 0.0, 0.0], momentum=[0.0, -0.2, 0.0]),
]


def make_mesh(quick: bool) -> Mesh:
    if quick:
        return Mesh(bbh_grid(mass_ratio=2.0, max_level=5, base_level=2))
    # >=500-octant BBH-style grid (acceptance-criterion scale)
    return Mesh(bbh_grid(mass_ratio=2.0, max_level=6, base_level=3))


def make_solver(mesh: Mesh, backend: str, profiler: StepProfiler | None = None) -> BSSNSolver:
    s = BSSNSolver(mesh, profiler=profiler, backend=backend)
    s.set_punctures(PUNCTURES)
    return s


def run_config(mesh: Mesh, config: str, steps: int, *,
               profiler: StepProfiler | None = None,
               measure_memory: bool = True) -> dict:
    """Warm up one step (plan/pool build), then time ``steps`` steps; a
    separate fresh solver measures peak allocation of one steady step."""
    solver = make_solver(mesh, config, profiler)
    solver.step()  # warmup: builds the gather map, fills the arena
    per_step = []
    for _ in range(steps):
        t0 = time.perf_counter()
        solver.step()
        per_step.append(time.perf_counter() - t0)
    elapsed = sum(per_step)

    peak_mb = None
    if measure_memory:
        mem_solver = make_solver(mesh, config)
        mem_solver.step()  # warm arena so the peak is the steady-state one
        tracemalloc.start()
        mem_solver.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = peak / 1e6

    return {
        "config": config,
        "steps": steps,
        "elapsed_s": elapsed,
        "sec_per_step": elapsed / steps,
        "min_sec_per_step": min(per_step),
        "steps_per_sec": steps / elapsed,
        "peak_alloc_mb": peak_mb,
        "state": solver.state,
    }


def max_rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a-b| normalised by the largest magnitude in ``b``."""
    scale = float(np.abs(b).max()) or 1.0
    return float(np.abs(a - b).max()) / scale


def profiler_overhead(mesh: Mesh, steps: int) -> dict:
    """Steps/sec with no profiler vs a disabled profiler (<2% target).

    Uses the minimum per-step time of each run so a single scheduler
    hiccup does not masquerade as profiler cost.
    """
    base = run_config(mesh, "numpy", steps, measure_memory=False)
    off = run_config(mesh, "numpy", steps,
                     profiler=StepProfiler(enabled=False),
                     measure_memory=False)
    overhead = off["min_sec_per_step"] / base["min_sec_per_step"] - 1.0
    return {
        "no_profiler_sec_per_step": base["min_sec_per_step"],
        "disabled_profiler_sec_per_step": off["min_sec_per_step"],
        "overhead_frac": overhead,
    }


def supervised_overhead(mesh: Mesh, steps: int) -> dict:
    """Steps/sec raw vs under ``SupervisedRun`` guards (≤5% target).

    The supervisor adds one arena state snapshot plus the health scans
    (max|u| and det(γ̃) passes) around each step.  Raw and supervised
    steps alternate on the *same* solver (paired measurement), so
    machine-speed drift over the run cancels out instead of counting as
    supervision cost; min-of-steps absorbs scheduler hiccups.
    """
    from repro.resilience import HealthMonitor, SupervisedRun

    solver = make_solver(mesh, "numpy")
    run = SupervisedRun(solver, monitor=HealthMonitor())
    solver.step()  # warmup: arena + gather map
    run.step()     # warmup: snapshot + scan buffers
    raw, supervised = [], []
    for _ in range(max(2, steps)):
        t0 = time.perf_counter()
        solver.step()
        raw.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run.step()
        supervised.append(time.perf_counter() - t0)
    overhead = min(supervised) / min(raw) - 1.0
    return {
        "raw_sec_per_step": min(raw),
        "supervised_sec_per_step": min(supervised),
        "overhead_frac": overhead,
        "rollbacks": run.rollbacks,
    }


def telemetry_profile(summ: dict) -> dict:
    """Normalised per-phase profile of a ``StepProfiler.summary()``: what
    `python -m repro.telemetry compare` consumes, directly comparable
    against a telemetry run directory or the committed baseline."""
    return {
        "phases": {p: v["per_step"] for p, v in summ["phases"].items()},
        "sec_per_step": summ["step_time"] / max(summ["steps"], 1),
        "steps": summ["steps"],
    }


def run_benchmark(quick: bool = False, steps: int | None = None,
                  check_overhead: bool = True) -> dict:
    from repro.codegen.backends import backend_info, native_impl

    mesh = make_mesh(quick)
    n_steps = steps if steps is not None else (1 if quick else 2)
    have_native = native_impl() is not None

    configs = ("numpy",) + (("compiled",) if have_native else ())
    profilers = {cfg: StepProfiler() for cfg in configs}
    results = {cfg: run_config(mesh, cfg, n_steps, profiler=profilers[cfg])
               for cfg in configs}
    numpy_run = results["numpy"]

    summ = profilers["numpy"].summary()
    report = {
        "schema": "repro-bench-hotpath-v2",
        "grid": {
            "octants": mesh.num_octants,
            "unknowns": mesh.num_points * 24,
            "quick": quick,
        },
        "configs": {
            c: {k: v for k, v in r.items() if k != "state"}
            for c, r in results.items()
        },
        "profiler": summ,
        "telemetry_profile": telemetry_profile(summ),
        "compiled_backend": backend_info(),
    }
    if have_native:
        compiled = results["compiled"]
        report["speedup_compiled_vs_numpy"] = (
            compiled["steps_per_sec"] / numpy_run["steps_per_sec"]
        )
        report["max_rel_dev_compiled_vs_numpy"] = max_rel_dev(
            compiled["state"], numpy_run["state"]
        )
        report["telemetry_profile_compiled"] = telemetry_profile(
            profilers["compiled"].summary()
        )
    if check_overhead:
        report["profiler_overhead"] = profiler_overhead(mesh, n_steps)
        report["supervised_overhead"] = supervised_overhead(mesh, n_steps)
    return report


def render(report: dict) -> str:
    g = report["grid"]
    lines = [
        f"hot-path benchmark: {g['octants']} octants "
        f"({g['unknowns'] / 1e6:.2f}M unknowns)"
        + (" [quick]" if g["quick"] else ""),
        f"{'config':<8} {'s/step':>9} {'steps/s':>9} {'peak MB':>9}",
    ]
    for cfg, r in report["configs"].items():
        peak = f"{r['peak_alloc_mb']:>9.1f}" if r["peak_alloc_mb"] is not None else f"{'-':>9}"
        lines.append(
            f"{cfg:<8} {r['sec_per_step']:>9.3f} {r['steps_per_sec']:>9.4f} {peak}"
        )
    lines += ["", "per-phase breakdown (numpy, Fig. 20 style):"]
    ph = report["profiler"]["phases"]
    for p in PHASES:
        lines.append(f"  {p:<10} {ph[p]['per_step']:>9.4f} s/step  {ph[p]['fraction'] * 100:>5.1f}%")
    if "speedup_compiled_vs_numpy" in report:
        impl = report["compiled_backend"]["native_impl"]
        lines += [
            f"compiled backend [{impl}] vs numpy: "
            f"{report['speedup_compiled_vs_numpy']:.2f}x steps/sec "
            f"(rel dev {report['max_rel_dev_compiled_vs_numpy']:.2e}, "
            "schedule-order roundoff only)",
            "per-phase breakdown (compiled; deriv = native D+A+KO):",
        ]
        phc = report["telemetry_profile_compiled"]["phases"]
        for p in PHASES:
            lines.append(f"  {p:<10} {phc[p]:>9.4f} s/step")
    elif "compiled_backend" in report:
        lines.append(
            "compiled backend: skipped (no numba or cffi+cc on this host: "
            f"{report['compiled_backend']})"
        )
    if "profiler_overhead" in report:
        lines.append(
            f"disabled-profiler overhead: "
            f"{report['profiler_overhead']['overhead_frac'] * 100:.2f}%"
        )
    if "supervised_overhead" in report:
        lines.append(
            f"supervised-stepping overhead (snapshot + health scan): "
            f"{report['supervised_overhead']['overhead_frac'] * 100:.2f}%"
        )
    return "\n".join(lines)


def test_hotpath_quick():
    """Pytest entry: quick-mode run with the acceptance checks."""
    report = run_benchmark(quick=True, check_overhead=False)
    assert all(v > 0.0 for v in report["telemetry_profile"]["phases"].values())
    if "speedup_compiled_vs_numpy" in report:
        assert report["speedup_compiled_vs_numpy"] > 1.0
        assert report["max_rel_dev_compiled_vs_numpy"] < 1e-12
    print("\n" + render(report))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small grid, 1 timed step (CI smoke run)")
    ap.add_argument("--steps", type=int, default=None,
                    help="timed steps per config (default: 2, quick: 1)")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write the machine-readable report here")
    ap.add_argument("--no-overhead", action="store_true",
                    help="skip the disabled-profiler overhead measurement")
    args = ap.parse_args()

    report = run_benchmark(quick=args.quick, steps=args.steps,
                           check_overhead=not args.no_overhead)
    text = render(report)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "hotpath.txt").write_text(text + "\n")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2))
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
