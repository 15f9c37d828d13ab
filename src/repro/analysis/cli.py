"""``python -m repro.analysis`` — the static-analysis gate.

Runs the two analysis legs and prints a human report:

* **dataflow** — verify every codegen variant's schedule, then compile
  its emitted CUDA for the host and run it against the NumPy execution
  (where there is a C compiler);
* **aliasing** — audit one RK4 step of a WaveSolver and a
  BSSNSolver on a small uniform mesh.

``--strict`` exits nonzero when any finding (error or warning) is
reported, which is how CI gates on it; ``--json`` writes the full
machine-readable report for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

SECTIONS = ("dataflow", "aliasing")


def _run_dataflow(report: dict, variants: list[str]) -> int:
    from repro.codegen import (
        ToolchainError, emit_cuda, get_kernel_spec, probe_cffi,
    )
    from .cuda_host import check_cuda_on_host
    from .dataflow import verify_spec

    print("== dataflow: kernel-schedule verification ==")
    num = 0
    entries = []
    for variant in variants:
        spec = get_kernel_spec(variant)
        rep = verify_spec(spec)
        entry = rep.to_dict()
        if probe_cffi() is None:
            emit_cuda(spec)
            cuda_ok, cuda = True, "cuda emitted only: no cc"
        else:
            try:
                run = entry["cuda_on_host"] = check_cuda_on_host(spec)
                cuda_ok = run["ok"]
                cuda = (
                    f"cuda compiled + executed (build "
                    f"{run['build_seconds']:.1f} s, run "
                    f"{run['run_seconds'] * 1e3:.1f} ms, max rel "
                    f"{run['max_rel']:.1e})")
            except ToolchainError as exc:
                cuda_ok = False
                cuda = entry["cuda_error"] = f"cuda FAILED to compile: {exc}"
        entries.append(entry)
        num += len(rep.findings) + (not cuda_ok)
        print(
            f"  {variant:14s} {rep.num_statements:5d} stmts  "
            f"live {rep.max_live:3d} (on-demand {rep.max_live_ondemand:3d})  "
            f"{rep.verify_time * 1e3:7.1f} ms  "
            f"[{'ok' if rep.ok and cuda_ok else 'FAIL'}]\n"
            f"  {'':14s} {cuda}"
        )
        for f in rep.findings:
            print(f"    {f.severity}: {f.kind} at {f.location}: {f.message}")
    report["dataflow"] = entries
    return num


def _run_aliasing(report: dict) -> int:
    import numpy as np

    from repro.bssn import Puncture
    from repro.codegen.backends import native_impl
    from repro.mesh import Mesh
    from repro.octree import LinearOctree, balance
    from repro.solver import BSSNSolver, WaveSolver
    from .aliasing import audit_solver_step

    print("== aliasing: RK4 step audit ==")

    # one refined octant, so the unzip leases its compact upsample
    tree = LinearOctree.uniform(2)
    wave = WaveSolver(Mesh(balance(tree.refine(np.arange(len(tree)) == 0))))
    c = wave.coords()
    wave.state[0] = np.exp(-(c**2).sum(axis=-1))
    wave.state[1] = 0.0
    wave.step()  # warm the arena so the audit sees the steady state

    # the native kernel leases its scratch from the arena and writes the
    # RK4 stage buffer itself, so it is audited where it exists
    solvers = [wave]
    for backend in ["numpy"] + (["compiled"] if native_impl() else []):
        bssn = BSSNSolver(Mesh(LinearOctree.uniform(2)), backend=backend)
        bssn.set_punctures(
            [Puncture(mass=1.0, position=np.array([0.1, 0.0, 0.0]))])
        bssn.step()
        solvers.append(bssn)

    num = 0
    entries = []
    for solver in solvers:
        rep = audit_solver_step(
            solver, label=f"{type(solver).__name__}[{solver.backend}]")
        entries.append(rep.to_dict())
        num += len(rep.findings)
        print(
            f"  {rep.label:20s} {len(rep.events):4d} leases  "
            f"{rep.num_rhs_calls} RHS calls  {rep.num_buffers:3d} buffers  "
            f"{rep.pool_nbytes / 1e6:6.1f} MB arena  "
            f"phases {','.join(rep.phases_seen())}  "
            f"[{'ok' if rep.ok else 'FAIL'}]"
        )
        for f in rep.findings:
            print(f"    {f.severity}: {f.kind}: {f.message}")
    report["aliasing"] = entries
    return num


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the kernel schedules and hot path.",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero if any finding is reported",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full report as JSON"
    )
    parser.add_argument(
        "--section", action="append", choices=SECTIONS,
        help="run only the given section(s); default: all",
    )
    parser.add_argument(
        "--variants", nargs="+", metavar="V",
        help="codegen variants to verify (default: all, incl. compiled)",
    )
    args = parser.parse_args(argv)

    sections = tuple(args.section) if args.section else SECTIONS
    if args.variants is None:
        from repro.codegen import ALL_VARIANTS

        variants = list(ALL_VARIANTS)
    else:
        variants = args.variants

    t0 = time.perf_counter()
    report: dict = {"sections": list(sections)}
    total = 0
    if "dataflow" in sections:
        total += _run_dataflow(report, variants)
    if "aliasing" in sections:
        total += _run_aliasing(report)
    elapsed = time.perf_counter() - t0
    report["total_findings"] = total
    report["elapsed"] = elapsed

    print(f"== {total} finding(s) in {elapsed:.2f} s ==")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.json}")
    if args.strict and total:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
