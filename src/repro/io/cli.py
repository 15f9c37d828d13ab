"""Command-line drivers mirroring the paper artifact's executables.

* ``repro-tpid``    — like ``BSSN_GR/tpid``: build puncture initial data
  and report constraint residuals.
* ``repro-bssn``    — like ``bssnSolverCtx`` / ``bssnSolverCUDA``: evolve
  a parameter file (``--gpu`` switches to the generated-kernel execution
  path).
* ``repro-bench``   — print one experiment's table (E1..E16 names).
* ``python -m repro.io`` — checkpoint maintenance: ``checkpoint-verify``
  (digest + balance + shape validation, exit status 0/1),
  ``checkpoint-info`` (meta dump and shape report), ``find-latest``
  (newest valid checkpoint in a directory, the auto-resume probe).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def tpid_main(argv=None) -> int:
    """Initial-data 'solve': evaluate puncture data on the configured grid
    and report constraint residuals (the analogue of running tpid)."""
    from .params import RunConfig, preset

    ap = argparse.ArgumentParser(prog="repro-tpid", description=tpid_main.__doc__)
    ap.add_argument("config", help="parameter file (JSON) or preset name (q1/q2/q4)")
    args = ap.parse_args(argv)

    cfg = preset(args.config) if args.config in ("q1", "q2", "q4") else RunConfig.load(args.config)
    cfg.validate()
    solver = cfg.build_solver()
    mesh = solver.mesh
    print(f"[{cfg.name}] grid: {mesh.num_octants} octants, "
          f"{mesh.num_points:,} points/var, finest dx = {mesh.min_dx:.4g}")
    con = solver.constraints()
    for k, v in sorted(con.items()):
        print(f"  {k:>10}: {v:.4e}")
    return 0


def bssn_main(argv=None) -> int:
    """Evolve a BSSN run from a parameter file."""
    from .checkpoint import restore_solver, save_checkpoint
    from .params import RunConfig, preset

    ap = argparse.ArgumentParser(prog="repro-bssn", description=bssn_main.__doc__)
    ap.add_argument("config", help="parameter file (JSON) or preset name")
    ap.add_argument("--steps", type=int, default=None,
                    help="run a fixed number of steps instead of t_end")
    ap.add_argument("--gpu", action="store_true",
                    help="use the generated staged+CSE kernel (GPU path)")
    ap.add_argument("--checkpoint", default=None, help="write a checkpoint here")
    ap.add_argument("--restart", default=None, help="restart from a checkpoint")
    args = ap.parse_args(argv)

    cfg = preset(args.config) if args.config in ("q1", "q2", "q4") else RunConfig.load(args.config)
    cfg.validate()
    if args.restart:
        solver = restore_solver(args.restart, cfg.bssn_params(),
                                backend=cfg.backend)
        print(f"restarted from {args.restart} at t = {solver.t:.3f}")
    else:
        solver = cfg.build_solver()
    if args.gpu:
        from repro.codegen import get_algebra_kernel
        from repro.codegen.backends import NumpyBSSNRHS

        print("generating staged+CSE kernel (GPU execution path)...")
        solver.kernel = NumpyBSSNRHS(get_algebra_kernel("staged-cse"))

    print(f"[{cfg.name}] {solver.mesh.num_octants} octants, dt = {solver.dt:.4g}")
    n_steps = args.steps if args.steps is not None else int(
        np.ceil(cfg.t_end / solver.dt)
    )
    for i in range(n_steps):
        # on the solver's step count, as Solver.evolve does: a restarted
        # run regrids on the steps the uninterrupted one does
        if (cfg.regrid_every and solver.step_count
                and solver.step_count % cfg.regrid_every == 0):
            if solver.regrid(cfg.regrid_eps, max_level=cfg.max_level):
                print(f"  regrid at step {solver.step_count} -> "
                      f"{solver.mesh.num_octants} octants")
        solver.step()
        if i % max(1, n_steps // 10) == 0:
            a = solver.state[0]
            print(f"  step {solver.step_count:5d}  t={solver.t:8.4f}  "
                  f"min(alpha)={a.min():.4f}")
    con = solver.constraints()
    print(f"done: t = {solver.t:.4f}, ham_l2 = {con['ham_l2']:.3e}")
    if args.checkpoint:
        save_checkpoint(args.checkpoint, solver)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_checkpoint_verify(args) -> int:
    from .checkpoint import verify_checkpoint

    report = verify_checkpoint(args.path)
    if report["valid"]:
        meta = report["meta"]
        print(f"{args.path}: VALID (v{meta['version']}, "
              f"t={meta['t']:.6g}, step {meta['step_count']}, "
              f"{report['num_octants']} octants)")
        if meta.get("sha256"):
            print(f"  sha256: {meta['sha256']}")
        return 0
    print(f"{args.path}: INVALID — {report['reason']}")
    return 1


def _cmd_checkpoint_info(args) -> int:
    from .checkpoint import verify_checkpoint

    report = verify_checkpoint(args.path)
    if not report["valid"]:
        print(f"{args.path}: INVALID — {report['reason']}")
        return 1
    meta = report["meta"]
    print(f"checkpoint {args.path}")
    print(f"  format version : {meta['version']}"
          + (" (migrated from v1)" if meta.get("migrated_from") else ""))
    print(f"  t / step       : {meta['t']:.6g} / {meta['step_count']}")
    print(f"  courant        : {meta['courant']}")
    print(f"  octants        : {report['num_octants']}")
    print(f"  state shape    : {tuple(report['state_shape'])} "
          f"({report['nbytes'] / 1e6:.1f} MB)")
    print(f"  domain         : {meta['domain']}")
    print(f"  sha256         : {meta.get('sha256') or '(none: v1 file)'}")
    params = meta.get("params")
    print("  params         : "
          + (json.dumps(params) if params else "(none: v1 file)"))
    punctures = meta.get("punctures")
    if punctures:
        for pos, mass in zip(punctures["positions"], punctures["masses"]):
            print(f"  puncture       : m={mass} at {pos}")
    return 0


def _cmd_find_latest(args) -> int:
    from .checkpoint import find_latest_valid

    path = find_latest_valid(args.directory)
    if path is None:
        print(f"no valid checkpoint in {args.directory}")
        return 1
    print(path)
    return 0


def io_main(argv=None) -> int:
    """Checkpoint maintenance CLI (``python -m repro.io``)."""
    ap = argparse.ArgumentParser(prog="python -m repro.io",
                                 description=io_main.__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("checkpoint-verify",
                       help="validate digest, balance, and shapes")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_checkpoint_verify)
    p = sub.add_parser("checkpoint-info",
                       help="dump checkpoint meta and shape report")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_checkpoint_info)
    p = sub.add_parser("find-latest",
                       help="print the newest valid checkpoint in a dir")
    p.add_argument("directory")
    p.set_defaults(fn=_cmd_find_latest)
    args = ap.parse_args(argv)
    return args.fn(args)


def bench_main(argv=None) -> int:
    """Regenerate one experiment's table (see DESIGN.md experiment index)."""
    import subprocess

    ap = argparse.ArgumentParser(prog="repro-bench", description=bench_main.__doc__)
    ap.add_argument("experiment",
                    help="bench module fragment, e.g. table1, fig17, fig19")
    args = ap.parse_args(argv)
    cmd = [
        sys.executable, "-m", "pytest", "--benchmark-only", "-q", "-s",
        "-k", args.experiment, "benchmarks/",
    ]
    return subprocess.call(cmd)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(bssn_main())
