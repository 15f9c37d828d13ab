#!/usr/bin/env python3
"""The perf ledger: four named workloads, sixteen end-to-end metrics, and
per-layer probes for every ``repro.*`` module.  See README.md beside it.

One workload, the way the driver calls it (last stdout line is the JSON
result; ``--trace 1`` reports the per-layer metrics instead)::

    python3 benchmarks/ledger/run.py --workload bbh_static --seed 1 \
        --seconds 20 --trace 0

Every workload in its own process, with spreads and the regression check::

    python3 benchmarks/ledger/run.py [--repeat K] [--traced] [--smoke] \
        [--json PATH]
"""

from __future__ import annotations

import os

# before NumPy is imported anywhere: one BLAS/OpenMP thread, so the two
# cores are the benchmark's to schedule
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import subprocess
import sys
import time

from core import (CALIBRATED_SECONDS, HERE, OUTPUT, REPO, Context, SpeedMeter,
                  Tracer, env_info, interleave, lap, median, peak_rss_mb,
                  pin_to_one_cpu, quartile_spread, scratch_root)

sys.path.insert(0, str(REPO / "src"))
pin_to_one_cpu()

# the heavy imports below are timed as part of setup_s and priced by the
# host-speed samples either side of them
METER = SpeedMeter()
METER.sample()
_T_START = time.perf_counter()

SETUP_REPS = 3

#: workload → the section that runs at full size; the other three run at
#: probe size, because the contract wants every metric from every workload
FOCUS = {"bbh_static": "static", "wave_adaptive": "adaptive",
         "campaign_backlog": "campaign", "serve_mix": "serve"}

#: (module, attribute, span name) wrapped in the traced run only
PATCHES = (
    ("repro.mesh.grid", "Mesh.__init__", "mesh.construct"),
    ("repro.mesh.grid", "Mesh.unzip", "mesh.unzip"),
    ("repro.mesh.grid", "Mesh.zip", "mesh.zip"),
    ("repro.mesh.grid", "build_adjacency", "octree.adjacency"),
    ("repro.mesh.regrid", "balance", "octree.balance"),
    ("repro.solver.wave_solver", "regrid_flags", "mesh.regrid_flags"),
    ("repro.solver.wave_solver", "remesh", "mesh.remesh"),
    ("repro.solver.wave_solver", "transfer_fields", "mesh.transfer"),
    ("repro.solver.bssn_solver", "regrid_flags", "mesh.regrid_flags"),
    ("repro.solver.bssn_solver", "remesh", "mesh.remesh"),
    ("repro.solver.bssn_solver", "transfer_fields", "mesh.transfer"),
    ("repro.solver.wave_solver", "WaveSolver.step", "solver.step"),
    ("repro.solver.wave_solver", "WaveSolver.full_rhs", "solver.full_rhs"),
    ("repro.solver.wave_solver", "WaveSolver.regrid", "solver.regrid"),
    ("repro.solver.bssn_solver", "BSSNSolver.step", "solver.step"),
    ("repro.solver.bssn_solver", "BSSNSolver.full_rhs", "solver.full_rhs"),
    ("repro.solver.bssn_solver", "BSSNSolver.regrid", "solver.regrid"),
    ("repro.gw.extraction", "WaveExtractor.sample", "gw.extract"),
    ("repro.jobs.worker", "execute_job", "jobs.execute_job"),
    ("repro.jobs.queue", "JobQueue.submit", "jobs.queue.submit"),
    ("repro.jobs.queue", "JobQueue.claim", "jobs.queue.claim"),
    ("repro.jobs.queue", "JobQueue.complete", "jobs.queue.complete"),
    ("repro.jobs.cache", "ResultCache.get", "jobs.cache_get"),
    ("repro.jobs.cache", "ResultCache.put", "jobs.cache_put"),
)


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def run_workload(workload: str, *, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> dict:
    import numpy  # noqa: F401  (part of the measured import time)

    try:
        from repro.codegen import backends
    except ImportError as exc:
        sys.exit(f"ledger: cannot import the program under test: {exc}")
    if backends.native_impl() is None:
        sys.exit("ledger: the compiled backend is unavailable "
                 f"({backends.backend_info()}); refusing to fall back to "
                 "NumPy silently")
    import sec_adaptive
    import sec_campaign
    import sec_serve
    import sec_static

    # prime the native build cache once, untimed by setup_s
    t0 = time.perf_counter()
    backends.NativeBSSNRHS()
    backends.NativeWaveRHS()
    compile_s = time.perf_counter() - t0
    import_s = time.perf_counter() - _T_START - compile_s

    spec = load_spec()
    expected = json.loads((HERE / "expected.json").read_text())
    tracer = Tracer(traced)
    for module, attr, name in PATCHES:
        tracer.wrap(module, attr, name)
    focus = FOCUS[workload]
    small, big = ("tiny", "probe") if smoke else ("probe", "full")

    meter = METER
    meter.ticking = not traced
    meter.sample()
    with scratch_root() as scratch:
        ctx = Context(seed=seed, tracer=tracer, meter=meter, scratch=scratch,
                      scale=seconds / CALIBRATED_SECONDS, expected=expected)
        sections = []
        for kind, sizes in ((sec_static.StaticSection, sec_static.SIZES),
                            (sec_adaptive.AdaptiveSection, sec_adaptive.SIZES),
                            (sec_campaign.CampaignSection, sec_campaign.SIZES),
                            (sec_serve.ServeSection, sec_serve.SIZES)):
            is_focus = kind.name == focus
            size = big if is_focus else small
            sections.append(kind(size, sizes[size], ctx, focus=is_focus))
        by_name = {s.name: s for s in sections}
        try:
            setups = []
            reps = 1 if smoke else SETUP_REPS
            for rep in range(reps):
                tracer.unit = f"setup/{rep}"
                laps = []
                for s in sections:
                    t0 = time.perf_counter()
                    with tracer.span("setup", section=s.name):
                        s.setup()
                    laps.append(lap(t0))
                    meter.sample()
                setups.append(laps)
                if rep < reps - 1:
                    for s in sections:
                        s.teardown()
            t_run = time.perf_counter()
            interleave(sections, meter)
            measured_s = time.perf_counter() - t_run

            e2e, layers = {}, {}
            for s in sections:
                a, b = s.finish()
                e2e.update(a)
                layers.update(b)
            static, adaptive = by_name["static"], by_name["adaptive"]
            e2e["updates_per_s"] = (
                (static.unknowns * static.steps + adaptive.updates)
                / (static.steps * e2e["step_p50_s"] + e2e["wall_s"]))
            setup_parts = [ctx.ref((_T_START, import_s))] + [
                sum(map(ctx.ref, laps)) for laps in setups]
            e2e["setup_s"] = setup_parts[0] + median(setup_parts[1:])
            e2e["peak_rss_mb"] = peak_rss_mb()
            indices = [meter.index_near(t) for t, _ in meter.samples
                       if t >= t_run]
            speed = {"median": median(indices), "min": min(indices),
                     "max": max(indices)}
            layers["host.speed_index"] = speed["median"]
            layers["codegen.compile_s"] = compile_s
            reasons = {name: f"entry point gone: {why}"
                       for name, why in tracer.unavailable.items()}
            if traced:
                from probes import ProbeInput, run_probes

                tracer.unit = "probes"
                run_probes(ProbeInput(ctx=ctx, smoke=smoke, static=static,
                                      campaign=by_name["campaign"],
                                      serve=by_name["serve"], e2e=e2e,
                                      layers=layers), reasons)
        finally:
            for s in sections:
                s.teardown()
            tracer.restore()

    if traced:
        OUTPUT.mkdir(exist_ok=True)
        tracer.write_chrome_trace(OUTPUT / f"trace-{workload}.json")
    checks = [c for s in sections for c in s.checks]
    return {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == workload),
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "sizes": {s.name: s.size_name for s in sections},
        "measured_s": measured_s,
        "attempted": sum(s.attempted for s in sections),
        "failed": sum(s.failed for s in sections),
        "checks": checks,
        "correct": all(ok for _, ok, _ in checks),
        "e2e": e2e,
        "setup_parts": setup_parts,
        "speed": speed,
        "layers": layers,
        "reasons": reasons,
        "self_time": tracer.self_time_by_name(("setup/", "probes")),
        "env": env_info(backends.backend_info()),
    }


def contract_line(report: dict, spec: dict) -> str:
    """The driver's result object: exactly the metrics of one class."""
    if report["traced"]:
        wanted, values = spec["per_layer"], report["layers"]
    else:
        wanted, values = spec["end_to_end"], report["e2e"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def print_report(report: dict, spec: dict) -> None:
    out = sys.stdout
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{'traced' if report['traced'] else 'untraced'}"
          f"{', smoke' if report['smoke'] else ''}) ==", file=out)
    print(f"why: {report['why']}", file=out)
    print("sizes: " + ", ".join(f"{k}={v}" for k, v in
                                report["sizes"].items())
          + f"; measured {report['measured_s']:.1f} s", file=out)
    env = report["env"]
    print(f"env: {env['nproc']} × {env['cpu_model']} (on cpu "
          f"{env['cpus_allowed']}), python "
          f"{env['python']}, numpy {env['numpy']}, native "
          f"{env['backend_info'].get('native_impl')}, git "
          f"{env['git_sha'][:12]}", file=out)
    if report["traced"]:
        for m in spec["per_layer"]:
            v = report["layers"].get(m["name"])
            shown = "null" if v is None else f"{v:.6g}"
            why = report["reasons"].get(m["name"])
            print(f"  {m['name']:<38} {shown:>14} {m['unit']}"
                  + (f"   ({why})" if v is None and why else ""), file=out)
        total = sum(report["self_time"].values()) or 1.0
        print("  self time by span while measuring:", file=out)
        for name, t in sorted(report["self_time"].items(),
                              key=lambda kv: -kv[1])[:14]:
            print(f"    {name:<26} {t:9.3f} s {100 * t / total:5.1f}%",
                  file=out)
    else:
        sp = report["speed"]
        print(f"  host slow-down against nominal while measuring: median "
              f"{sp['median']:.3f}, range {sp['min']:.3f}–{sp['max']:.3f} "
              "(timings below are in reference seconds: each operation "
              "divided by the slow-down around it)", file=out)
        for m in spec["end_to_end"]:
            v = report["e2e"][m["name"]]
            print(f"  {m['name']:<20} {v:>14.6g} {m['unit']:<6} "
                  f"(better {m['better']}, bound {m['bound']:.0%})",
                  file=out)
        imports, *setups = report["setup_parts"]
        print(f"  setup_s = imports {imports:.3f} + median of set-ups "
              + ", ".join(f"{t:.3f}" for t in setups), file=out)
    print(f"  operations: {report['attempted']} attempted, "
          f"{report['failed']} failed", file=out)
    for label, ok, detail in report["checks"]:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}"
              + (f" — {detail}" if detail else ""), file=out)


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------

def run_child(workload: str, args, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.traced else "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    *report, result = proc.stdout.strip().splitlines() or [""]
    print("\n".join(report))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"ledger: workload {workload} exited {proc.returncode}")
    return json.loads(result)


def run_all(args) -> int:
    spec = load_spec()
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    kind = "per_layer" if args.traced else "end_to_end"
    sets = []
    for k in range(args.repeat):
        sets.append({w: run_child(w, args, args.seed + k) for w in names})
    ok = all(r["correct"] and r["failed"] == 0
             for s in sets for r in s.values())
    summary = {}
    half = (args.repeat + 1) // 2
    if args.repeat >= 2:
        print(f"\n== summary over {args.repeat} sets ==")
    for w in names if args.repeat >= 2 else ():
        for m in spec[kind]:
            vals = [s[w]["metrics"][m["name"]]["value"] for s in sets]
            if any(v is None for v in vals):
                continue
            q1, q2, q3, spread = quartile_spread(vals)
            row = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
            line = (f"  {w:<17} {m['name']:<24} {q2:>12.5g} {m['unit']:<6} "
                    f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:6.1%}")
            if "bound" in m:
                first, second = median(vals[:half]), median(vals[half:])
                worse = ((second - first) / first if m["better"] == "lower"
                         else (first - second) / first)
                row["worse_by"] = worse
                agree = worse <= m["bound"] and -worse <= m["bound"]
                line += (f" | sets differ {worse:+6.1%} "
                         f"(bound {m['bound']:.0%})"
                         + ("" if agree else "  DISAGREE"))
                ok = ok and agree
            summary[f"{w}:{m['name']}"] = row
            print(line)
    print("ledger: " + ("OK" if ok else "FAILED"))
    if args.json:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "repeat": args.repeat, "traced": args.traced,
             "smoke": args.smoke,
             "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
             "sets": sets, "summary": summary}, indent=1))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(FOCUS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=CALIBRATED_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--repeat", type=int, default=None, metavar="K",
                    help="run the whole set K times and compare the sets")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, < 60 s for all four workloads")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write every run and the summary here")
    args = ap.parse_args(argv)
    args.traced = args.traced or args.trace == 1
    one_run = (args.workload is not None and args.repeat is None
               and args.json is None)
    if not one_run:
        args.repeat = args.repeat or 1
        return run_all(args)
    spec = load_spec()
    report = run_workload(args.workload, seed=args.seed,
                          seconds=args.seconds, traced=args.traced,
                          smoke=args.smoke)
    print_report(report, spec)
    print(contract_line(report, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
