"""``python -m repro.telemetry`` — record and inspect runs.

Subcommands
-----------
``record``
    Run a short instrumented BBH evolution under ``SupervisedRun`` and
    write a telemetry run directory (the CI telemetry job's workload).
``summarize``
    Fig.-20-style per-phase table plus comm / mesh / physics / recovery
    sections, from a run directory's ``metrics.jsonl`` + ``events.jsonl``.
``export-trace``
    Re-export (or copy) a run's Chrome trace JSON for Perfetto.

Whether a change made a run slower is the perf ledger's question
(``benchmarks/ledger/run.py``), not this tool's.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.perf import PHASES

from .metrics import load_snapshots, quantile_from_dict
from .sink import (
    EVENTS_FILE,
    META_FILE,
    METRICS_FILE,
    TRACE_FILE,
    TelemetrySink,
    read_events,
)

#: event kinds counted in the recovery section of ``summarize``
RECOVERY_KINDS = ("rollback", "halo-retry", "fault-injected", "regrid",
                  "checkpoint", "dt-restored", "flagged-step", "abort",
                  "resume")


# ---------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------
def _metric_map(snap: dict) -> dict:
    out = {}
    for m in snap.get("metrics", []):
        out[(m["name"], tuple(sorted(m.get("labels", {}).items())))] = m
    return out


def _fmt_val(v: float) -> str:
    return f"{v:.3e}" if (v and (abs(v) < 1e-3 or abs(v) >= 1e4)) else f"{v:.4f}"


def phase_table(snap: dict) -> str:
    """The Fig.-20 per-phase table of one metrics snapshot — a run
    directory's last ``metrics.jsonl`` line or a live
    ``MetricsRegistry.snapshot()``: each phase's mean per step, share
    and quantiles from its ``phase_seconds`` histogram, then the
    ``step_seconds`` row.  Empty when no step was profiled."""
    mm = _metric_map(snap)
    rows = []
    for ph in PHASES:
        m = mm.get(("phase_seconds", (("phase", ph),)))
        if m and m["count"]:
            rows.append((ph, m["sum"] / m["count"], m))
    if not rows:
        return ""
    phase_sum = sum(per_step for _, per_step, _ in rows)
    lines = [f"{'phase':<10} {'per-step [s]':>13} {'share':>7} "
             f"{'p50 [s]':>10} {'p90 [s]':>10} {'p99 [s]':>10}"]
    for ph, per_step, m in rows:
        share = per_step / phase_sum * 100 if phase_sum else 0.0
        p50, p90, p99 = (quantile_from_dict(m, q) for q in (0.5, 0.9, 0.99))
        lines.append(f"{ph:<10} {per_step:>13.5f} {share:>6.1f}% "
                     f"{p50:>10.5f} {p90:>10.5f} {p99:>10.5f}")
    step = mm.get(("step_seconds", ()))
    if step and step["count"]:
        sps = step["sum"] / step["count"]
        p50, p90, p99 = (quantile_from_dict(step, q) for q in (0.5, 0.9, 0.99))
        lines.append(f"{'step':<10} {sps:>13.5f} {'':>7} "
                     f"{p50:>10.5f} {p90:>10.5f} {p99:>10.5f}"
                     f"   ({step['count']} steps, {1.0 / sps:.3f} steps/s)")
    return "\n".join(lines)


def summarize_run(run_dir) -> str:
    """Human-readable report of one run directory."""
    p = pathlib.Path(run_dir)
    snaps = load_snapshots(p / METRICS_FILE)
    if not snaps:
        raise ValueError(f"{p}: no metrics snapshots")
    mm = _metric_map(snaps[-1])
    lines = []
    meta_path = p / META_FILE
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        lines.append(
            f"run: {meta.get('label', '?')} ({p})  "
            f"schema={meta.get('schema', '?')}"
        )

    table = phase_table(snaps[-1])
    if table:
        lines += ["", table]

    # -- mesh / memory -------------------------------------------------
    mesh_lines = []
    tot = mm.get(("octants_total", ()))
    if tot:
        per_level = sorted(
            (dict(key[1])["level"], m["value"])
            for key, m in mm.items() if key[0] == "octants"
        )
        lv = ", ".join(f"L{int(level)}:{int(v)}" for level, v in per_level)
        mesh_lines.append(f"octants: {int(tot['value'])} ({lv})")
    pool = mm.get(("pool_bytes", ()))
    if pool:
        mesh_lines.append(f"pool: {pool['value'] / 1e6:.1f} MB leased")
    if mesh_lines:
        lines.append("")
        lines.append("mesh/memory: " + "; ".join(mesh_lines))

    # -- comm ----------------------------------------------------------
    halo_bytes = sum(
        m["value"] for key, m in mm.items() if key[0] == "halo_bytes"
    )
    halo_msgs = sum(
        m["value"] for key, m in mm.items() if key[0] == "halo_messages"
    )
    comm_lines = []
    if halo_msgs:
        comm_lines.append(
            f"halo: {halo_bytes / 1e6:.2f} MB in {int(halo_msgs)} messages"
        )
    imb = mm.get(("load_imbalance", ()))
    if imb:
        comm_lines.append(f"load imbalance (max/mean): {imb['value']:.3f}")
    if comm_lines:
        lines.append("")
        lines.append("comm: " + "; ".join(comm_lines))

    # -- physics -------------------------------------------------------
    phys = [
        (dict(key[1]).get("name", "?"), m["value"])
        for key, m in mm.items() if key[0] == "constraint"
    ]
    psi4 = [
        (dict(key[1]).get("radius"), m["value"])
        for key, m in mm.items() if key[0] == "psi4_amplitude"
    ]
    if phys or psi4:
        lines.append("")
        lines.append("physics:")
        for name, v in sorted(phys):
            lines.append(f"  {name:<24} {_fmt_val(v)}")
        for radius, v in sorted(psi4):
            lines.append(f"  |psi4(2,2)| @ r={radius:<6} {_fmt_val(v)}")

    # -- recovery ------------------------------------------------------
    ev_path = p / EVENTS_FILE
    if ev_path.exists():
        events = read_events(ev_path)
        kinds: dict[str, int] = {}
        for e in events:
            kinds[e.get("kind", "?")] = kinds.get(e.get("kind", "?"), 0) + 1
        shown = {k: v for k, v in kinds.items() if k in RECOVERY_KINDS}
        lines.append("")
        lines.append(
            f"events: {len(events)} total"
            + ("; " + ", ".join(f"{k}={v}" for k, v in sorted(shown.items()))
               if shown else "")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------
# record (the CI / acceptance workload)
# ---------------------------------------------------------------------
def record_run(out_dir, *, quick: bool = True, steps: int = 4,
               metrics_every: int = 2, physics_every: int = 0,
               checkpoint_every: int = 0) -> dict:
    """Short instrumented BBH evolution → telemetry run directory.

    A q = 2 ``bbh_grid`` (quick: 316 octants; full: max level 6) under
    :class:`SupervisedRun`, so the trace carries the complete step →
    stage → phase hierarchy plus any recovery events.
    """
    from repro.bssn import Puncture
    from repro.mesh import Mesh
    from repro.octree import bbh_grid
    from repro.resilience import SupervisedRun
    from repro.solver import BSSNSolver

    mesh = Mesh(bbh_grid(mass_ratio=2.0, max_level=5 if quick else 6,
                         base_level=2 if quick else 3))
    sink = TelemetrySink(
        out_dir, metrics_every=metrics_every,
        physics_every=physics_every, label="bbh-quick" if quick else "bbh",
        meta={"octants": mesh.num_octants, "steps": steps},
    )
    solver = BSSNSolver(mesh, profiler=sink.profiler())
    solver.set_punctures([
        Puncture(1.0, [-1.5, 0.0, 0.0], momentum=[0.0, 0.1, 0.0]),
        Puncture(0.5, [1.5, 0.0, 0.0], momentum=[0.0, -0.2, 0.0]),
    ])
    run = SupervisedRun(solver, telemetry=sink,
                        checkpoint_every=checkpoint_every)
    run.run(t_end=solver.t + steps * solver.dt)
    sink.finalize(solver, report=run.report())
    return {
        "run_dir": str(sink.run_dir),
        "octants": mesh.num_octants,
        "steps": solver.step_count,
        "rollbacks": run.rollbacks,
    }


# ---------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="record and inspect telemetry runs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    rec = sub.add_parser("record", help="run a short instrumented BBH "
                         "evolution into a run directory")
    rec.add_argument("-o", "--out", required=True, help="run directory")
    rec.add_argument("--full", action="store_true",
                     help="the 820-octant acceptance grid (slow)")
    rec.add_argument("--steps", type=int, default=4)
    rec.add_argument("--metrics-every", type=int, default=2)
    rec.add_argument("--physics-every", type=int, default=0,
                     help="constraint-norm sampling cadence (0 = off)")

    summ = sub.add_parser("summarize", help="per-phase / comm / physics "
                          "report of a run directory")
    summ.add_argument("run_dir")

    exp = sub.add_parser("export-trace", help="write a run's Chrome "
                         "trace JSON (open in ui.perfetto.dev)")
    exp.add_argument("run_dir")
    exp.add_argument("-o", "--out", default=None,
                     help="output file (default: stdout)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "record":
        info = record_run(args.out, quick=not args.full, steps=args.steps,
                          metrics_every=args.metrics_every,
                          physics_every=args.physics_every)
        print(f"recorded {info['steps']} steps over {info['octants']} "
              f"octants -> {info['run_dir']}")
        print(summarize_run(args.out))
        return 0
    if args.cmd == "summarize":
        print(summarize_run(args.run_dir))
        return 0
    if args.cmd == "export-trace":
        trace_path = pathlib.Path(args.run_dir) / TRACE_FILE
        if not trace_path.exists():
            print(f"error: {trace_path} not found (run not finalized?)",
                  file=sys.stderr)
            return 2
        text = trace_path.read_text(encoding="utf-8")
        json.loads(text)  # validate before re-emitting
        if args.out:
            pathlib.Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    return 2
