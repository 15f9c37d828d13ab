"""``python -m repro.jobs`` — campaign orchestration CLI.

Subcommands::

    submit      <campaign> -p file.json [...] [--sweep FIELD V1,V2,..]
    run-workers <campaign> -n N [--fabric HOST:PORT] [--lease-seconds S]
    coordinator <campaign> [--port P] [--shard DIR ...] [--fleet]
    status      <campaign>
    top         <campaign> [--fabric HOST:PORT] [--once]  # mission control
    merge-trace <campaign> [-o OUT]     # one-lane-per-worker Perfetto view
    cancel      <campaign> JOB_ID
    report      <campaign> [--json OUT]
    demo        [-d DIR] [-n WORKERS]   # the CI end-to-end smoke campaign
    fleet-demo  [-d DIR] [-n WORKERS]   # fleet observability gate (CI)
    chaos       [-d DIR] [--quick]      # the fabric chaos matrix (CI gate)

``demo`` builds and drives a full campaign on tiny wave-solver configs:
six jobs across three workers, including one fault-injected job (NaN
burst → supervised rollback), one duplicate spec (served from the
result cache, zero solver steps), and one preemption (a high-priority
submit checkpoints a running job, which later resumes and finishes
bitwise-identical to its uninterrupted counterpart, verified against an
in-process reference run).  Exit status 0 only if every check passes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.io import RunConfig


def _add_campaign(p):
    p.add_argument("campaign", help="campaign directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="campaign orchestration: queue, workers, reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="submit job specs to a campaign")
    _add_campaign(p)
    p.add_argument("-p", "--param", action="append", default=[],
                   help="RunConfig JSON parameter file (repeatable)")
    p.add_argument("--preset", action="append", default=[],
                   help="bundled preset name, e.g. q1 (repeatable)")
    p.add_argument("--sweep", metavar="FIELD=V1,V2,..",
                   help="submit one job per value of FIELD, applied to "
                        "every -p/--preset base spec")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--fault-step", type=int, action="append", default=[],
                   help="inject a NaN burst at this solver step "
                        "(repeatable; deterministic test harness)")
    p.add_argument("--preempt", action="store_true",
                   help="request preemption of a lower-priority running "
                        "job on submit")
    p.add_argument("--max-pending", type=int, default=None,
                   help="admission control: reject when the backlog is "
                        "this deep")

    p = sub.add_parser("run-workers", help="drain the queue with N workers")
    _add_campaign(p)
    p.add_argument("-n", "--workers", type=int, default=2)
    p.add_argument("--timeout", type=float, default=None,
                   help="overall seconds before giving up")
    p.add_argument("--fabric", default=None, metavar="HOST:PORT",
                   help="claim through a fabric coordinator instead of "
                        "the direct file queue")
    p.add_argument("--lease-seconds", type=float, default=None,
                   help="running-job lease the workers heartbeat against "
                        "(default: 60)")
    p.add_argument("--reap-interval", type=float, default=None,
                   help="parent-side reaper cadence (default: lease/4)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="checkpoint running jobs every N steps")

    p = sub.add_parser("coordinator",
                       help="serve campaign queue shard(s) to remote "
                            "workers over the fabric protocol")
    _add_campaign(p)
    p.add_argument("--shard", action="append", default=[],
                   help="additional queue directory to serve (repeatable; "
                        "the campaign dir is always shard 0)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default: ephemeral, printed)")
    p.add_argument("--lease-seconds", type=float, default=None)
    p.add_argument("--reap-interval", type=float, default=None)
    p.add_argument("--fleet", action="store_true",
                   help="aggregate worker telemetry into windowed "
                        "rollups under <campaign>/fleet/ (DESIGN §13)")

    p = sub.add_parser("status", help="queue counts, per-job states, "
                                      "predicted makespan")
    _add_campaign(p)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("top", help="live mission control: backlog, "
                                   "throughput, ETA, worker health, alerts")
    _add_campaign(p)
    p.add_argument("--fabric", default=None, metavar="HOST:PORT",
                   help="coordinator to read the live fleet view from "
                        "(default: last persisted rollup + queue files)")
    p.add_argument("--once", action="store_true",
                   help="print one board and exit")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh cadence in seconds")
    p.add_argument("-n", "--workers", type=int, default=None,
                   help="worker count for the ETA estimate (default: "
                        "workers seen by the fleet)")

    p = sub.add_parser("merge-trace", help="assemble the campaign-wide "
                       "Perfetto trace: one lane per worker, clock-skew "
                       "normalised")
    _add_campaign(p)
    p.add_argument("-o", "--out", default=None,
                   help="output file (default: <campaign>/campaign-"
                        "trace.json)")

    p = sub.add_parser("cancel", help="cancel a pending job")
    _add_campaign(p)
    p.add_argument("job_id")

    p = sub.add_parser("report", help="aggregate the campaign report")
    _add_campaign(p)
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write the JSON report here "
                        "(default: <campaign>/report.json)")

    p = sub.add_parser("demo", help="end-to-end smoke campaign (CI gate)")
    p.add_argument("-d", "--dir", default="jobs-demo",
                   help="campaign directory (default: jobs-demo)")
    p.add_argument("-n", "--workers", type=int, default=3)
    p.add_argument("--timeout", type=float, default=600.0)

    p = sub.add_parser("fleet-demo", help="fleet observability gate: "
                       "2-worker campaign with telemetry shipping; "
                       "asserts rollups equal the sum of per-worker run "
                       "dirs (CI)")
    p.add_argument("-d", "--dir", default="jobs-fleet-demo",
                   help="campaign directory (default: jobs-fleet-demo; "
                        "wiped)")
    p.add_argument("-n", "--workers", type=int, default=2)
    p.add_argument("--jobs", type=int, default=4)
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--lease-seconds", type=float, default=4.0)

    p = sub.add_parser("chaos", help="fabric chaos matrix: prove "
                                     "exactly-once under injected failure")
    p.add_argument("-d", "--dir", default="jobs-chaos",
                   help="work directory (default: jobs-chaos; wiped)")
    p.add_argument("--quick", action="store_true",
                   help="smaller jobs, shorter partition (CI profile)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", action="append", default=[],
                   choices=["restart", "worker-death", "partition",
                            "dup-storm"],
                   help="run only these scenarios (repeatable)")
    return parser


def _load_specs(args) -> list[RunConfig]:
    from repro.io import preset

    specs = [RunConfig.load(path) for path in args.param]
    specs += [preset(name) for name in args.preset]
    if not specs:
        raise SystemExit("submit: need at least one -p file or --preset")
    return specs


def cmd_submit(args) -> int:
    from .campaign import Campaign

    campaign = Campaign(args.campaign, max_pending=args.max_pending)
    records = []
    for cfg in _load_specs(args):
        if args.sweep:
            field, _, raw = args.sweep.partition("=")
            values = [json.loads(v) for v in raw.split(",")]
            records += campaign.submit_sweep(cfg, field, values,
                                             priority=args.priority)
        else:
            records.append(campaign.submit(
                cfg, priority=args.priority,
                fault_steps=tuple(args.fault_step),
                preempt=args.preempt,
            ))
    for rec in records:
        cost = rec.get("cost") or {}
        print(f"submitted {rec['id']}  priority={rec['priority']}  "
              f"predicted={cost.get('total_seconds', 0.0):.3f}s "
              f"({cost.get('octants', '?')} octants × "
              f"{cost.get('steps', '?')} steps)")
    return 0


def cmd_run_workers(args) -> int:
    from .campaign import Campaign

    campaign = Campaign(args.campaign)
    ok = campaign.run_workers(args.workers, timeout=args.timeout,
                              fabric=args.fabric,
                              lease_seconds=args.lease_seconds,
                              reap_interval=args.reap_interval,
                              checkpoint_every=args.checkpoint_every)
    if campaign.last_requeued:
        print("reaper requeued: " + " ".join(campaign.last_requeued))
    if not ok:
        print("run-workers: timed out before the queue drained",
              file=sys.stderr)
        return 1
    return 0


def cmd_coordinator(args) -> int:
    from .fabric import Coordinator
    from .queue import DEFAULT_LEASE_SECONDS

    lease = (DEFAULT_LEASE_SECONDS if args.lease_seconds is None
             else args.lease_seconds)
    shards = [args.campaign] + list(args.shard)
    coord = Coordinator(args.campaign, shards=shards, host=args.host,
                        port=args.port, lease_seconds=lease,
                        reap_interval=args.reap_interval,
                        fleet=args.fleet or None).start()
    host, port = coord.address
    print(f"coordinator epoch {coord.epoch} serving {len(shards)} "
          f"shard(s) on {host}:{port}  (lease {lease:.0f}s"
          + (", fleet telemetry on" if coord.fleet is not None else "")
          + "; Ctrl-C stops)")
    sys.stdout.flush()
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        coord.stop()
    return 0


def cmd_status(args) -> int:
    from .campaign import Campaign

    status = Campaign(args.campaign).status()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(status, fh, indent=2)
    c = status["counts"]
    print("queue: " + "  ".join(f"{k}={v}" for k, v in c.items()))
    print(f"predicted makespan: "
          f"{status['predicted_makespan_seconds']:.3f}s (device model)")
    for jid, j in status["jobs"].items():
        print(f"  {jid:28s} {j['state']:9s} prio={j['priority']:3d} "
              f"attempts={j['attempts']} preempts={j['preemptions']} "
              f"requeues={j['requeues']} "
              f"predicted={j['predicted_seconds']:.3f}s")
    if status["requeued"]:
        print("requeued jobs:")
        for jid, reasons in status["requeued"].items():
            print(f"  {jid:28s} {', '.join(reasons)}")
    return 0


def cmd_top(args) -> int:
    from .fabric import parse_address
    from .mission import run_top

    fabric = parse_address(args.fabric) if args.fabric else None
    return run_top(args.campaign, fabric=fabric, interval=args.interval,
                   once=args.once, n_workers=args.workers)


def cmd_merge_trace(args) -> int:
    from repro.telemetry import assemble_campaign_trace

    out = args.out or str(pathlib.Path(args.campaign)
                          / "campaign-trace.json")
    merged = assemble_campaign_trace(args.campaign, out=out)
    lanes = merged.get("otherData", {}).get("workers", [])
    print(f"merged {len(merged.get('traceEvents', []))} events into "
          f"{len(lanes)} worker lane(s)"
          + (f" ({', '.join(lanes)})" if lanes else "")
          + f" -> {out}")
    return 0


def cmd_cancel(args) -> int:
    from .queue import JobError, JobQueue

    try:
        rec = JobQueue(args.campaign).cancel(args.job_id)
    except JobError as exc:
        print(f"cancel: {exc}", file=sys.stderr)
        return 1
    print(f"cancelled {rec['id']}")
    return 0


def cmd_report(args) -> int:
    from .campaign import campaign_report, render_report, write_report

    report = campaign_report(args.campaign)
    path = write_report(args.campaign, report)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
    print(render_report(report))
    print(f"report written to {path}")
    return 0


# -- the CI smoke campaign ------------------------------------------------

def _demo_config(name: str, t_end: float) -> RunConfig:
    return RunConfig(
        name=name, solver="wave", domain_half_width=8.0,
        base_level=2, max_level=3, t_end=t_end, courant=0.25,
        ko_sigma=0.05, regrid_every=8, regrid_eps=3e-5,
        extraction_radii=[4.0],
    )


def cmd_demo(args) -> int:
    from repro.resilience import SupervisedRun
    from .campaign import Campaign, campaign_report, render_report, \
        write_report
    from .pool import WorkerPool
    from .worker import state_digest

    root = args.dir
    campaign = Campaign(root)
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        checks.append((label, bool(ok), detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}"
              + (f" — {detail}" if detail else ""))

    # the preemption target is the longest job; its uninterrupted twin
    # runs in-process below and the final states must match bitwise
    target_cfg = _demo_config("preempt-target", t_end=14.0)
    base_cfgs = [_demo_config(f"wave-{i}", t_end=6.0 + i) for i in range(3)]
    fault_cfg = _demo_config("faulty", t_end=6.5)
    urgent_cfg = _demo_config("urgent", t_end=5.5)

    print(f"demo campaign in {root}: submitting jobs")
    target = campaign.submit(target_cfg)
    for cfg in base_cfgs:
        campaign.submit(cfg)
    campaign.submit(fault_cfg, fault_steps=(6,))
    # duplicate of wave-0 (different label, identical physics) at the
    # lowest priority: claimed last, served from the result cache
    dup_cfg = _demo_config("wave-0-duplicate", t_end=6.0)
    dup = campaign.submit(dup_cfg, priority=-1)

    print(f"reference run for {target['id']} (uninterrupted twin)")
    ref_solver = target_cfg.build_solver()
    SupervisedRun(ref_solver).run(
        target_cfg.t_end, regrid_every=target_cfg.regrid_every,
        regrid_eps=target_cfg.regrid_eps, max_level=target_cfg.max_level,
    )
    ref_digest = state_digest(ref_solver.state)

    print(f"starting {args.workers} workers")
    pool = WorkerPool(root, args.workers).start()
    try:
        # wait for the target to be claimed, then submit the urgent job
        # with auto-preemption
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            state = campaign.queue.job(target["id"])["state"]
            if state != "pending":
                break
            time.sleep(0.05)
        if campaign.queue.job(target["id"])["state"] == "running":
            campaign.submit(urgent_cfg, priority=10, preempt=True)
            print(f"submitted urgent job; preemption requested for "
                  f"{target['id']}")
        else:
            campaign.submit(urgent_cfg, priority=10)
            print("target finished before preemption could be requested")
        drained = pool.join(max(1.0, deadline - time.monotonic()))
    finally:
        pool.terminate()
    check("workers drained the queue", drained)

    jobs = campaign.queue.jobs()
    check("≥6 jobs in campaign", len(jobs) >= 6, f"{len(jobs)} jobs")
    bad = {jid: r["state"] for jid, r in jobs.items() if r["state"] != "done"}
    check("every job completed", not bad, str(bad) if bad else "")

    dup_rec = jobs[dup["id"]]
    dup_res = dup_rec.get("result") or {}
    check("duplicate spec served from cache",
          bool(dup_res.get("cached")) and dup_res.get("steps_executed") == 0,
          f"cached={dup_res.get('cached')} "
          f"steps={dup_res.get('steps_executed')}")

    fault_rec = next(r for r in jobs.values()
                     if r["config"]["name"] == "faulty")
    fault_res = fault_rec.get("result") or {}
    check("fault-injected job recovered via rollback",
          (fault_res.get("rollbacks") or 0) >= 1,
          f"rollbacks={fault_res.get('rollbacks')}")

    tgt_rec = jobs[target["id"]]
    tgt_res = tgt_rec.get("result") or {}
    check("target was preempted and resumed",
          tgt_rec["preemptions"] >= 1 and tgt_rec["attempts"] >= 2,
          f"preemptions={tgt_rec['preemptions']} "
          f"attempts={tgt_rec['attempts']}")
    check("preempted run matches uninterrupted twin bitwise",
          tgt_res.get("state_sha256") == ref_digest,
          f"{str(tgt_res.get('state_sha256'))[:12]}… vs {ref_digest[:12]}…")

    report = campaign_report(root)
    priced = [j for j in report["jobs"]
              if j["predicted_seconds"] and (j["actual_wall_seconds"]
                                             or j["cached"])]
    check("report carries predicted-vs-actual cost per job",
          len(priced) == len(report["jobs"]),
          f"{len(priced)}/{len(report['jobs'])} jobs priced")
    path = write_report(root, report)
    print()
    print(render_report(report))
    print(f"report written to {path}")

    failed = [label for label, ok, _ in checks if not ok]
    if failed:
        print(f"\ndemo FAILED: {failed}", file=sys.stderr)
        return 1
    print("\ndemo PASSED: all checks green")
    return 0


def cmd_fleet_demo(args) -> int:
    """The fleet-observability acceptance gate (ISSUE 9): a chaos-free
    2-worker campaign with telemetry shipping on, checked for

    * coordinator rollup counters equal to the **exact** sum of the
      per-worker run-dir ``metrics.jsonl`` final snapshots;
    * a merged Perfetto trace with one lane per executing worker;
    * a ``top --once`` board showing backlog/ETA/worker health and zero
      active alerts;
    * zero delta/event losses and zero merge conflicts.
    """
    import shutil

    from repro.telemetry import assemble_campaign_trace, load_rollups
    from repro.telemetry.fleet import ROLLUPS_FILE, sum_run_dir_counters
    from .campaign import Campaign
    from .fabric import Coordinator
    from .mission import gather, render
    from .pool import WorkerPool

    root = pathlib.Path(args.dir)
    if root.exists():
        shutil.rmtree(root)
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        checks.append((label, bool(ok), detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}"
              + (f" — {detail}" if detail else ""))

    campaign = Campaign(root)
    print(f"fleet demo in {root}: submitting {args.jobs} jobs")
    for i in range(args.jobs):
        campaign.submit(_demo_config(f"fleet-{i}", t_end=3.0 + 0.5 * i),
                        priority=i % 2)

    coord = Coordinator(root, lease_seconds=args.lease_seconds,
                        reap_interval=0.5, fleet=True).start()
    host, port = coord.address
    address = f"{host}:{port}"
    print(f"coordinator on {address} (fleet telemetry on); starting "
          f"{args.workers} workers")
    pool = WorkerPool(root, args.workers, fabric=address,
                      lease_seconds=args.lease_seconds).start()
    try:
        drained = pool.join(args.timeout)
    finally:
        pool.terminate()
    check("workers drained the queue", drained)

    # live mission-control board while the coordinator is still up
    status = gather(root, fabric=(host, port))
    print()
    print(render(status))
    print()
    check("top reads the live fleet view", status.get("source") == "live")
    check("zero active alerts", not status.get("alerts"),
          str(status.get("alerts") or ""))
    jobs = campaign.queue.jobs()
    bad = {j: r["state"] for j, r in jobs.items() if r["state"] != "done"}
    check("every job completed", not bad, str(bad) if bad else "")

    coord.stop()  # writes the final rollup window

    rollups = load_rollups(root / "fleet" / ROLLUPS_FILE)
    check("rollups persisted beside the queue journal", bool(rollups),
          f"{len(rollups)} windows")
    final = rollups[-1] if rollups else {}
    fleet_counters = {
        (c["name"], tuple(sorted(c.get("labels", {}).items()))): c["value"]
        for c in final.get("counters", [])
    }
    expected = sum_run_dir_counters(root)

    def matches(key, value) -> bool:
        got = fleet_counters.get(key)
        if got is None:
            return False
        if float(value).is_integer():  # integral counters must be exact
            return got == value
        return abs(got - value) <= 1e-9 * max(1.0, abs(value))

    mismatched = {
        key: (fleet_counters.get(key), value)
        for key, value in sorted(expected.items())
        if not matches(key, value)
    }
    check("rollup counters equal the exact sum of per-worker run dirs",
          bool(expected) and not mismatched,
          f"{len(expected)} counter series"
          + (f"; mismatched: {mismatched}" if mismatched else ""))

    worker_rows = {w: info for w, info in final.get("workers", {}).items()
                   if w != "coordinator"}
    losses = {w: info["lost_deltas"] + info["lost_events"]
              for w, info in worker_rows.items()
              if info.get("lost_deltas") or info.get("lost_events")}
    check("zero delta/event losses", not losses, str(losses))
    check("zero histogram merge conflicts",
          final.get("merge_conflicts", 0) == 0,
          f"{final.get('merge_conflicts')}")

    run_dir_workers = set()
    for meta_path in root.glob("runs/*/attempt-*/meta.json"):
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        w = meta.get("meta", {}).get("worker")
        if w:
            run_dir_workers.add(w)
    trace_out = root / "campaign-trace.json"
    merged = assemble_campaign_trace(root, out=trace_out)
    lanes = set(merged.get("otherData", {}).get("workers", []))
    check("merged Perfetto trace has one lane per worker",
          bool(lanes) and lanes == run_dir_workers,
          f"lanes={sorted(lanes)} run dirs={sorted(run_dir_workers)}")
    print(f"merged trace written to {trace_out}")

    failed = [label for label, ok, _ in checks if not ok]
    if failed:
        print(f"\nfleet demo FAILED: {failed}", file=sys.stderr)
        return 1
    print("\nfleet demo PASSED: all checks green")
    return 0


def cmd_chaos(args) -> int:
    from .fabric.chaos import render_matrix, run_matrix

    report = run_matrix(args.dir, quick=args.quick, seed=args.seed,
                        scenarios=args.scenario or None)
    print(render_matrix(report))
    if not report["ok"]:
        print("\nchaos matrix FAILED", file=sys.stderr)
        return 1
    print("\nchaos matrix PASSED: every job done exactly once, digests "
          "identical to the fault-free reference")
    return 0


COMMANDS = {
    "submit": cmd_submit,
    "run-workers": cmd_run_workers,
    "coordinator": cmd_coordinator,
    "status": cmd_status,
    "top": cmd_top,
    "merge-trace": cmd_merge_trace,
    "cancel": cmd_cancel,
    "report": cmd_report,
    "demo": cmd_demo,
    "fleet-demo": cmd_fleet_demo,
    "chaos": cmd_chaos,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)
