"""E-jobs — campaign orchestration overhead: persistent-queue op
throughput, scheduler policy cost, and end-to-end campaign overhead
(orchestration wall time not spent inside solvers).

Four measurements:

* ``queue`` — submit / claim / complete ops per second on the
  file-backed JSONL queue (every op is lock + read of the journal bytes
  appended since the handle's previous op + fsync'd append, so this is
  the durable-op cost and must not grow with journal length);
* ``queue_scaling`` — median ``claim`` and ``complete`` latency with
  1 000 and with 10 000 jobs in the queue; the run fails when either
  median at the larger size exceeds 1.5× the one at the smaller;
* ``scheduler`` — :func:`repro.jobs.claim_order` and
  :func:`repro.jobs.pack` cost on a large synthetic backlog (pure
  in-memory policy — this must be negligible next to any queue op);
* ``campaign`` — a tiny in-process campaign (3 wave jobs, 1 worker):
  jobs/hour plus the orchestration fraction = 1 − (solver wall /
  campaign span), which is EXPERIMENTS.md's scheduler-overhead number.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_jobs_throughput.py --quick \
        --json benchmarks/output/jobs_throughput.json

or via pytest (quick mode): ``pytest benchmarks/bench_jobs_throughput.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

from repro.io import RunConfig
from repro.jobs import Campaign, JobQueue, campaign_report, claim_order, pack, worker_loop

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def bench_queue_ops(root, n_jobs: int) -> dict:
    """Durable queue-op throughput over a full submit→claim→complete
    pass of ``n_jobs`` jobs."""
    q = JobQueue(root)

    t0 = time.perf_counter()
    for i in range(n_jobs):
        q.submit({"name": f"job{i}"}, cache_key=f"key{i:06d}",
                 cost={"total_seconds": 1.0})
    t_submit = time.perf_counter() - t0

    t0 = time.perf_counter()
    claimed = []
    while True:
        rec = q.claim("bench")
        if rec is None:
            break
        claimed.append(rec["id"])
    t_claim = time.perf_counter() - t0

    t0 = time.perf_counter()
    for job_id in claimed:
        q.complete(job_id, {"ok": True})
    t_complete = time.perf_counter() - t0

    assert len(claimed) == len(set(claimed)) == n_jobs  # no double-claims
    total = t_submit + t_claim + t_complete
    return {
        "n_jobs": n_jobs,
        "submit_ops_per_sec": n_jobs / t_submit,
        "claim_ops_per_sec": n_jobs / t_claim,
        "complete_ops_per_sec": n_jobs / t_complete,
        "overall_ops_per_sec": 3 * n_jobs / total,
        "mean_op_ms": 1e3 * total / (3 * n_jobs),
    }


#: queue sizes of the scaling series, and how far an op's median latency
#: at the larger may exceed the one at the smaller
SCALING_SIZES = (1_000, 10_000)
SCALING_LIMIT = 1.5


def bench_queue_scaling(root, samples: int = 200, blocks: int = 10) -> dict:
    """Median ``claim`` / ``complete`` latency at each of
    ``SCALING_SIZES`` jobs in the queue (``samples`` timed pairs on the
    handle that submitted them): an op's cost must follow what it
    appends, not the journal behind it.  The sizes are timed in
    alternating blocks so a drift of the disk's fsync time lands on
    both."""
    queues, lat = {}, {}
    for n_jobs in SCALING_SIZES:
        q = queues[n_jobs] = JobQueue(pathlib.Path(root) / f"n{n_jobs}")
        lat[n_jobs] = {"claim": [], "complete": []}
        for i in range(n_jobs):
            q.submit({"name": f"job{i}"}, cache_key=f"key{i:06d}",
                     cost={"total_seconds": 1.0 + i % 7})
    for _ in range(blocks):
        for n_jobs, q in queues.items():
            for _ in range(samples // blocks):
                t0 = time.perf_counter()
                rec = q.claim("bench")
                t1 = time.perf_counter()
                q.complete(rec["id"], {"ok": True}, worker="bench",
                           attempt=rec["attempts"])
                lat[n_jobs]["complete"].append(time.perf_counter() - t1)
                lat[n_jobs]["claim"].append(t1 - t0)
    sizes = {n: {f"{op}_p50_ms": 1e3 * statistics.median(v)
                 for op, v in per_op.items()}
             for n, per_op in lat.items()}
    small, large = (sizes[n] for n in SCALING_SIZES)
    ratios = {op: large[f"{op}_p50_ms"] / small[f"{op}_p50_ms"]
              for op in ("claim", "complete")}
    return {
        "samples": samples,
        "sizes": {str(n): v for n, v in sizes.items()},
        "ratios": ratios,
        "limit": SCALING_LIMIT,
        "within_limit": max(ratios.values()) <= SCALING_LIMIT,
    }


def _claim_complete_pass(q, n_jobs: int, worker: str) -> float:
    """Seconds for a full claim→complete drain of ``n_jobs`` jobs."""
    t0 = time.perf_counter()
    done = 0
    while done < n_jobs:
        rec = q.claim(worker)
        assert rec is not None
        q.complete(rec["id"], {"ok": True}, worker=worker,
                   attempt=rec["attempts"])
        done += 1
    return time.perf_counter() - t0


def bench_fabric(root, n_jobs: int) -> dict:
    """Fabric RPC overhead on the claim/complete path: the same durable
    drain once against the direct file queue and once through a live
    localhost :class:`repro.jobs.fabric.Coordinator`.  The acceptance
    bar (ISSUE 8) was ≤ 10% overhead when a direct op replayed the
    journal (1.5-2 ms); the direct op is now one fsync'd append
    (~0.3 ms), so the same socket hop is a larger fraction of it —
    ``hop_ms`` is the number to watch."""
    from repro.jobs.fabric import Coordinator, FabricQueue

    root = pathlib.Path(root)
    for mode in ("direct", "fabric"):
        q = JobQueue(root / mode)
        for i in range(n_jobs):
            q.submit({"name": f"job{i}"}, cache_key=f"key{i:06d}",
                     cost={"total_seconds": 1.0})

    t_direct = _claim_complete_pass(
        JobQueue(root / "direct"), n_jobs, "bench")
    with Coordinator(root / "fabric", lease_seconds=600.0,
                     reap_interval=600.0) as coord:
        fq = FabricQueue(coord.address, name="bench")
        fq.attach()
        t_fabric = _claim_complete_pass(fq, n_jobs, "bench")

    overhead = (t_fabric - t_direct) / t_direct
    return {
        "n_jobs": n_jobs,
        "direct_ops_per_sec": 2 * n_jobs / t_direct,
        "fabric_ops_per_sec": 2 * n_jobs / t_fabric,
        "direct_mean_op_ms": 1e3 * t_direct / (2 * n_jobs),
        "fabric_mean_op_ms": 1e3 * t_fabric / (2 * n_jobs),
        "hop_ms": 1e3 * (t_fabric - t_direct) / (2 * n_jobs),
        "overhead_fraction": overhead,
        "acceptance_overhead_fraction": 0.10,
        "within_acceptance": overhead <= 0.10,
    }


def bench_fleet_shipping(root, n_jobs: int, reps: int = 3) -> dict:
    """Fleet-telemetry shipping overhead on the fabric claim/complete
    path (ISSUE 9): the same localhost drain once with no fleet
    aggregation and once with a live :class:`TelemetryShipper` flushing
    bounded deltas to the coordinator at a realistic ~0.2 s cadence.
    Min-of-``reps`` on both sides; the acceptance bar is ≤ 2% —
    shipping rides ops that each already pay an fsync'd append."""
    from repro.jobs.fabric import Coordinator, FabricQueue
    from repro.telemetry.fleet import TelemetryShipper

    root = pathlib.Path(root)
    times: dict[str, list[float]] = {"plain": [], "fleet": []}
    for rep in range(reps):
        # alternate the order each rep so slow drift (page cache, CPU
        # frequency) cancels instead of biasing one side
        order = ("plain", "fleet") if rep % 2 == 0 else ("fleet", "plain")
        for mode in order:
            sub = root / f"{mode}-{rep}"
            q = JobQueue(sub)
            for i in range(n_jobs):
                q.submit({"name": f"job{i}"}, cache_key=f"key{i:06d}",
                         cost={"total_seconds": 1.0})
            fleet = mode == "fleet"
            with Coordinator(sub, lease_seconds=600.0,
                             reap_interval=600.0,
                             fleet=fleet or None) as coord:
                shipper = TelemetryShipper("bench") if fleet else None
                fq = FabricQueue(coord.address, name="bench",
                                 shipper=shipper)
                fq.attach()
                t0 = time.perf_counter()
                last_ship = t0
                done = 0
                while done < n_jobs:
                    rec = fq.claim("bench")
                    assert rec is not None
                    fq.complete(rec["id"], {"ok": True}, worker="bench",
                                attempt=rec["attempts"])
                    done += 1
                    if shipper is not None:
                        shipper.registry.counter("steps_total").inc(25)
                        now = time.perf_counter()
                        if now - last_ship >= 0.2:
                            fq.push_telemetry()
                            last_ship = now
                if shipper is not None:
                    fq.push_telemetry()
                times[mode].append(time.perf_counter() - t0)

    t_plain = min(times["plain"])
    t_fleet = min(times["fleet"])
    overhead = (t_fleet - t_plain) / t_plain
    return {
        "n_jobs": n_jobs,
        "reps": reps,
        "plain_seconds": t_plain,
        "fleet_seconds": t_fleet,
        "plain_mean_op_ms": 1e3 * t_plain / (2 * n_jobs),
        "fleet_mean_op_ms": 1e3 * t_fleet / (2 * n_jobs),
        "overhead_fraction": overhead,
        "acceptance_overhead_fraction": 0.02,
        "within_acceptance": overhead <= 0.02,
    }


def bench_scheduler(n_records: int) -> dict:
    """Pure policy cost on a synthetic backlog (no I/O)."""
    records = [
        {"id": f"j{i:06d}", "seq": i, "state": "pending",
         "priority": i % 3, "preempt_requested": False,
         "cost": {"total_seconds": 0.5 + (i * 7919) % 100}}
        for i in range(n_records)
    ]
    t0 = time.perf_counter()
    order = claim_order(records)
    t_order = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, makespan = pack(records, 16)
    t_pack = time.perf_counter() - t0
    assert len(order) == n_records
    return {
        "n_records": n_records,
        "claim_order_ms": 1e3 * t_order,
        "pack_ms": 1e3 * t_pack,
        "predicted_makespan_seconds": makespan,
    }


def _tiny_cfg(name: str, t_end: float) -> RunConfig:
    return RunConfig(name=name, solver="wave", domain_half_width=8.0,
                     base_level=1, max_level=2, t_end=t_end, courant=0.25,
                     ko_sigma=0.05, regrid_every=4, regrid_eps=3e-5,
                     extraction_radii=[4.0])


def bench_campaign(root, n_jobs: int = 3) -> dict:
    """Jobs/hour and orchestration fraction for a tiny 1-worker
    campaign (queue + telemetry + checkpoint cost around the solver)."""
    campaign = Campaign(root)
    for i in range(n_jobs):
        campaign.submit(_tiny_cfg(f"bench-{i}", t_end=0.5 + 0.25 * i))
    t0 = time.perf_counter()
    stats = worker_loop(root, "bench")
    span = time.perf_counter() - t0
    assert stats["done"] == n_jobs

    report = campaign_report(root)
    solver_wall = sum(j["actual_wall_seconds"] or 0.0 for j in report["jobs"])
    return {
        "n_jobs": n_jobs,
        "span_seconds": span,
        "solver_wall_seconds": solver_wall,
        "orchestration_fraction": max(0.0, 1.0 - solver_wall / span),
        "jobs_per_hour": 3600.0 * n_jobs / span,
    }


def run_benchmark(quick: bool = False) -> dict:
    n_queue = 60 if quick else 200
    n_sched = 2_000 if quick else 20_000
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-jobs-"))
    try:
        queue_stats = bench_queue_ops(tmp / "queue-bench", n_queue)
        scaling_stats = bench_queue_scaling(tmp / "scaling-bench")
        fabric_stats = bench_fabric(tmp / "fabric-bench", n_queue)
        shipping_stats = bench_fleet_shipping(
            tmp / "fleet-bench", n_queue, reps=3 if quick else 5)
        sched_stats = bench_scheduler(n_sched)
        campaign_stats = bench_campaign(tmp / "campaign-bench")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "schema": "repro-bench-jobs-v1",
        "quick": quick,
        "queue": queue_stats,
        "queue_scaling": scaling_stats,
        "fabric": fabric_stats,
        "fleet_shipping": shipping_stats,
        "scheduler": sched_stats,
        "campaign": campaign_stats,
    }


def render(report: dict) -> str:
    q, s, c = report["queue"], report["scheduler"], report["campaign"]
    f = report["fabric"]
    fs = report["fleet_shipping"]
    sc = report["queue_scaling"]
    scaling = [
        f"  {int(n):>6} jobs: claim {v['claim_p50_ms']:.3f} ms · "
        f"complete {v['complete_p50_ms']:.3f} ms"
        for n, v in sc["sizes"].items()
    ]
    return "\n".join([
        "campaign orchestration benchmark"
        + (" [quick]" if report["quick"] else ""),
        f"queue ({q['n_jobs']} jobs, durable JSONL + flock + fsync):",
        f"  submit   {q['submit_ops_per_sec']:>8.0f} ops/s",
        f"  claim    {q['claim_ops_per_sec']:>8.0f} ops/s",
        f"  complete {q['complete_ops_per_sec']:>8.0f} ops/s",
        f"  mean durable op: {q['mean_op_ms']:.2f} ms",
        f"queue scaling (median of {sc['samples']} ops at each size):",
        *scaling,
        f"  ratio claim {sc['ratios']['claim']:.2f}× · complete "
        f"{sc['ratios']['complete']:.2f}× "
        f"({'within' if sc['within_limit'] else 'OVER'} "
        f"the ≤{sc['limit']}× limit)",
        f"fabric RPC vs direct files ({f['n_jobs']} jobs, "
        f"claim/complete):",
        f"  direct {f['direct_mean_op_ms']:.2f} ms/op · fabric "
        f"{f['fabric_mean_op_ms']:.2f} ms/op · hop "
        f"{f['hop_ms']:+.2f} ms · overhead "
        f"{f['overhead_fraction'] * 100:+.1f}% "
        f"({'within' if f['within_acceptance'] else 'OVER'} "
        f"the ≤10% acceptance)",
        f"fleet telemetry shipping ({fs['n_jobs']} jobs, min of "
        f"{fs['reps']} reps):",
        f"  plain {fs['plain_mean_op_ms']:.2f} ms/op · shipping "
        f"{fs['fleet_mean_op_ms']:.2f} ms/op · overhead "
        f"{fs['overhead_fraction'] * 100:+.1f}% "
        f"({'within' if fs['within_acceptance'] else 'OVER'} "
        f"the ≤2% acceptance)",
        f"scheduler policy ({s['n_records']} records, in-memory):",
        f"  claim_order {s['claim_order_ms']:>8.2f} ms"
        f"   pack(16 workers) {s['pack_ms']:>8.2f} ms",
        f"campaign ({c['n_jobs']} tiny wave jobs, 1 in-process worker):",
        f"  span {c['span_seconds']:.2f}s · solver wall "
        f"{c['solver_wall_seconds']:.2f}s · orchestration "
        f"{c['orchestration_fraction'] * 100:.1f}% · "
        f"{c['jobs_per_hour']:.0f} jobs/h",
    ])


def test_jobs_throughput_quick():
    """Pytest entry: quick-mode run with sanity floors."""
    report = run_benchmark(quick=True)
    q = report["queue"]
    assert q["overall_ops_per_sec"] > 5.0  # durable ops, generous floor
    assert report["queue_scaling"]["within_limit"], report["queue_scaling"]
    # the 10% acceptance number is recorded in the JSON; under pytest on
    # a noisy CI box only guard against something pathological
    assert report["fabric"]["hop_ms"] < 1.0
    # the 2% shipping acceptance is recorded in the JSON; under pytest
    # only guard against shipping dominating the drain outright
    assert report["fleet_shipping"]["overhead_fraction"] < 0.5
    assert report["scheduler"]["claim_order_ms"] < 1_000.0
    # orchestration must not dominate even jobs this tiny (~10 steps)
    assert report["campaign"]["orchestration_fraction"] < 0.9
    print("\n" + render(report))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller job counts (CI smoke run)")
    ap.add_argument("--json", type=pathlib.Path, default=None,
                    help="write the machine-readable report here")
    args = ap.parse_args()
    report = run_benchmark(quick=args.quick)
    text = render(report)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "jobs_throughput.txt").write_text(text + "\n")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    if not report["queue_scaling"]["within_limit"]:
        sys.exit("queue op latency grows with the number of jobs queued")


if __name__ == "__main__":
    main()
