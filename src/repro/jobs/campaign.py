"""Campaign driver and campaign-level reporting.

A *campaign* is one directory owning a persistent queue, a result
cache, per-job telemetry run dirs, and per-job checkpoint dirs::

    campaign/
      queue.jsonl     queue.lock
      cache/<cache_key>/result.json
      runs/<job>/attempt-NN/{meta.json,trace.json,metrics.jsonl,
                             events.jsonl,journal.jsonl}
      checkpoints/<job>/chk_*.npz
      report.json     # written by `python -m repro.jobs report`

:class:`Campaign` is the submit-side API: it validates specs, prices
them with the §III-D cost model (:func:`repro.analysis.estimate_run_cost`),
enforces admission control, and — for high-priority submits — requests
preemption of a lower-priority running job when every worker is busy.

:func:`campaign_report` aggregates the queue journal, per-job results,
and per-attempt run journals into one predicted-vs-actual report with
queue latency and throughput statistics.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

import numpy as np

from repro.io import RunConfig
from .pool import WorkerPool
from .queue import DONE, RUNNING, JobQueue
from .scheduler import auto_preempt_target, pack, predicted_seconds

REPORT_FILE = "report.json"


class Campaign:
    """Submit-side handle on a campaign directory."""

    def __init__(self, root, *, max_pending: int | None = None,
                 lease_seconds: float | None = None):
        self.root = pathlib.Path(root)
        self.queue = JobQueue(self.root, max_pending=max_pending,
                              lease_seconds=lease_seconds)
        #: job ids the parent-side reaper requeued during run_workers()
        self.last_requeued: list[str] = []

    def submit(self, config: RunConfig, *, priority: int = 0,
               fault_steps=(), preempt: bool = False) -> dict:
        """Validate, price, and enqueue one job spec.

        ``preempt=True`` additionally requests preemption of the
        lowest-priority running job (if any has priority strictly below
        this submit) so an urgent job doesn't wait behind a long run.
        Raises :class:`repro.jobs.QueueSaturated` under backpressure and
        ``ValueError`` for malformed specs — both at submit time, never
        inside a worker.
        """
        from repro.analysis import estimate_run_cost

        config.validate()
        cost = estimate_run_cost(config)
        rec = self.queue.submit(
            dataclasses.asdict(config),
            cache_key=config.cache_key(),
            priority=priority,
            fault_steps=fault_steps,
            cost=dataclasses.asdict(cost),
        )
        if preempt:
            victim = auto_preempt_target(
                self.queue.jobs((RUNNING,)).values(), priority)
            if victim is not None:
                self.queue.request_preempt(victim["id"])
        return rec

    def submit_sweep(self, base: RunConfig, field: str, values, *,
                     priority: int = 0) -> list[dict]:
        """Submit one job per value of ``field`` (e.g. a ``regrid_eps``
        convergence series), named ``<base>-<field>-<value>``."""
        records = []
        for value in values:
            cfg = RunConfig(**dataclasses.asdict(base))
            if not hasattr(cfg, field):
                raise ValueError(f"RunConfig has no field {field!r}")
            setattr(cfg, field, value)
            cfg.name = f"{base.name}-{field}-{value}"
            records.append(self.submit(cfg, priority=priority))
        return records

    def run_workers(self, n: int, *, timeout: float | None = None,
                    fabric: str | None = None,
                    lease_seconds: float | None = None,
                    reap_interval: float | None = None,
                    checkpoint_every: int = 0) -> bool:
        """Start ``n`` workers and block until the queue drains.

        The parent runs the reaper on a cadence while it waits (default:
        a quarter of the workers' lease), so jobs whose worker died are
        requeued even when every surviving worker is busy; requeued ids
        accumulate in :attr:`last_requeued`.  ``fabric`` attaches the
        workers to a coordinator at ``host:port`` instead of the direct
        file queue (the coordinator then owns reaping).
        """
        from .queue import DEFAULT_LEASE_SECONDS

        lease = (DEFAULT_LEASE_SECONDS if lease_seconds is None
                 else float(lease_seconds))
        if reap_interval is None:
            reap_interval = max(0.5, lease / 4.0)
        pool = WorkerPool(self.root, n, fabric=fabric, lease_seconds=lease,
                          checkpoint_every=checkpoint_every).start()
        self.last_requeued: list[str] = []
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            step = reap_interval
            if deadline is not None:
                step = min(step, max(0.0, deadline - time.monotonic()))
            ok = pool.join(step)
            if fabric is None:  # attached workers: the coordinator reaps
                try:
                    self.last_requeued += self.queue.reap()
                except OSError:
                    pass
            if ok:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                pool.terminate()
                return False

    def status(self) -> dict:
        """Counts, per-job states, requeue history, and the predicted
        makespan."""
        jobs = self.queue.jobs()
        _, makespan = pack(jobs.values(), max(1, _running_workers(jobs)))
        requeued = {
            jid: [f"{q['reason']}@{q['wall']:.0f}"
                  for q in r.get("requeues", [])]
            for jid, r in sorted(jobs.items()) if r.get("requeues")
        }
        return {
            "counts": self.queue.counts(),
            "predicted_makespan_seconds": makespan,
            "requeued": requeued,
            "jobs": {
                jid: {
                    "state": r["state"], "priority": r["priority"],
                    "attempts": r["attempts"],
                    "preemptions": r["preemptions"],
                    "requeues": len(r.get("requeues", [])),
                    "predicted_seconds": predicted_seconds(r),
                    "worker": r["worker"],
                }
                for jid, r in sorted(jobs.items())
            },
        }


def _running_workers(jobs: dict) -> int:
    return len({r["worker"] for r in jobs.values()
                if r["state"] == "running"})


def campaign_report(root) -> dict:
    """Aggregate one campaign directory into a structured report."""
    root = pathlib.Path(root)
    jobs = JobQueue(root).jobs()
    per_job = []
    recovery = {"rollbacks": 0, "preemptions": 0, "fault_injections": 0,
                "checkpoints": 0}
    latencies, walls = [], []
    for jid, rec in sorted(jobs.items()):
        result = rec.get("result") or {}
        predicted = predicted_seconds(rec)
        actual = result.get("wall_seconds")
        latency = (rec["claimed"] - rec["submitted"]
                   if rec["claimed"] is not None else None)
        if latency is not None:
            latencies.append(latency)
        if actual is not None and not result.get("cached"):
            walls.append(actual)
        events = _job_journal_kinds(root, jid)
        recovery["rollbacks"] += events.get("rollback", 0)
        recovery["preemptions"] += rec["preemptions"]
        recovery["fault_injections"] += events.get("fault-injected", 0)
        recovery["checkpoints"] += events.get("checkpoint", 0)
        per_job.append({
            "id": jid,
            "name": rec["config"].get("name"),
            "state": rec["state"],
            "priority": rec["priority"],
            "attempts": rec["attempts"],
            "preemptions": rec["preemptions"],
            "cached": bool(result.get("cached")),
            "predicted_seconds": predicted,
            "actual_wall_seconds": actual,
            "actual_over_predicted": (actual / predicted
                                      if actual and predicted else None),
            "steps_executed": result.get("steps_executed"),
            "rollbacks": result.get("rollbacks"),
            "queue_latency_seconds": latency,
            "journal_events": events,
            "error": rec.get("error"),
        })
    submitted = [r["submitted"] for r in jobs.values()]
    finished = [r["finished"] for r in jobs.values() if r["finished"]]
    span = (max(finished) - min(submitted)) if submitted and finished else None
    done = sum(1 for r in jobs.values() if r["state"] == DONE)
    report = {
        "generated": time.time(),
        "campaign": str(root),
        "counts": {s: sum(1 for r in jobs.values() if r["state"] == s)
                   for s in ("pending", "running", "done", "failed",
                             "cancelled")},
        "cache_hits": sum(1 for j in per_job if j["cached"]),
        "recovery": recovery,
        "queue": {
            "span_seconds": span,
            "throughput_jobs_per_hour": (3600.0 * done / span
                                         if span else None),
            "mean_latency_seconds": (float(np.mean(latencies))
                                     if latencies else None),
            "max_latency_seconds": (float(np.max(latencies))
                                    if latencies else None),
        },
        "cost_model": _cost_model_summary(per_job),
        "jobs": per_job,
    }
    return report


def _job_journal_kinds(root: pathlib.Path, job_id: str) -> dict[str, int]:
    """Per-kind event counts across every attempt journal of one job."""
    from repro.resilience.journal import read_journal

    kinds: dict[str, int] = {}
    job_dir = root / "runs" / job_id
    if not job_dir.is_dir():
        return kinds
    for journal in sorted(job_dir.glob("attempt-*/journal.jsonl")):
        try:
            events = read_journal(journal)
        except (OSError, json.JSONDecodeError):
            continue
        for e in events:
            kinds[e.get("kind", "?")] = kinds.get(e.get("kind", "?"), 0) + 1
    return kinds


def _cost_model_summary(per_job: list[dict]) -> dict:
    """Predicted-vs-actual aggregate: totals and the rank correlation
    between modeled cost and measured wall time (the §III-D model
    predicts *device* time — proportionality, not host wall-clock)."""
    pairs = [
        (j["predicted_seconds"], j["actual_wall_seconds"])
        for j in per_job
        if not j["cached"] and j["actual_wall_seconds"]
        and j["predicted_seconds"]
    ]
    out = {
        "total_predicted_seconds": sum(j["predicted_seconds"]
                                       for j in per_job),
        "total_actual_wall_seconds": sum(j["actual_wall_seconds"] or 0.0
                                         for j in per_job),
        "jobs_compared": len(pairs),
        "rank_correlation": None,
    }
    if len(pairs) >= 3:
        pred, act = map(np.asarray, zip(*pairs))
        rp = np.argsort(np.argsort(pred)).astype(float)
        ra = np.argsort(np.argsort(act)).astype(float)
        denom = float(np.std(rp) * np.std(ra))
        if denom > 0:
            out["rank_correlation"] = float(
                np.mean((rp - rp.mean()) * (ra - ra.mean())) / denom
            )
    return out


def write_report(root, report: dict | None = None) -> pathlib.Path:
    """Materialise ``report.json`` inside the campaign directory."""
    root = pathlib.Path(root)
    if report is None:
        report = campaign_report(root)
    path = root / REPORT_FILE
    path.write_text(json.dumps(report, indent=2, default=str) + "\n",
                    encoding="utf-8")
    return path


def render_report(report: dict) -> str:
    """Human-readable rendering of :func:`campaign_report` output."""
    lines = [f"campaign {report['campaign']}"]
    c = report["counts"]
    lines.append(
        "  jobs: " + "  ".join(f"{k}={v}" for k, v in c.items() if v)
    )
    q = report["queue"]
    if q["span_seconds"]:
        lines.append(
            f"  span {q['span_seconds']:.1f}s · "
            f"throughput {q['throughput_jobs_per_hour']:.0f} jobs/h · "
            f"queue latency mean {q['mean_latency_seconds']:.2f}s "
            f"max {q['max_latency_seconds']:.2f}s"
        )
    r = report["recovery"]
    lines.append(
        f"  recovery: rollbacks={r['rollbacks']} "
        f"preemptions={r['preemptions']} "
        f"faults={r['fault_injections']} checkpoints={r['checkpoints']} "
        f"cache_hits={report['cache_hits']}"
    )
    cm = report["cost_model"]
    corr = cm["rank_correlation"]
    lines.append(
        f"  cost model: predicted {cm['total_predicted_seconds']:.3f}s "
        f"(device) vs actual {cm['total_actual_wall_seconds']:.1f}s (wall)"
        + (f" · rank corr {corr:.2f}" if corr is not None else "")
    )
    hdr = (f"  {'job':28s} {'state':9s} {'prio':>4s} {'att':>3s} "
           f"{'pre':>3s} {'cache':5s} {'pred[s]':>8s} {'wall[s]':>8s} "
           f"{'lat[s]':>7s}")
    lines.append(hdr)
    for j in report["jobs"]:
        wall = j["actual_wall_seconds"]
        lat = j["queue_latency_seconds"]
        lines.append(
            f"  {j['id'][:28]:28s} {j['state']:9s} {j['priority']:4d} "
            f"{j['attempts']:3d} {j['preemptions']:3d} "
            f"{'hit' if j['cached'] else '-':5s} "
            f"{j['predicted_seconds']:8.3f} "
            + (f"{wall:8.2f}" if wall is not None else f"{'-':>8s}")
            + (f" {lat:7.2f}" if lat is not None else f" {'-':>7s}")
        )
    return "\n".join(lines)
