"""Cost-model scheduling policy over queue records.

Pure functions over job-record dicts (see :mod:`repro.jobs.queue`) so
the queue, the CLI, and the tests share one policy:

* :func:`claim_order` — the claim ranking: higher priority class first,
  then *shortest predicted job first* within a class (§III-D cost model
  via :func:`repro.analysis.estimate_run_cost`, persisted on the record
  at submit time), then submission order.  SJF keeps mean queue latency
  low while priorities guarantee urgent work overtakes the backlog.
* :func:`pack` — longest-processing-time-first bin-packing of pending
  work onto ``n`` workers; returns per-worker assignments and the
  predicted makespan (what ``python -m repro.jobs status`` prints).
* :func:`auto_preempt_target` — which running job to checkpoint and
  requeue when a higher-priority submit finds every worker busy: the
  lowest-priority running victim, tie-broken by the largest predicted
  remaining cost (the long job loses the least relative progress).
"""

from __future__ import annotations


def predicted_seconds(record: dict) -> float:
    """Predicted total device seconds of a job (0.0 when no estimate)."""
    cost = record.get("cost") or {}
    return float(cost.get("total_seconds", 0.0))


def claim_key(record: dict) -> tuple:
    """Sort key of the claim ranking (see module docstring); fixed at
    submit time, so the queue can keep its pending jobs sorted by it."""
    return (-record["priority"], predicted_seconds(record), record["seq"])


def claim_order(records) -> list[dict]:
    """Pending records in claim order (see module docstring)."""
    return sorted((r for r in records if r["state"] == "pending"),
                  key=claim_key)


def pack(records, n_workers: int) -> tuple[list[list[dict]], float]:
    """LPT bin-packing of pending+running work onto ``n_workers`` bins.

    Returns ``(assignments, makespan_seconds)`` where ``assignments[i]``
    is worker *i*'s predicted job list.  This is advisory — the live
    queue is work-stealing (workers claim as they free up) — but LPT's
    makespan is a tight estimate of campaign wall time and is what the
    status display reports.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    work = [r for r in records if r["state"] in ("pending", "running")]
    work.sort(key=lambda r: (-predicted_seconds(r), r["seq"]))
    bins: list[list[dict]] = [[] for _ in range(n_workers)]
    loads = [0.0] * n_workers
    for rec in work:
        i = loads.index(min(loads))
        bins[i].append(rec)
        loads[i] += predicted_seconds(rec)
    return bins, max(loads) if loads else 0.0


def auto_preempt_target(records, priority: int) -> dict | None:
    """The running job to preempt for a new job of ``priority``, or None
    when no running job has a strictly lower priority."""
    victims = [
        r for r in records
        if r["state"] == "running" and r["priority"] < priority
        and not r["preempt_requested"]
    ]
    if not victims:
        return None
    victims.sort(key=lambda r: (r["priority"], -predicted_seconds(r), r["seq"]))
    return victims[0]
