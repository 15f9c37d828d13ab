"""Campaign orchestration: persistent queue, cost-model scheduler,
worker pool, result cache, preempt/resume (see DESIGN.md §10).

The paper's end product is *campaigns* of runs — convergence series
(Fig. 19), q = 1..8 production runs costed in Tables I/IV, CPU-vs-GPU
waveform pairs (Fig. 21) — and this subsystem is the layer that
schedules, shards, and serves many such runs at once:

* :class:`JobQueue` — crash-safe file-backed JSONL journal with atomic
  state transitions (pending → running → done/failed) under an
  exclusive lock; killed workers are reaped and their jobs resumed;
* :mod:`~repro.jobs.scheduler` — priority classes + shortest-predicted-
  job-first ordering from the §III-D cost model, LPT bin-packing for
  makespan estimates, admission control and backpressure;
* :class:`WorkerPool` / :func:`worker_loop` — multiprocessing workers,
  each driving a job under :class:`repro.resilience.SupervisedRun` with
  its own telemetry run dir, rotating checkpoints, and preempt/resume;
* :class:`ResultCache` — results content-addressed by
  :meth:`repro.io.RunConfig.cache_key`; identical specs never recompute;
* :class:`Campaign` / :func:`campaign_report` — submit-side driver and
  the aggregated predicted-vs-actual / queue-statistics report;
* :mod:`~repro.jobs.fabric` — multi-host coordination (DESIGN.md §12):
  a :class:`~repro.jobs.fabric.Coordinator` serving queue shards over
  length-prefixed JSON RPC with idempotency tokens, retry/backoff
  deadlines, heartbeat-renewed leases, and degraded direct-file
  fallback, plus the four-scenario chaos matrix that proves
  exactly-once execution under faults;
* ``python -m repro.jobs`` — ``submit`` / ``run-workers`` / ``status``
  / ``cancel`` / ``report`` / ``demo`` / ``coordinator`` / ``chaos``.
"""

from repro.rpc import Backoff
from .cache import CacheEntry, ResultCache
from .campaign import (
    Campaign,
    campaign_report,
    render_report,
    write_report,
)
from .pool import WorkerPool
from .queue import (
    CANCELLED,
    DEFAULT_LEASE_SECONDS,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    JobError,
    JobQueue,
    QueueSaturated,
)
from .scheduler import auto_preempt_target, claim_order, pack
from .worker import execute_job, state_digest, worker_loop

__all__ = [
    "CANCELLED",
    "DEFAULT_LEASE_SECONDS",
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "Backoff",
    "CacheEntry",
    "Campaign",
    "JobError",
    "JobQueue",
    "QueueSaturated",
    "ResultCache",
    "WorkerPool",
    "auto_preempt_target",
    "campaign_report",
    "claim_order",
    "execute_job",
    "pack",
    "render_report",
    "state_digest",
    "worker_loop",
    "write_report",
]
