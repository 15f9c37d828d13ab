"""Job execution: one claimed record → one supervised, telemetered run.

Each job runs under :class:`repro.resilience.SupervisedRun` with its own
:class:`repro.telemetry.TelemetrySink` run directory
(``<campaign>/runs/<job>/attempt-NN/``), a rotating checkpoint directory
(``<campaign>/checkpoints/<job>/``), the stock :class:`RetryPolicy`, and
an optional deterministic :class:`repro.resilience.FaultInjector` driven
by the job spec's ``fault_steps``.

Preemption: the supervisor polls :meth:`JobQueue.preempt_requested`
before every step; on a request it checkpoints, and the worker requeues
the job with the checkpoint directory attached.  The next claimant finds
a valid checkpoint and resumes — mesh, state, time, step count and
Courant factor restore exactly, and since the job spec re-supplies the
physics, the resumed evolution is bitwise-identical to an uninterrupted
one.

Results are content-addressed: before building a solver the worker
consults the :class:`repro.jobs.ResultCache` and serves an identical
spec without executing a single step (``cached=True``,
``steps_executed=0`` in the result payload).
"""

from __future__ import annotations

import hashlib
import pathlib
import threading
import time
import traceback

import numpy as np

from repro.io import RunConfig, find_latest_valid, restore_wave_solver
from repro.resilience import FaultInjector, RetryPolicy, SupervisedRun
from repro.rpc import Backoff
from repro.telemetry import TelemetrySink
from .cache import ResultCache
from .queue import JobError, JobQueue

RUNS_DIR = "runs"
CHECKPOINTS_DIR = "checkpoints"
CACHE_DIR = "cache"


def state_digest(state: np.ndarray) -> str:
    """sha256 over a solver state (dtype/shape/bytes) — the identity the
    preemption-safety checks compare bitwise."""
    a = np.ascontiguousarray(state)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _build_or_resume(config: RunConfig, checkpoint_dir: pathlib.Path):
    """(solver, resumed_from) — resume from the newest valid checkpoint
    when one exists, else build fresh from the spec."""
    path = None
    if checkpoint_dir.is_dir():
        path = find_latest_valid(checkpoint_dir)
    if path is None:
        return config.build_solver(), None
    if config.solver == "wave":
        return restore_wave_solver(path, ko_sigma=config.ko_sigma,
                                   source=config.wave_source_fn(),
                                   backend=config.backend), path
    from repro.io import restore_solver

    return restore_solver(path, config.bssn_params(),
                          backend=config.backend), path


def _make_extractor(config: RunConfig, solver, resumed_from):
    """(extractor, on_step) archiving the (2,2) mode at the config's
    extraction radii every ``extract_every`` accepted steps.

    Only complete series are archived: a run resumed from a checkpoint
    has already lost its early samples, so extraction is skipped there
    (the cache entry then simply carries no arrays — consumers like the
    catalog ingest treat that as "no waveform", not an error).
    """
    if (config.solver != "wave" or not config.extraction_radii
            or config.extract_every <= 0 or resumed_from is not None):
        return None, None
    from repro.gw import WaveExtractor

    extractor = WaveExtractor(list(config.extraction_radii),
                              l_max=max(2, config.l_max), s=0)
    extractor.sample(solver.mesh, solver.state[0], solver.t)
    counter = {"n": 0}

    def on_step(s) -> None:
        counter["n"] += 1
        if counter["n"] % config.extract_every == 0:
            extractor.sample(s.mesh, s.state[0], s.t)

    return extractor, on_step


def execute_job(root, record: dict, queue: JobQueue, *,
                checkpoint_every: int = 0, metrics_every: int = 5,
                preempt_poll: int = 1,
                lease_lost: threading.Event | None = None,
                shipper=None, worker: str | None = None) -> dict:
    """Run one claimed job record to completion, preemption, or failure.

    Returns the worker-side outcome::

        {"outcome": "done",      "result": {...}}
        {"outcome": "preempted", "checkpoint": "<dir>"}

    Failures propagate as exceptions (the caller records them).

    With a :class:`repro.telemetry.TelemetryShipper` attached, the job's
    sink registry is watched for the duration of the run (its metric
    deltas and recovery events ride the worker's heartbeats to the
    coordinator's fleet aggregator) and the §III-D predicted step time
    is published as the ``job_predicted_step_seconds`` gauge the
    step-time-regression SLO rule compares against.
    """
    root = pathlib.Path(root)
    job_id = record["id"]
    config = RunConfig(**record["config"])
    config.validate()
    cache = ResultCache(root / CACHE_DIR)

    hit = cache.get(record["cache_key"])
    if hit is not None:
        result = dict(hit)
        result.update(cached=True, steps_executed=0)
        return {"outcome": "done", "result": result}

    ckdir = root / CHECKPOINTS_DIR / job_id
    solver, resumed_from = _build_or_resume(config, ckdir)
    start_step = solver.step_count

    attempt_dir = (root / RUNS_DIR / job_id /
                   f"attempt-{record['attempts']:02d}")
    sink = TelemetrySink(attempt_dir, label=job_id,
                         metrics_every=metrics_every,
                         meta={"job": job_id, "cache_key": record["cache_key"],
                               "attempt": record["attempts"],
                               "worker": worker or "",
                               "resumed_from": str(resumed_from or "")})
    if shipper is not None:
        shipper.watch(sink.metrics)
        sink.add_listener(shipper.event)
        per_step = (record.get("cost") or {}).get("per_step_seconds")
        if per_step:
            sink.metrics.gauge("job_predicted_step_seconds").set(per_step)
    injector = None
    if record.get("fault_steps"):
        injector = FaultInjector(seed=record["seq"],
                                 nan_burst_steps=tuple(record["fault_steps"]))

    polls = {"n": 0}

    def preempt_check() -> bool:
        # a lost lease means the job is (or is about to be) someone
        # else's: checkpoint and yield exactly like a preemption
        if lease_lost is not None and lease_lost.is_set():
            return True
        polls["n"] += 1
        if preempt_poll > 1 and polls["n"] % preempt_poll:
            return False
        return queue.preempt_requested(job_id)

    extractor, on_step = _make_extractor(config, solver, resumed_from)

    run = SupervisedRun(
        solver,
        policy=RetryPolicy(),
        journal=sink.journal(attempt_dir / "journal.jsonl"),
        checkpoint_dir=ckdir,
        checkpoint_every=checkpoint_every,
        telemetry=sink,
        injector=injector,
        preempt_check=preempt_check,
    )
    t0 = time.perf_counter()
    try:
        report = run.run(
            config.t_end,
            regrid_every=config.regrid_every,
            regrid_eps=config.regrid_eps,
            max_level=config.max_level,
            on_step=on_step,
        )
    finally:
        sink.finalize(solver)
        run.journal.close()
        if shipper is not None:
            # fold the final (post-finalize) registry diff into pending
            # so the end-of-job push ships exact totals
            shipper.unwatch(sink.metrics)
            sink.remove_listener(shipper.event)
    wall = time.perf_counter() - t0

    if report.get("preempted"):
        return {"outcome": "preempted", "checkpoint": str(ckdir)}

    result = {
        "job": job_id,
        "cache_key": record["cache_key"],
        "cached": False,
        "t": report["t"],
        "step_count": report["step_count"],
        "steps_executed": report["step_count"] - start_step,
        "rollbacks": report["rollbacks"],
        "courant": report["courant"],
        "wall_seconds": wall,
        "state_sha256": state_digest(solver.state),
        "octants": solver.mesh.num_octants,
        "run_dir": str(attempt_dir),
    }
    if config.solver == "wave":
        result["energy"] = solver.energy()
    arrays = None
    if extractor is not None:
        # archive the extracted (2,2) series so the waveform catalog
        # service (repro.serve) can ingest this result without re-running
        arrays = {}
        for r in config.extraction_radii:
            t_ex, h22 = extractor.series(r, 2, 2)
            arrays["times"] = np.asarray(t_ex, dtype=np.float64)
            arrays[f"h22_r{r:g}"] = np.asarray(h22, dtype=complex)
        result["waveform"] = {
            "kind": "wave_phi22",
            "radii": [float(r) for r in config.extraction_radii],
            "samples": int(len(arrays["times"])),
            "l": 2, "m": 2,
        }
        result["physics"] = {
            "solver": config.solver,
            "wave_source": config.wave_source,
            "mass_ratio": float(config.mass_ratio),
            "total_mass": float(config.total_mass),
            "separation": float(config.separation),
            "max_level": int(config.max_level),
            "base_level": int(config.base_level),
            "extraction_radii": [float(r) for r in config.extraction_radii],
        }
    cache.put(record["cache_key"], result, arrays)
    return {"outcome": "done", "result": result}


def _heartbeat_interval(queue) -> float | None:
    """Derive the heartbeat cadence from the queue's lease: renew at a
    third of the lease so two beats can be lost before expiry."""
    lease = getattr(queue, "lease_seconds", None)
    if lease is None:
        info = getattr(queue, "coordinator_info", None)
        lease = (info or {}).get("lease_seconds")
    return max(0.05, float(lease) / 3.0) if lease else None


def worker_loop(root, name: str = "worker", *, poll: float = 0.05,
                idle_timeout: float = 120.0, queue=None,
                heartbeat_interval: float | None = None,
                reap_interval: float | None = None,
                **execute_kwargs) -> dict:
    """Claim-and-run until the queue drains (or idles out).

    ``queue`` defaults to the direct file-backed :class:`JobQueue` on
    ``root``; pass a :class:`repro.jobs.fabric.FabricQueue` to claim
    through a coordinator instead (``root`` stays the shared directory
    that holds runs/checkpoints/cache).

    Idle polling backs off exponentially with full jitter
    (:class:`repro.jobs.Backoff`, base ``poll``, capped at 2 s) so a
    fleet of idle workers does not hammer a shared filesystem or
    coordinator in lockstep; the backoff re-arms on every successful
    claim.  The loop reaps dead workers' jobs on an ``reap_interval``
    cadence (and whenever idle), so a campaign self-heals: a
    ``running`` entry left by a killed process is requeued and — thanks
    to its checkpoint directory — resumed rather than restarted.

    While executing a job the worker renews its lease from a heartbeat
    thread (cadence: a third of the queue's lease).  A heartbeat
    answered ``False`` means the lease was reaped and the job reclaimed
    elsewhere — the run checkpoints and yields at the next step, and
    the stale finish op is discarded by the queue's ownership guard.
    """
    root = pathlib.Path(root)
    if queue is None:
        queue = JobQueue(root)
    shipper = execute_kwargs.pop("shipper", None)
    if shipper is None:
        shipper = getattr(queue, "shipper", None)
    if heartbeat_interval is None:
        heartbeat_interval = _heartbeat_interval(queue)
    if reap_interval is None:
        lease = getattr(queue, "lease_seconds", None)
        reap_interval = max(1.0, lease / 4.0) if lease else 5.0
    stats = {"worker": name, "claimed": 0, "done": 0, "preempted": 0,
             "failed": 0, "cache_hits": 0, "lost_leases": 0}
    idle_since = None
    idle_backoff = Backoff(base=poll, cap=max(poll, 2.0))
    last_reap = time.monotonic()
    while True:
        record = queue.claim(name)
        now = time.monotonic()
        if record is None:
            if queue.drained():
                break
            if now - last_reap >= reap_interval:
                queue.reap()
                last_reap = now
            if idle_since is None:
                idle_since = now
            elif now - idle_since > idle_timeout:
                break
            idle_backoff.sleep()
            continue
        idle_since = None
        idle_backoff.reset()
        stats["claimed"] += 1
        if now - last_reap >= reap_interval:
            queue.reap()
            last_reap = now

        lease_lost = threading.Event()
        hb_stop = threading.Event()
        hb_thread = None
        if heartbeat_interval and hasattr(queue, "heartbeat"):
            hb_thread = threading.Thread(
                target=_heartbeat_loop,
                args=(queue, record["id"], name, heartbeat_interval,
                      hb_stop, lease_lost),
                daemon=True, name=f"heartbeat-{record['id']}",
            )
            hb_thread.start()

        guards = {"worker": name, "attempt": record["attempts"]}
        try:
            outcome = execute_job(root, record, queue,
                                  lease_lost=lease_lost, shipper=shipper,
                                  worker=name, **execute_kwargs)
        except Exception:
            try:
                queue.fail(record["id"], traceback.format_exc(limit=8),
                           **guards)
                stats["failed"] += 1
            except JobError:
                stats["lost_leases"] += 1  # reclaimed: not ours to fail
            continue
        finally:
            hb_stop.set()
            if hb_thread is not None:
                hb_thread.join(2.0)
        if outcome["outcome"] == "preempted":
            try:
                queue.requeue(record["id"],
                              checkpoint=outcome["checkpoint"],
                              reason="preempt", **guards)
                stats["preempted"] += 1
            except JobError:
                stats["lost_leases"] += 1  # reaper already requeued it
        else:
            result = outcome["result"]
            try:
                queue.complete(record["id"], result, **guards)
                stats["done"] += 1
                if result.get("cached"):
                    stats["cache_hits"] += 1
            except JobError:
                # lease lost mid-run and the job was reclaimed — the
                # new owner's completion is the one that counts (our
                # result already landed in the idempotent ResultCache)
                stats["lost_leases"] += 1
        if hasattr(queue, "push_telemetry"):
            # end-of-job full flush: the rollup equals the sum of run
            # dirs without waiting for the next heartbeat window
            queue.push_telemetry()
    if hasattr(queue, "push_telemetry"):
        queue.push_telemetry()  # final flush before the process exits
    if shipper is not None:
        stats["telemetry"] = shipper.stats()
    return stats


def _heartbeat_loop(queue, job_id: str, worker: str, interval: float,
                    stop: threading.Event,
                    lease_lost: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            alive = queue.heartbeat(job_id, worker=worker)
        except Exception:
            continue  # transient: the lease outlives missed beats
        if not alive:
            lease_lost.set()
            return


def worker_main(root: str, name: str, fabric: str | None = None,
                lease_seconds: float | None = None,
                checkpoint_every: int = 0) -> None:
    """Spawn-safe process entry point (used by :class:`WorkerPool` and
    ``python -m repro.jobs run-workers``).

    ``fabric`` is an optional ``host:port`` coordinator address; the
    worker then claims over RPC (degrading to the direct file queue on
    ``root`` when the coordinator is unreachable).
    """
    queue = None
    if fabric:
        from repro.telemetry import TelemetryShipper
        from .fabric import FabricQueue, parse_address

        queue = FabricQueue(parse_address(fabric), roots=[root], name=name,
                            lease_seconds=lease_seconds,
                            shipper=TelemetryShipper(name))
        try:
            queue.attach()
        except Exception:
            pass  # degraded from the start; re-attach probes continue
    elif lease_seconds is not None:
        queue = JobQueue(root, lease_seconds=lease_seconds)
    worker_loop(root, name, queue=queue,
                checkpoint_every=checkpoint_every)
