"""Chaos matrix: prove the fabric's guarantees under injected failure.

Four scenarios, each a miniature campaign of real wave evolutions run
through a live :class:`Coordinator` while one specific failure mode is
injected (seeded, reproducible):

``restart``
    the coordinator is killed mid-campaign and a fresh one is started
    on the same directory — the journal replays, the epoch increments,
    workers reconnect (or ride out the outage on retry/degraded mode).
``worker-death``
    a worker is SIGKILLed while it owns a long checkpointing job; its
    lease expires, the reaper requeues the job, and a surviving worker
    resumes it from the checkpoint.
``partition``
    a :class:`repro.resilience.ChaosProxy` between workers and
    coordinator drops the link for several seconds; workers degrade to
    direct-file mode, keep working, and the link heals.
``dup-storm``
    the proxy duplicates, drops, and delays frames at high probability;
    idempotency tokens must collapse every duplicate/retry to a single
    application.

Every scenario must end with **every job done exactly once** (one
``done`` op per job in the shard journal, zero failures) and with
**result digests identical to a fault-free reference run** of the same
specs (``state_sha256`` per cache key) — the exactly-once and
determinism claims of DESIGN §12, checked end to end.

Run it: ``python -m repro.jobs chaos [--quick]``; the report lands in
``<dir>/chaos-report.json``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

from repro.io import RunConfig
from repro.telemetry import MetricsRegistry
from ..campaign import Campaign
from ..queue import DONE, JobQueue
from ..pool import WorkerPool
from ..worker import worker_loop
from .client import FabricQueue
from .coordinator import Coordinator

SCENARIOS = ("restart", "worker-death", "partition", "dup-storm")


# -- job specs ------------------------------------------------------------
def chaos_config(name: str, t_end: float, *, max_level: int = 2) -> RunConfig:
    """One small-but-real wave evolution (~0.1 s per unit of t_end)."""
    return RunConfig(
        name=name, solver="wave", domain_half_width=8.0,
        base_level=1, max_level=max_level, t_end=t_end, courant=0.25,
        ko_sigma=0.05, regrid_every=8, regrid_eps=3e-5,
        extraction_radii=[4.0],
    )


def _standard_set(quick: bool) -> list[RunConfig]:
    n, t0 = (5, 2.0) if quick else (8, 4.0)
    return [chaos_config(f"chaos-{i}", t0 + 0.5 * i) for i in range(n)]


def _death_set(quick: bool) -> list[RunConfig]:
    long_t = 8.0 if quick else 16.0
    cfgs = [chaos_config("chaos-long", long_t)]
    cfgs += _standard_set(quick)[:3]
    return cfgs


# -- checks ---------------------------------------------------------------
def exactly_once(root) -> dict:
    """Audit one shard directory: every submitted job DONE, with exactly
    one ``done`` op in the journal (the literal exactly-once check)."""
    queue = JobQueue(root)
    jobs = queue.jobs()
    done_ops: dict[str, int] = {}
    for op in queue._ops():
        if op.get("op") == "done":
            done_ops[op["id"]] = done_ops.get(op["id"], 0) + 1
    problems = []
    for jid, rec in sorted(jobs.items()):
        if rec["state"] != DONE:
            problems.append(f"{jid}: state={rec['state']}")
        if done_ops.get(jid, 0) != 1:
            problems.append(f"{jid}: {done_ops.get(jid, 0)} done ops")
    return {"ok": not problems, "jobs": len(jobs), "problems": problems}


def digests(root) -> dict[str, str]:
    """cache_key → state_sha256 for every finished job under ``root``."""
    out = {}
    for rec in JobQueue(root).jobs().values():
        result = rec.get("result") or {}
        if result.get("state_sha256"):
            out[rec["cache_key"]] = result["state_sha256"]
    return out


def _digest_match(reference: dict, observed: dict) -> dict:
    missing = sorted(set(observed) - set(reference))
    diffs = sorted(k for k in observed
                   if k in reference and observed[k] != reference[k])
    return {"ok": not missing and not diffs and bool(observed),
            "compared": len(observed), "mismatched": diffs,
            "unreferenced": missing}


def _wait(pred, timeout: float, poll: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(poll)
    return False


def _submit_all(root, cfgs) -> Campaign:
    campaign = Campaign(root)
    for cfg in cfgs:
        campaign.submit(cfg)
    return campaign


# -- reference run --------------------------------------------------------
def run_reference(workdir: pathlib.Path, cfgs) -> dict[str, str]:
    """Fault-free digests for ``cfgs``: a direct single-worker drain with
    no coordinator, no proxy, no injected failure."""
    root = workdir / "reference"
    _submit_all(root, cfgs)
    worker_loop(root, "ref", idle_timeout=5.0)
    ref = digests(root)
    audit = exactly_once(root)
    if not audit["ok"]:  # pragma: no cover - reference must be clean
        raise RuntimeError(f"reference run unclean: {audit['problems']}")
    return ref


# -- scenarios ------------------------------------------------------------
def scenario_restart(workdir, reference, *, quick: bool,
                     seed: int = 0) -> dict:
    """Kill + restart the coordinator mid-campaign."""
    root = workdir / "restart"
    cfgs = _standard_set(quick)
    _submit_all(root, cfgs)
    drain_timeout = 120.0 if quick else 300.0

    coord = Coordinator(root, lease_seconds=6.0, reap_interval=0.5).start()
    epoch_before = coord.epoch
    host, port = coord.address
    pool = WorkerPool(root, 2, fabric=f"{host}:{port}").start()
    try:
        queue = JobQueue(root)
        started = _wait(
            lambda: queue.counts().get("done", 0) >= 1, drain_timeout)
        coord.stop()  # no goodbye: workers see dead sockets
        time.sleep(1.0 if quick else 2.0)
        coord = Coordinator(root, host=host, port=port,
                            lease_seconds=6.0, reap_interval=0.5).start()
        epoch_after = coord.epoch
        drained = _wait(lambda: queue.drained(), drain_timeout)
        pool.join(10.0)
    finally:
        pool.terminate()
        coord.stop()
    audit = exactly_once(root)
    match = _digest_match(reference, digests(root))
    return {
        "name": "restart",
        "checks": {
            "made_progress_before_kill": started,
            "epoch_incremented": epoch_after == epoch_before + 1,
            "drained": drained,
            "exactly_once": audit,
            "digests_match_reference": match,
        },
    }


def scenario_worker_death(workdir, reference, *, quick: bool,
                          seed: int = 0) -> dict:
    """SIGKILL the worker that owns the long job; lease expiry requeues
    it; the survivor resumes from its checkpoint."""
    root = workdir / "worker-death"
    cfgs = _death_set(quick)
    _submit_all(root, cfgs)
    drain_timeout = 120.0 if quick else 300.0
    long_key = cfgs[0].cache_key()

    coord = Coordinator(root, lease_seconds=1.5, reap_interval=0.3).start()
    host, port = coord.address
    pool = WorkerPool(root, 2, fabric=f"{host}:{port}",
                      checkpoint_every=4).start()
    victim_killed = False
    try:
        queue = JobQueue(root)

        def long_job():
            for rec in queue.jobs().values():
                if rec["cache_key"] == long_key and rec["state"] == "running":
                    return rec
            return None

        _wait(lambda: long_job() is not None, drain_timeout)
        rec = long_job()
        if rec is not None:
            # wait for its first checkpoint so the resume is a real one
            ckdir = root / "checkpoints" / rec["id"]
            _wait(lambda: any(ckdir.glob("chk_*.npz")), 30.0)
            pid_tag = str(rec["pid"] or "")
            pid = int(pid_tag.rsplit("!", 1)[-1]) if "!" in pid_tag else None
            for p in pool.processes:
                if p.pid == pid and p.is_alive():
                    p.kill()
                    victim_killed = True
                    break
        requeued = _wait(
            lambda: any(r.get("requeues") for r in queue.jobs().values()
                        if r["cache_key"] == long_key),
            drain_timeout)
        drained = _wait(lambda: queue.drained(), drain_timeout)
        pool.join(10.0)
    finally:
        pool.terminate()
        coord.stop()
    jobs = JobQueue(root).jobs()
    long_rec = next(r for r in jobs.values() if r["cache_key"] == long_key)
    resumed = any(
        json.loads(p.read_text()).get("meta", {}).get("resumed_from")
        for p in (root / "runs" / long_rec["id"]).glob("attempt-*/meta.json")
        if p.is_file()
    )
    audit = exactly_once(root)
    match = _digest_match(reference, digests(root))
    return {
        "name": "worker-death",
        "resumed_from_checkpoint": resumed,
        "checks": {
            "victim_killed": victim_killed,
            "lease_requeued": requeued,
            "reattempted": long_rec["attempts"] >= 2,
            "drained": drained,
            "exactly_once": audit,
            "digests_match_reference": match,
        },
    }


def _thread_workers(root, address, n: int, *, rpc_timeout: float,
                    deadline: float, drain_timeout: float,
                    roots=None, prefix: str = "t",
                    metrics_list: list, queues_out: list,
                    threads_out: list) -> None:
    """Start ``n`` in-process worker threads claiming through ``address``
    (each with its own FabricQueue; ``roots`` enables direct-file
    fallback)."""
    import threading

    for i in range(n):
        metrics = MetricsRegistry()
        metrics_list.append(metrics)
        queue = FabricQueue(address, roots=roots, name=f"{prefix}{i}",
                            rpc_timeout=rpc_timeout, deadline=deadline,
                            metrics=metrics, probe_base=0.3)
        try:
            queue.attach()
        except Exception:
            pass
        queues_out.append(queue)
        t = threading.Thread(
            target=worker_loop, args=(root, f"{prefix}{i}"),
            kwargs={"queue": queue, "idle_timeout": drain_timeout},
            daemon=True, name=f"chaos-worker-{prefix}{i}")
        t.start()
        threads_out.append(t)


def scenario_partition(workdir, reference, *, quick: bool, seed: int = 0,
                       partition_seconds: float | None = None) -> dict:
    """Sever the worker↔coordinator link mid-campaign; workers must
    degrade to direct-file mode, keep finishing jobs, and the campaign
    must still end exactly-once."""
    from repro.resilience import ChaosProxy

    root = workdir / "partition"
    cfgs = _standard_set(quick)
    _submit_all(root, cfgs)
    drain_timeout = 120.0 if quick else 300.0
    if partition_seconds is None:
        partition_seconds = 1.5 if quick else 5.0

    coord = Coordinator(root, lease_seconds=6.0, reap_interval=0.5).start()
    proxy = ChaosProxy(coord.address, seed=seed).start()
    metrics_list: list[MetricsRegistry] = []
    queues: list[FabricQueue] = []
    threads: list = []
    queue = JobQueue(root)
    degraded_seen = False
    try:
        _thread_workers(root, proxy.address, 2, rpc_timeout=0.5,
                        deadline=1.0, drain_timeout=drain_timeout,
                        roots=[root], metrics_list=metrics_list,
                        queues_out=queues, threads_out=threads)
        _wait(lambda: queue.counts().get("done", 0) >= 1, drain_timeout)
        t_cut = time.time()

        def journaled():
            # ops journaled while the link is down = degraded-mode progress
            return [op for op in queue._ops()
                    if op.get("op") in ("claim", "done")
                    and op.get("wall", 0.0) >= t_cut + 0.2]

        proxy.partition()
        cut_until = time.monotonic() + partition_seconds
        give_up = time.monotonic() + drain_timeout
        # the cut lasts partition_seconds, and on until a worker has made
        # progress without the coordinator -- however slow the host
        while time.monotonic() < cut_until or not (
                journaled() or queue.drained()
                or time.monotonic() > give_up):
            degraded_seen = degraded_seen or any(q.degraded for q in queues)
            time.sleep(0.05)
        during = journaled()
        proxy.heal()
        drained = _wait(lambda: queue.drained(), drain_timeout)
        for t in threads:
            t.join(drain_timeout)
    finally:
        proxy.stop()
        coord.stop()
    audit = exactly_once(root)
    match = _digest_match(reference, digests(root))
    return {
        "name": "partition",
        "partition_seconds": partition_seconds,
        "degraded_mode_entered": degraded_seen,
        "checks": {
            "drained": drained,
            "worked_through_partition": len(during) > 0,
            "exactly_once": audit,
            "digests_match_reference": match,
        },
    }


def scenario_dup_storm(workdir, reference, *, quick: bool,
                       seed: int = 0) -> dict:
    """High-probability duplicate/drop/delay on every frame; idempotency
    tokens must keep every journal mutation single-application."""
    from repro.resilience import ChaosProxy

    root = workdir / "dup-storm"
    cfgs = _standard_set(quick)
    _submit_all(root, cfgs)
    drain_timeout = 180.0 if quick else 420.0

    coord = Coordinator(root, lease_seconds=8.0, reap_interval=1.0).start()
    proxy = ChaosProxy(coord.address, seed=seed, dup_prob=0.3,
                       drop_prob=0.08, delay_prob=0.2,
                       delay_seconds=0.03).start()
    metrics_list: list[MetricsRegistry] = []
    queues: list[FabricQueue] = []
    threads: list = []
    queue = JobQueue(root)
    try:
        # no roots fallback: the storm must be survived over the wire
        _thread_workers(root, proxy.address, 2, rpc_timeout=0.6,
                        deadline=20.0, drain_timeout=drain_timeout,
                        prefix="s", metrics_list=metrics_list,
                        queues_out=queues, threads_out=threads)
        drained = _wait(lambda: queue.drained(), drain_timeout)
        for t in threads:
            t.join(drain_timeout)
    finally:
        faults = {"duplicate": 0, "drop": 0, "delay": 0}
        for entry in proxy.log:
            kind = entry.get("fault")
            if kind in faults:
                faults[kind] += 1
        proxy.stop()
        coord.stop()
    retries = sum(c.value for m in metrics_list
                  for c in m.family("rpc_retries").values())
    audit = exactly_once(root)
    match = _digest_match(reference, digests(root))
    return {
        "name": "dup-storm",
        "faults_injected": faults,
        "rpc_retries": retries,
        "checks": {
            "drained": drained,
            "storm_was_real": faults["duplicate"] + faults["drop"] > 0,
            "exactly_once": audit,
            "digests_match_reference": match,
        },
    }


_RUNNERS = {
    "restart": scenario_restart,
    "worker-death": scenario_worker_death,
    "partition": scenario_partition,
    "dup-storm": scenario_dup_storm,
}


def run_matrix(workdir, *, scenarios=None, quick: bool = False,
               seed: int = 0, fresh: bool = True) -> dict:
    """Run the chaos matrix; returns the structured report (also written
    to ``<workdir>/chaos-report.json``).  A scenario passes when every
    one of its checks does."""
    workdir = pathlib.Path(workdir)
    names = list(scenarios or SCENARIOS)
    unknown = [n for n in names if n not in _RUNNERS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown}; "
                         f"choose from {list(SCENARIOS)}")
    if fresh and workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    all_cfgs = {c.cache_key(): c for c in _standard_set(quick)}
    if "worker-death" in names:
        all_cfgs.update((c.cache_key(), c) for c in _death_set(quick))
    t0 = time.perf_counter()
    reference = run_reference(workdir, list(all_cfgs.values()))
    results = []
    for name in names:
        t1 = time.perf_counter()
        result = _RUNNERS[name](workdir, reference, quick=quick, seed=seed)
        result["ok"] = all(map(_passed, result["checks"].values()))
        result["seconds"] = round(time.perf_counter() - t1, 2)
        results.append(result)
    report = {
        "schema": "repro-chaos-v1",
        "quick": quick,
        "seed": seed,
        "reference_jobs": len(reference),
        "scenarios": results,
        "ok": all(r["ok"] for r in results),
        "total_seconds": round(time.perf_counter() - t0, 2),
    }
    (workdir / "chaos-report.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    return report


def _passed(check) -> bool:
    """A check's verdict: an audit dict counts by its own ``"ok"``."""
    return check["ok"] if isinstance(check, dict) else bool(check)


def render_matrix(report: dict) -> str:
    """Human-readable rendering of :func:`run_matrix` output."""
    lines = [f"chaos matrix ({'quick' if report['quick'] else 'full'}, "
             f"seed={report['seed']}): "
             f"{'PASS' if report['ok'] else 'FAIL'} "
             f"in {report['total_seconds']:.1f}s"]
    for s in report["scenarios"]:
        lines.append(f"  {s['name']:14s} "
                     f"{'PASS' if s['ok'] else 'FAIL'} "
                     f"({s['seconds']:.1f}s)")
        for key, val in s["checks"].items():
            flag = _passed(val)
            lines.append(f"    {'ok ' if flag else 'XX '}{key}"
                         + ("" if flag or not isinstance(val, dict)
                            else f"  {val}"))
    return "\n".join(lines)
