"""Campaign section: the control plane with (almost) no solver weight.

* phase A — ``JobQueue`` submit → claim → complete over synthetic jobs on
  the direct file queue, every op timed;
* phase B — the same claim/complete drain through a localhost
  ``Coordinator`` / ``FabricQueue``, next to a direct drain of equal size;
* phase C — a real campaign of small wave jobs drained by one in-process
  ``worker_loop``, then resubmitted and served from ``ResultCache``.

Phases A and C are repeated in fresh directories: the queue metrics are
medians over the ops of every pass pooled, the campaign wall is composed
from per-phase medians across the repetitions.
"""

from __future__ import annotations

import time

from core import Section, columnwise_median_sum, lap, median, percentile

#: The issue sized phase A at 500 jobs (18 s a pass here, O(n²) replay) and
#: phase C at six 4-second jobs; the driver's time cap leaves about 10 s for
#: the whole section, so: four passes of 120 jobs, 40 through the fabric,
#: six campaigns of one 0.6-second job (six jobs and six cache hits in all).
#: A scheduler tick of phases A and B is ``chunk`` ops, about 35 ms at
#: either size, so a host-speed reading is never far from an op.
SIZES = {
    "full": {"queue_jobs": 120, "queue_reps": 4, "chunk": 10,
             "fabric_jobs": 40,
             "campaign_jobs": 1, "campaign_reps": 6,
             "job": {"base_level": 2, "max_level": 3, "t_end": 1.0}},
    "probe": {"queue_jobs": 50, "queue_reps": 10, "chunk": 25,
              "fabric_jobs": 16,
              "campaign_jobs": 1, "campaign_reps": 8,
              "job": {"base_level": 1, "max_level": 3, "t_end": 2.0}},
    "tiny": {"queue_jobs": 20, "queue_reps": 2, "chunk": 25,
             "fabric_jobs": 10,
             "campaign_jobs": 1, "campaign_reps": 2,
             "job": {"base_level": 1, "max_level": 2, "t_end": 1.0}},
}


def job_config(name: str, index: int, job: dict):
    """A small free-pulse wave job; ``index`` makes the cache key distinct
    (the name is not part of it)."""
    from repro.io import RunConfig

    return RunConfig(name=name, solver="wave", domain_half_width=8.0,
                     courant=0.25, ko_sigma=0.05, regrid_every=4,
                     regrid_eps=3e-5 * (1.0 + 0.01 * index),
                     extraction_radii=[4.0], backend="compiled", **job)


def submit_synthetic(queue, seed: int, n: int) -> None:
    for i in range(n):
        queue.submit({"name": f"ledger-s{seed}-{i}"},
                     cache_key=f"s{seed}-key{i:06d}",
                     cost={"total_seconds": 1.0})


class CampaignSection(Section):
    name = "campaign"

    def __init__(self, size_name, size, ctx, *, focus: bool):
        super().__init__(size_name, size, ctx)
        self.queue_reps = ctx.scaled(size["queue_reps"], focus=focus, least=2)
        self.campaign_reps = ctx.scaled(size["campaign_reps"], focus=focus,
                                        least=2)
        self.pass_lat: list[dict[str, list[float]]] = []
        self.journal_bytes = 0
        self.fabric = {}
        self.campaign_rows: list[list[float]] = []
        self.cache_hits = 0
        self.jobs_done = 0
        self.solver_wall: list[float] = []
        self.double_claims = 0
        self.not_done = 0

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        """Warm the lazy imports both planes pay once per process: one
        queue op of each kind, one priced submit, one drained job."""
        from repro.jobs import Campaign, JobQueue, worker_loop

        q = JobQueue(self.ctx.fresh_dir("warm-queue"))
        submit_synthetic(q, self.ctx.seed, 1)
        rec = q.claim("ledger")
        q.complete(rec["id"], {"ok": True}, worker="ledger",
                   attempt=rec["attempts"])
        root = self.ctx.fresh_dir("warm-campaign")
        Campaign(root).submit(job_config("ledger-warm", 0, {
            "base_level": 1, "max_level": 2, "t_end": 0.25}))
        worker_loop(root, "ledger")

    def teardown(self) -> None:
        pass

    def planned_units(self) -> int:
        s = self.size
        per_pass = -(-3 * s["queue_jobs"] // s["chunk"])
        fabric = -(-4 * s["fabric_jobs"] // s["chunk"]) + 1
        return (self.queue_reps * per_pass + fabric
                + 4 * self.campaign_reps)

    # -- measurement ---------------------------------------------------------
    def units(self):
        for rep in range(self.queue_reps):
            yield from self._queue_pass(rep)
        yield from self._fabric_phase()
        for rep in range(self.campaign_reps):
            yield from self._campaign(rep)

    def _timed(self, lat: list[float], fn, *args, **kw):
        """One queue op: timed, counted, a raised JobError is a failure."""
        from repro.jobs import JobError

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kw)
        except JobError:
            self.failed += 1
            return None
        lat.append(lap(t0))
        return out

    def _queue_pass(self, rep: int):
        """Phase A: a full submit → claim → complete pass, op by op."""
        from repro.jobs import JobQueue

        n, chunk = self.size["queue_jobs"], self.size["chunk"]
        seed = self.ctx.seed
        tracer = self.ctx.tracer
        q = JobQueue(self.ctx.fresh_dir("queue"))
        lat = {"submit": [], "claim": [], "complete": []}
        claimed: list[tuple[str, int]] = []
        ops = 0
        tracer.unit = f"campaign/queue{rep}"
        for i in range(n):
            self._timed(lat["submit"], q.submit,
                        {"name": f"ledger-s{seed}-r{rep}-{i}"},
                        cache_key=f"s{seed}-key{i:06d}",
                        cost={"total_seconds": 1.0})
            ops += 1
            if ops % chunk == 0:
                yield
        for _ in range(n):
            rec = self._timed(lat["claim"], q.claim, "ledger")
            if rec is not None:
                claimed.append((rec["id"], rec["attempts"]))
            ops += 1
            if ops % chunk == 0:
                yield
        for job_id, attempt in claimed:
            self._timed(lat["complete"], q.complete, job_id, {"ok": True},
                        worker="ledger", attempt=attempt)
            ops += 1
            if ops % chunk == 0:
                yield
        self.double_claims += len(claimed) - len({j for j, _ in claimed})
        self.not_done += n - q.counts()["done"]
        self.journal_bytes = q.path.stat().st_size
        self.pass_lat.append(lat)
        yield

    def _drain(self, queue, n: int, lat: list[float]):
        """claim → complete ``n`` jobs through ``queue`` (phase B)."""
        ops = 0
        claimed = set()
        for _ in range(n):
            rec = self._timed(lat, queue.claim, "ledger")
            if rec is None:
                continue
            if rec["id"] in claimed:
                self.double_claims += 1
            claimed.add(rec["id"])
            self._timed(lat, queue.complete, rec["id"], {"ok": True},
                        worker="ledger", attempt=rec["attempts"])
            ops += 2
            if ops % self.size["chunk"] < 2:
                yield

    def _fabric_phase(self):
        from repro.jobs import JobQueue
        from repro.jobs.fabric import Coordinator, FabricQueue

        n = self.size["fabric_jobs"]
        tracer = self.ctx.tracer
        roots = {m: self.ctx.fresh_dir(f"fabric-{m}")
                 for m in ("direct", "rpc")}
        for root in roots.values():
            submit_synthetic(JobQueue(root), self.ctx.seed, n)
        direct: list[float] = []
        rpc: list[float] = []
        tracer.unit = "campaign/fabric-direct"
        yield from self._drain(JobQueue(roots["direct"]), n, direct)
        tracer.unit = "campaign/fabric-rpc"
        with Coordinator(roots["rpc"], lease_seconds=600.0,
                         reap_interval=600.0) as coord:
            fq = FabricQueue(coord.address, name="ledger")
            fq.attach()
            try:
                yield from self._drain(fq, n, rpc)
            finally:
                fq.close()
        for root in roots.values():
            self.not_done += n - JobQueue(root).counts()["done"]
        if direct and rpc:
            # the two drains run seconds apart: compare them in reference
            # seconds, or a change of host speed reads as fabric overhead
            ref = self.ctx.ref
            self.fabric = {
                "jobs.fabric_rpc_p50_ms": 1e3 * median(d for _, d in rpc),
                "jobs.fabric_rpc_p95_ms": 1e3 * percentile(
                    [d for _, d in rpc], 95),
                "jobs.fabric_overhead_frac":
                    median(map(ref, rpc)) / median(map(ref, direct)) - 1,
            }
        yield

    def _campaign(self, rep: int):
        """Phase C: submit → drain → resubmit → drain from the cache."""
        from repro.jobs import Campaign, JobQueue, worker_loop

        tracer = self.ctx.tracer
        n = self.size["campaign_jobs"]
        root = self.ctx.fresh_dir("campaign")
        campaign = Campaign(root)
        configs = [job_config(f"ledger-s{self.ctx.seed}-c{rep}-{j}", j,
                              self.size["job"]) for j in range(n)]
        row = []
        for phase in ("submit", "drain", "resubmit", "drain-cached"):
            tracer.unit = f"campaign/{phase}/{rep}"
            t0 = time.perf_counter()
            if phase.endswith("submit"):
                for cfg in configs:
                    self.attempted += 1
                    campaign.submit(cfg)
                row.append(lap(t0))
            elif phase == "drain":  # real jobs: priced from inside
                with tracer.span("jobs.worker_loop"):
                    timed, stats = self.ctx.meter.long_op(
                        worker_loop, root, "ledger")
                row.append(timed)
                self.failed += stats["failed"]
                self.jobs_done += stats["done"]
            else:
                with tracer.span("jobs.worker_loop"):
                    stats = worker_loop(root, "ledger")
                row.append(lap(t0))
                self.failed += stats["failed"]
                self.cache_hits += stats["cache_hits"]
            yield
        self.campaign_rows.append(row)
        jobs = JobQueue(root).jobs().values()
        self.not_done += sum(1 for r in jobs if r["state"] != "done")
        self.solver_wall.append(sum(
            (r.get("result") or {}).get("wall_seconds", 0.0) for r in jobs
            if not (r.get("result") or {}).get("cached")))

    # -- results -----------------------------------------------------------
    def finish(self):
        s = self.size
        n = s["queue_jobs"]
        want_jobs = s["campaign_jobs"] * self.campaign_reps
        self.check("no double-claims", self.double_claims == 0,
                   f"{self.double_claims}")
        self.check("every job reaches done", self.not_done == 0,
                   f"{self.not_done} not done")
        self.check("campaign jobs all ran once", self.jobs_done == want_jobs,
                   f"{self.jobs_done}/{want_jobs}")
        self.check("every resubmit served from ResultCache",
                   self.cache_hits == want_jobs,
                   f"{self.cache_hits}/{want_jobs} cache hits")
        # Every op replays the journal behind it, so its cost rises in a
        # straight line with the depth of the backlog.  All three metrics
        # are medians over the ops of every pass pooled, hundreds of
        # samples each, so an fsync stall or a slow second of the host
        # moves nothing: the median op of each kind is the op at half
        # depth, which on a straight line is the mean, so 3 ÷ their sum is
        # 3·N ÷ the pass time; the p95 of ``complete`` is the median of the
        # deepest tenth (the upper decile of a rising profile).
        ref = self.ctx.ref
        pooled = {kind: [ref(x) for lat in self.pass_lat for x in lat[kind]]
                  for kind in ("submit", "claim", "complete")}
        deep = range(n - max(1, n // 10), n)
        rows = [[ref(x) for x in row] for row in self.campaign_rows]
        e2e = {
            "queue_ops_per_s": 3.0 / sum(map(median, pooled.values())),
            "queue_op_p50_ms": 1e3 * median(pooled["complete"]),
            "queue_op_p95_ms": 1e3 * median(
                ref(lat["complete"][i]) for lat in self.pass_lat
                for i in deep if i < len(lat["complete"])),
            "campaign_wall_s": columnwise_median_sum(rows),
        }
        span = columnwise_median_sum([[d for _, d in r[:2]]
                                      for r in self.campaign_rows])
        layers = {f"jobs.{kind}_ops_per_s": 1.0 / median(
            d for lat in self.pass_lat for _, d in lat[kind])
            for kind in pooled}
        layers.update(self.fabric)
        layers.update({
            "jobs.journal_bytes": self.journal_bytes,
            "jobs.cache_hits": self.cache_hits,
            "jobs.orchestration_frac": max(
                0.0, 1.0 - median(self.solver_wall) / span),
        })
        layers.update(self._traced_layers())
        return e2e, layers

    def _traced_layers(self) -> dict:
        tr = self.ctx.tracer
        if not tr.enabled:
            return {}
        solver_spans = [
            s for s in tr.spans
            if s["name"].startswith(("solver.", "mesh."))
            and s["unit"].startswith(("campaign/queue", "campaign/fabric"))]
        self.check("no solver span in phases A and B", not solver_spans,
                   f"{len(solver_spans)} spans")
        put = tr.durations("jobs.cache_put", unit_prefix="campaign/drain/")
        hit = tr.durations("jobs.cache_get",
                           unit_prefix="campaign/drain-cached/")
        return {
            "jobs.cache_put_ms": 1e3 * median(put) if put else None,
            "jobs.cache_hit_ms": 1e3 * median(hit) if hit else None,
        }
