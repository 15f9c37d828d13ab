"""Serve section: the read path under a seeded closed-loop mix, plus the
miss → ticket → job → ingest → served loop.

The front runs in a child process over a model-seeded ``CatalogStore``
whose working set is four times the hot set, so decode, eviction and
coalescing all run.  One ``AsyncServeClient`` connection sends its next
request only after the previous reply: the callers are bank-building
pipelines that wait for every answer, which is a closed loop.  Latency is
therefore reported at the achieved rate.

One connection, not the issue's two: the front answers one request at a
time (a second connection left ``req_per_s`` where it was and doubled
every latency with the wait behind the other connection's request, so
that the percentiles measured the scheduler).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np

from core import (HERE, REPO, Section, columnwise_median_sum, lap, median,
                  percentile)

MIX = (("exact", 0.55), ("interp", 0.25), ("detector", 0.15), ("miss", 0.05))
#: requests per scheduler tick; the host-speed meter reads between ticks,
#: so every request is priced by a reading at most this far away
SEGMENT = 25
SAMPLES = 2048
#: decoded bytes of one entry: float64 times + complex128 h22
ENTRY_BYTES = SAMPLES * (8 + 16)
#: a resolution no catalog entry has: a query for it is a coverage miss
#: that coalesces onto the ticket its mass ratio already holds
ABSENT_RESOLUTION = 99
LATENCY_LIMIT_MS = 50.0  # CI gate of the serve subsystem: hot p99
#: auto-ingest sweep period of the front.  The issue asked for 0.1 s; at
#: these job sizes the wait for the next sweep, uniform in [0, period], was
#: a third of the whole miss cycle and all of its run-to-run spread.
INGEST_INTERVAL = 0.05

#: The issue sized the load at 20 000 requests over 32 entries and one
#: 10-second miss cycle; the driver's time cap leaves about 6 s for the
#: section and 2 s for each of its three set-ups (seeding is O(entries²)).
#: ``batch`` is a multiple of :data:`SEGMENT`; percentiles are taken per
#: batch (about 55 exact and 25 interp requests in 100, so a p90 has a few
#: samples beyond it in every batch) and the median over the batches is
#: reported.
#:
#: A request whose entries sit in the hot set and one that waits for a
#: decode are two separate latency modes.  ``zipf_s`` and ``hot_entries``
#: are chosen so that 70–80 % of the look-ups hit: the p50s then read the
#: hit path and the p90s the decode path whatever the seed, instead of
#: jumping between the modes when the hit ratio crosses one half (as it did
#: with a quarter of the entries hot and an exponent of 1.1).
SIZES = {
    "full": {"entries": 24, "hot_entries": 6, "zipf_s": 1.5,
             "batches": 16, "batch": 125, "cycles": 8, "stampede": 32,
             "job": {"base_level": 2, "max_level": 3, "t_end": 1.0}},
    "probe": {"entries": 8, "hot_entries": 3, "zipf_s": 2.0,
              "batches": 12, "batch": 100, "cycles": 8, "stampede": 8,
              "job": {"base_level": 2, "max_level": 2, "t_end": 1.0}},
    "tiny": {"entries": 4, "hot_entries": 2, "zipf_s": 2.0,
             "batches": 2, "batch": 50, "cycles": 1, "stampede": 4,
             "job": {"base_level": 1, "max_level": 2, "t_end": 1.0}},
}


def production_template(job: dict) -> dict:
    """RunConfig fields of a catalog-production run at this size."""
    from repro.serve import PRODUCTION_TEMPLATE

    fields = dataclasses.asdict(PRODUCTION_TEMPLATE)
    # sample the (2,2) mode every step: these runs are a handful of steps
    # long and the catalog refuses a waveform of fewer than two samples
    fields.update(job, name="ledger-production", backend="compiled",
                  extract_every=1)
    return fields


class ServeSection(Section):
    name = "serve"

    def __init__(self, size_name, size, ctx, *, focus: bool):
        super().__init__(size_name, size, ctx)
        self.batches = ctx.scaled(size["batches"], focus=focus, least=2)
        self.cycles = ctx.scaled(size["cycles"], focus=focus, least=1)
        n = size["entries"]
        self.qs = [1.0 + 7.0 * i / (n - 1) for i in range(n)]
        rng = np.random.default_rng(ctx.seed)
        # Zipf popularity by distance from a seed-chosen mass ratio (ties
        # go to a seed-chosen side): a bank under construction asks for a
        # neighbourhood of parameter space, so the two entries an
        # interpolation blends are about equally popular
        centre, side = int(rng.integers(n)), int(rng.integers(2))
        nearest = sorted(range(n), key=lambda i: (abs(i - centre),
                                                  (i < centre) == side))
        rank = np.empty(n, dtype=int)
        rank[nearest] = np.arange(n)
        weights = 1.0 / (1.0 + rank) ** size["zipf_s"]
        self.popularity = weights / weights.sum()
        self.centre, self.side = centre, side
        self.cold_index = int(np.argmax(rank))  # least popular key
        self.rng = rng
        # mass ratios of the timed miss cycles: outside [1, 8], seed-named
        self.miss_qs = [9.0 + c + float(rng.integers(1, 99)) / 100.0
                        for c in range(self.cycles)]
        self.proc = None
        self.loop = None
        self.client = None
        #: per batch: its segments, each {"wall": lap, "lat": {kind: [ms]},
        #: "ok": verified replies}
        self.batches_done: list[list[dict]] = []
        self.cycle_rows: list[list[float]] = []
        self.stampede = {}
        self.ticket_id = None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        from repro.analysis.catalog import build_model_catalog
        from repro.serve import AsyncServeClient, CatalogStore

        size = self.size
        self.store_root = self.ctx.fresh_dir("store")
        self.campaign_root = self.ctx.fresh_dir("serve-campaign")
        store = CatalogStore(self.store_root)
        self.keys = store.ingest_model_catalog(
            build_model_catalog(self.qs, samples=SAMPLES))
        self.budget = store.max_interp_mismatch
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"),
             "--store", str(self.store_root),
             "--campaign", str(self.campaign_root),
             "--template", json.dumps(production_template(size["job"])),
             "--hot-bytes", str(size["hot_entries"] * ENTRY_BYTES),
             "--ingest-interval", str(INGEST_INTERVAL)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.address = self.proc.stdout.readline().strip()
        if not self.address:
            raise RuntimeError("serve front child exited before binding "
                               f"(code {self.proc.poll()})")
        self.loop = asyncio.new_event_loop()
        self.client = AsyncServeClient(self.address)
        self.loop.run_until_complete(self._warm_up())

    async def _warm_up(self) -> None:
        """First op of each kind, away from the stampede's cold key."""
        c = self.client
        await c.connect()
        i = (self.cold_index + 1) % (len(self.qs) - 1)
        await c.query(self.qs[i], max_samples=64)
        await c.query(0.5 * (self.qs[i] + self.qs[i + 1]), max_samples=64)
        await c.query(self.qs[i], max_samples=64, detector="ce")

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.client.close())
            self.loop.close()
            self.loop = None
        if self.proc is not None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def planned_units(self) -> int:
        segments = -(-self.size["batch"] // SEGMENT)
        return 2 + self.batches * segments + self.cycles

    # -- request generation --------------------------------------------------
    def _requests(self, n: int) -> list[tuple[str, dict]]:
        rng = self.rng
        kinds, weights = zip(*MIX)
        out = []
        last = len(self.qs) - 2
        for k in rng.choice(len(kinds), size=n, p=weights):
            kind = kinds[k]
            i = int(rng.choice(len(self.qs), p=self.popularity))
            req = {"op": "query", "max_samples": 256}
            if kind == "exact":
                req["mass_ratio"] = self.qs[i]
            elif kind == "interp":
                # the midpoint next to entry i on its centre-facing side, so
                # interpolated queries follow the same popularity law
                towards_lower = (i > self.centre
                                 or (i == self.centre and self.side))
                j = min(max(i - 1 if towards_lower else i, 0), last)
                req["mass_ratio"] = 0.5 * (self.qs[j] + self.qs[j + 1])
            elif kind == "detector":
                req["mass_ratio"] = self.qs[i]
                req["detector"] = "ce" if rng.random() < 0.5 else "aplus"
            else:
                req["mass_ratio"] = self.miss_qs[0]
                req["resolution"] = ABSENT_RESOLUTION
            out.append((kind, req))
        return out

    def _verify(self, kind: str, resp: dict) -> bool:
        if not resp.get("ok"):
            return False
        outcome = resp.get("outcome")
        if kind == "exact":
            return outcome == "exact"
        if kind == "interp":
            return (outcome == "interp"
                    and 0.0 < resp["mismatch_bound"] <= self.budget)
        if kind == "detector":
            snr = (resp.get("strain") or {}).get("snr", 0.0)
            return outcome == "exact" and np.isfinite(snr) and snr > 0.0
        ticket = resp.get("ticket") or {}
        return outcome == "miss" and ticket.get("id") == self.ticket_id

    # -- measurement ---------------------------------------------------------
    def units(self):
        run = self.loop.run_until_complete
        tracer = self.ctx.tracer
        tracer.unit = "serve/stampede"
        run(self._stampede())
        yield
        # the first miss cycle opens the ticket the load's misses share
        order = ["cycle"] + _spread(self.batches, self.cycles - 1)
        batch = cycle = 0
        for what in order:
            if what == "cycle":
                tracer.unit = f"serve/miss/{cycle}"
                run(self._miss_cycle(cycle))
                cycle += 1
                yield
                continue
            requests = self._requests(self.size["batch"])
            segments: list[dict] = []
            for k in range(0, len(requests), SEGMENT):
                tracer.unit = f"serve/batch/{batch}"
                segments.append(run(self._segment(requests[k:k + SEGMENT])))
                yield
            self.batches_done.append(segments)
            batch += 1
        tracer.unit = "serve/verify"
        run(self._final_checks())
        yield

    async def _stats(self) -> dict:
        """The front's unlabelled counters by name, plus the hot-set ratio."""
        resp = await self.client.request({"op": "stats"})
        out = {m["name"]: m["value"] for m in resp["metrics"]["metrics"]
               if m["type"] == "counter" and not m["labels"]}
        out["hot_hit_ratio"] = resp["hot_set"]["hit_ratio"]
        return out

    async def _stampede(self) -> None:
        from repro.serve import AsyncServeClient

        n = self.size["stampede"]
        before = await self._stats()
        pool = [AsyncServeClient(self.address) for _ in range(n)]
        await asyncio.gather(*(c.connect() for c in pool))
        q = self.qs[self.cold_index]
        results = await asyncio.gather(
            *(c.request({"op": "query", "mass_ratio": q, "max_samples": 64})
              for c in pool), return_exceptions=True)
        await asyncio.gather(*(c.close() for c in pool))
        after = await self._stats()
        ok = sum(1 for r in results if isinstance(r, dict) and r.get("ok"))
        key = "serve_decodes"
        self.attempted += n
        self.failed += n - ok
        self.stampede = {"clients": n, "ok": ok,
                         "decodes": after.get(key, 0) - before.get(key, 0)}

    async def _segment(self, requests: list[tuple[str, dict]]) -> dict:
        """One tick of the load: the next request leaves when the previous
        reply has been decoded."""
        tracer = self.ctx.tracer
        client = self.client
        lat: dict[str, list[float]] = {k: [] for k, _ in MIX}
        failed = 0
        t_seg = time.perf_counter()
        for kind, req in requests:
            t0 = time.perf_counter()
            with tracer.span("serve.request", kind=kind):
                try:
                    resp = await client.request(req)
                except (OSError, asyncio.TimeoutError):
                    resp = {}
            ms = 1e3 * (time.perf_counter() - t0)
            # a failed, refused or wrong reply misses the latency limit
            if self._verify(kind, resp):
                lat[kind].append(ms)
            else:
                failed += 1
        wall = lap(t_seg)
        self.attempted += len(requests)
        self.failed += failed
        return {"wall": wall, "lat": lat, "ok": len(requests) - failed}

    async def _miss_cycle(self, index: int) -> None:
        from repro.jobs import worker_loop

        tracer = self.ctx.tracer
        client = self.client
        q = self.miss_qs[index]
        self.attempted += 1
        t0 = time.perf_counter()
        with tracer.span("serve.miss_query"):
            miss = await client.query(q, max_samples=64)
        ticket = miss.get("ticket") or {}
        if index == 0:
            self.ticket_id = ticket.get("id")
        t1 = time.perf_counter()
        with tracer.span("jobs.worker_loop"):  # a real job: priced inside
            job, stats = self.ctx.meter.long_op(
                worker_loop, self.campaign_root, "ledger")
        t2 = time.perf_counter()
        status = {}
        with tracer.span("serve.ingest_wait"):
            while time.perf_counter() - t2 < 30.0:
                status = await client.request({"op": "ticket",
                                               "id": ticket.get("id")})
                if status.get("ingested"):
                    break
                await asyncio.sleep(0.005)
        t3 = time.perf_counter()
        with tracer.span("serve.requery"):
            served = await client.query(q, max_samples=64)
        t4 = time.perf_counter()
        ok = (miss["outcome"] == "miss" and bool(ticket.get("id"))
              and stats["done"] == 1 and bool(status.get("ingested"))
              and served["outcome"] == "exact"
              and str(served["entry"].get("source", "")).startswith("cache:"))
        if not ok:
            self.failed += 1
        marks = (t0, t1, t2, t3, t4)
        row = [(0.5 * (a + b), b - a) for a, b in zip(marks, marks[1:])]
        row[1] = job
        self.cycle_rows.append(row)

    async def _final_checks(self) -> None:
        from repro.serve import CatalogStore

        resp = await self.client.query(self.qs[0])
        arrays = CatalogStore(self.store_root).load_arrays(self.keys[0])
        same = (np.array_equal(resp["times"], arrays["times"])
                and np.array_equal(resp["h_re"], arrays["h22"].real)
                and np.array_equal(resp["h_im"], arrays["h22"].imag))
        self.attempted += 1
        self.failed += not same
        self.check("served array equals the store's", same)
        self.counters = await self._stats()

    # -- results -----------------------------------------------------------
    def finish(self):
        self.check("0 failed requests", self.failed == 0,
                   f"{self.failed} of {self.attempted}")
        st = self.stampede
        self.check("stampede collapses to one decode",
                   st["ok"] == st["clients"] and st["decodes"] == 1,
                   f"{st['ok']}/{st['clients']} answered, "
                   f"{st['decodes']:g} decode(s)")
        self.check("every miss cycle ends served from the cache",
                   len(self.cycle_rows) == self.cycles)

        ref = self.ctx.ref
        # a segment is priced as one operation: its latencies scale with it
        batches = []
        for segments in self.batches_done:
            lat: dict[str, list[float]] = {k: [] for k, _ in MIX}
            for seg in segments:
                scale = ref(seg["wall"]) / seg["wall"][1]
                for kind, values in seg["lat"].items():
                    lat[kind].extend(scale * v for v in values)
            batches.append({"lat": lat,
                            "ok": sum(seg["ok"] for seg in segments),
                            "wall": sum(ref(seg["wall"]) for seg in segments)})

        def across_batches(kind: str, q: float) -> float:
            return median([percentile(b["lat"][kind], q)
                           for b in batches if b["lat"][kind]])

        e2e = {
            "req_per_s": median([b["ok"] / b["wall"] for b in batches]),
            "hot_p50_ms": across_batches("exact", 50),
            "hot_p90_ms": across_batches("exact", 90),
            "interp_p50_ms": across_batches("interp", 50),
            "interp_p90_ms": across_batches("interp", 90),
            "detector_p50_ms": across_batches("detector", 50),
            "miss_to_served_s": columnwise_median_sum(
                [[ref(x) for x in row] for row in self.cycle_rows]),
        }
        # wall-clock latencies of the whole load, pooled: the p99 needs a
        # thousand samples to have ten beyond it, which only the full size
        # has (the sample counts are reported beside it)
        raw = {kind: [v for segments in self.batches_done for seg in segments
                      for v in seg["lat"][kind]] for kind, _ in MIX}
        hot_p99 = percentile(raw["exact"], 99)
        self.check(f"hot p99 under the {LATENCY_LIMIT_MS:g} ms limit at the "
                   "achieved rate", hot_p99 < LATENCY_LIMIT_MS,
                   f"{hot_p99:.2f} ms over {len(raw['exact'])} requests")
        c = self.counters
        cols = list(zip(*([d for _, d in row] for row in self.cycle_rows)))
        layers = {
            "serve.hot_hit_ratio": c["hot_hit_ratio"],
            "serve.decodes": c.get("serve_decodes", 0),
            "serve.coalesced": c.get("serve_coalesced", 0),
            "serve.evictions": c.get("serve_hot_evictions", 0),
            "serve.ticket_submit_ms": 1e3 * median(cols[0]),
            "serve.miss_job_s": median(cols[1]),
            "serve.ingest_lag_s": median(cols[2]),
            "serve.tcp_hot_p50_us": 1e3 * percentile(raw["exact"], 50),
            "serve.hot_p99_ms": hot_p99,
            "serve.hot_samples": len(raw["exact"]),
            "serve.interp_p99_ms": percentile(raw["interp"], 99),
            "serve.interp_samples": len(raw["interp"]),
        }
        return e2e, layers


def _spread(batches: int, cycles: int) -> list[str]:
    """``batches`` load batches with ``cycles`` miss cycles spaced evenly
    among them."""
    order = ["batch"] * batches
    for c in range(cycles):
        order.insert((c + 1) * batches // (cycles + 1) + c, "cycle")
    return order
