"""The asyncio request front: catalog queries at interactive latency.

One :class:`ServeFront` owns a :class:`~repro.serve.store.CatalogStore`
and serves it over the repo's length-prefixed frames (:mod:`repro.rpc`),
the reply's sample arrays as raw float64 after the JSON: ``handle``
returns contiguous NumPy arrays (a full-rate one is the hot set's own:
read, don't write), a socket client receives ``memoryview`` objects.
The read path is built for heavy traffic:

* **Bounded LRU hot set** (:class:`HotSet`) over *decoded* waveform
  arrays, accounted in bytes — repeat queries for popular catalog
  points never touch the filesystem;
* **Request coalescing** — identical in-flight decodes share one
  future: a stampede of N cold queries for one key performs a single
  decode (``serve_decodes`` goes up by one, ``serve_coalesced`` by
  N−1) instead of N redundant reads;
* **Per-request detector post-processing** — PSD models from
  :mod:`repro.gw.detector` turn the geometric-units catalog waveform
  into bandpassed physical strain with a matched-filter SNR, computed
  on demand (never cached: it depends on the request's detector, mass,
  distance and band);
* **Miss-to-simulation fallback** — a coverage gap becomes a
  :class:`~repro.serve.fallback.SimulationBroker` ticket, and a
  background sweep auto-ingests completed production jobs so the next
  identical query is served from the catalog.

Every request lands in the shared :class:`repro.telemetry`
metrics registry — ``serve_requests{outcome}``,
``serve_latency_seconds{route}``, hot-set hit/miss/eviction counters —
snapshotted periodically as standard metrics JSONL, the same stream the
``summarize``/``compare`` CLI and the fleet rollup loaders consume.
"""

from __future__ import annotations

import asyncio
import collections
import time

import numpy as np

from repro.analysis.catalog import InterpolationError, blend
from repro.gw.detector import (
    aplus_asd,
    bandpass,
    ce_asd,
    physical_strain,
    snr_estimate,
)
from repro.rpc import ProtocolError, read_frame_async, write_frame_async
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import write_snapshot

from .fallback import SimulationBroker
from .store import CatalogStore

#: detector name → one-sided amplitude spectral density model
DETECTORS = {"aplus": aplus_asd, "ce": ce_asd}

#: serve_latency_seconds buckets: 100 µs … ~0.8 s
LATENCY_BUCKETS = tuple(1e-4 * 2.0**k for k in range(14))


class HotSet:
    """Byte-bounded LRU cache of decoded waveform arrays."""

    def __init__(self, max_bytes: int, metrics: MetricsRegistry):
        self.max_bytes = int(max_bytes)
        self.metrics = metrics
        self._data: collections.OrderedDict[str, dict] = \
            collections.OrderedDict()
        self._nbytes = 0

    @staticmethod
    def _size(arrays: dict) -> int:
        return sum(a.nbytes for a in arrays.values())

    def get(self, key: str) -> dict | None:
        arrays = self._data.get(key)
        if arrays is None:
            self.metrics.counter("serve_hot_misses").inc()
            return None
        self._data.move_to_end(key)
        self.metrics.counter("serve_hot_hits").inc()
        return arrays

    def put(self, key: str, arrays: dict) -> None:
        if key in self._data:
            return
        self._data[key] = arrays
        self._nbytes += self._size(arrays)
        while self._nbytes > self.max_bytes and len(self._data) > 1:
            _, evicted = self._data.popitem(last=False)
            self._nbytes -= self._size(evicted)
            self.metrics.counter("serve_hot_evictions").inc()
        self.metrics.gauge("serve_hot_bytes").set(self._nbytes)
        self.metrics.gauge("serve_hot_entries").set(len(self._data))

    @property
    def hit_ratio(self) -> float:
        hits = self.metrics.counter("serve_hot_hits").value
        misses = self.metrics.counter("serve_hot_misses").value
        total = hits + misses
        return hits / total if total else 0.0


class ServeFront:
    """Asyncio server over a :class:`CatalogStore` (+ optional broker)."""

    def __init__(self, store: CatalogStore, *,
                 broker: SimulationBroker | None = None,
                 metrics: MetricsRegistry | None = None,
                 hot_bytes: int = 128 * 1024 * 1024,
                 metrics_path=None,
                 ingest_interval: float = 0.5,
                 metrics_interval: float = 5.0):
        self.store = store
        self.broker = broker
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.hot = HotSet(hot_bytes, self.metrics)
        self.metrics_path = metrics_path
        self.ingest_interval = float(ingest_interval)
        self.metrics_interval = float(metrics_interval)
        self._inflight: dict[str, asyncio.Future] = {}
        self._ingest_lock = asyncio.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task] = []
        self._stopping = asyncio.Event()
        self.address: tuple[str, int] | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._serve_conn, host,
                                                  port)
        self.address = self._server.sockets[0].getsockname()[:2]
        if self.broker is not None:
            self._tasks.append(asyncio.create_task(self._ingest_sweep()))
        if self.metrics_path is not None:
            self._tasks.append(asyncio.create_task(self._metrics_flush()))
        return self.address

    async def stop(self) -> None:
        """Stop accepting, cancel sweeps, flush a final metrics snapshot."""
        self._stopping.set()
        for t in self._tasks:
            t.cancel()
        for t in self._tasks:
            try:
                await t
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._write_metrics()

    def _write_metrics(self) -> None:
        if self.metrics_path is None:
            return
        with open(self.metrics_path, "a", encoding="utf-8") as fh:
            write_snapshot(fh, self.metrics, wall=time.time())

    async def _metrics_flush(self) -> None:
        while not self._stopping.is_set():
            await asyncio.sleep(self.metrics_interval)
            await asyncio.to_thread(self._write_metrics)

    async def _ingest_sweep(self) -> None:
        """Background loop: move completed production jobs into the
        catalog and close their tickets."""
        while not self._stopping.is_set():
            await asyncio.sleep(self.ingest_interval)
            try:
                await self.ingest()
            except Exception:
                self.metrics.counter("serve_ingest_errors").inc()

    async def ingest(self) -> dict:
        """One ingest scan (also the ``ingest`` RPC): scan the broker's
        result cache, index new waveforms, close served tickets."""
        if self.broker is None:
            return {"ingested": 0, "already": 0, "skipped": 0, "keys": []}
        async with self._ingest_lock:
            done = await asyncio.to_thread(self.broker.completed_unserved)
            report = await asyncio.to_thread(
                self.store.ingest_cache, self.broker.cache())
            for ticket in done:
                if self.store.has_source(f"cache:{ticket.cache_key}"):
                    self.broker.mark_ingested(ticket)
                    self.metrics.counter("serve_tickets", state="ingested") \
                        .inc()
        if report["ingested"]:
            self.metrics.counter("serve_ingested").inc(report["ingested"])
        return report

    # -- connection handling ----------------------------------------------
    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    req = await read_frame_async(reader)
                except ProtocolError:
                    break
                if req is None:
                    break
                resp = await self.handle(req)
                await write_frame_async(writer, resp)
                if req.get("op") == "shutdown":
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def handle(self, req: dict) -> dict:
        """Dispatch one request dict to its handler (transport-free —
        tests and in-process callers use this directly)."""
        op = req.get("op", "query")
        t0 = time.perf_counter()
        try:
            if op == "query":
                resp = await self._op_query(req)
            elif op == "ticket":
                resp = await self._op_ticket(req)
            elif op == "ingest":
                report = await self.ingest()
                resp = {"ok": True, **report}
            elif op == "stats":
                resp = self._op_stats()
            elif op in ("ping", "shutdown"):
                resp = {"ok": True, "op": op}
            else:
                resp = {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:
            self.metrics.counter("serve_requests", outcome="error").inc()
            resp = {"ok": False, "error": str(exc),
                    "kind": type(exc).__name__}
        self.metrics.histogram("serve_latency_seconds",
                               buckets=LATENCY_BUCKETS, route=op) \
            .observe(time.perf_counter() - t0)
        if "token" in req:
            resp["token"] = req["token"]
        return resp

    # -- the read path -----------------------------------------------------
    async def _arrays(self, key: str) -> dict:
        """Decoded arrays for one catalog key — hot set first, then a
        coalesced decode: concurrent requests for the same cold key
        share a single store read."""
        arrays = self.hot.get(key)
        if arrays is not None:
            return arrays
        fut = self._inflight.get(key)
        if fut is not None:
            self.metrics.counter("serve_coalesced").inc()
            return await asyncio.shield(fut)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._inflight[key] = fut
        try:
            arrays = await asyncio.to_thread(self.store.load_arrays, key)
            self.metrics.counter("serve_decodes").inc()
            self.hot.put(key, arrays)
            fut.set_result(arrays)
            return arrays
        except Exception as exc:
            fut.set_exception(exc)
            # a coalesced waiter may never await a failed future;
            # silence the "exception never retrieved" warning
            fut.exception()
            raise
        finally:
            del self._inflight[key]

    async def _op_query(self, req: dict) -> dict:
        if "mass_ratio" not in req:
            raise ValueError("query requires 'mass_ratio'")
        q = float(req["mass_ratio"])
        plan = self.store.query_plan(
            q,
            radius=req.get("radius"),
            resolution=req.get("resolution"),
            max_interp_mismatch=req.get("max_mismatch"),
        )
        outcome = plan["outcome"]
        if outcome == "miss":
            return await self._miss(q, plan)

        if outcome == "exact":
            meta = self.store.entry_meta(plan["key"])
            arrays = await self._arrays(plan["key"])
            times, h22 = arrays["times"], arrays["h22"]
            entry_meta = {**meta, "interpolated": False}
        else:  # interp
            # weight and bound come from the plan: no FFT, so the blend
            # runs on the loop (a cold key still decodes off-loop)
            lo, hi = [self.store.catalog_entry(k, await self._arrays(k))
                      for k in plan["keys"]]
            try:
                entry = blend(lo, hi, q, plan["weight"],
                              plan["mismatch_bound"])
            except InterpolationError as exc:
                # planned from the index but the arrays disagree (e.g.
                # torn grid) — report a miss rather than a 500
                return await self._miss(q, {"outcome": "miss",
                                            "reason": str(exc),
                                            "nearest": plan["keys"][0],
                                            "q_range": plan.get("q_range")})
            times, h22 = entry.times, entry.h22
            entry_meta = {**entry.metadata, "keys": plan["keys"]}

        self.metrics.counter("serve_requests", outcome=outcome).inc()
        resp = {
            "ok": True,
            "outcome": outcome,
            "mass_ratio": q,
            "entry": entry_meta,
            "mismatch_bound": plan["mismatch_bound"],
        }
        if req.get("include_waveform", True):
            stride = _stride(len(times), req.get("max_samples"))
            resp["times"] = _samples(times, stride)
            resp["h_re"] = _samples(np.real(h22), stride)
            resp["h_im"] = _samples(np.imag(h22), stride)
        detector = req.get("detector")
        if detector is not None:
            # strain/SNR is per-request FFT work — run it off-loop
            resp["strain"] = await asyncio.to_thread(
                self._postprocess, times, h22, detector, req)
        return resp

    async def _miss(self, q: float, plan: dict) -> dict:
        self.metrics.counter("serve_requests", outcome="miss").inc()
        resp = {"ok": True, "outcome": "miss", "mass_ratio": q,
                "reason": plan.get("reason", ""),
                "nearest": plan.get("nearest"),
                "q_range": plan.get("q_range"), "ticket": None}
        if self.broker is not None:
            known = q in {t.mass_ratio for t in self.broker.tickets.values()}
            ticket = await asyncio.to_thread(self.broker.submit, q)
            if not known:
                self.metrics.counter("serve_tickets", state="opened").inc()
            resp["ticket"] = ticket.to_dict()
        return resp

    def _postprocess(self, times, h22, detector: str, req: dict) -> dict:
        """Detector-frame post-processing, computed per request."""
        if detector not in DETECTORS:
            raise ValueError(f"unknown detector {detector!r}; "
                             f"available: {sorted(DETECTORS)}")
        asd = DETECTORS[detector]
        t_s, strain = physical_strain(
            np.asarray(h22), np.asarray(times),
            total_mass_msun=float(req.get("total_mass_msun", 65.0)),
            distance_mpc=float(req.get("distance_mpc", 410.0)),
        )
        dt = float(t_s[1] - t_s[0])
        f_lo = float(req.get("f_lo", 20.0))
        f_hi = float(req.get("f_hi", 0.5 / dt))
        banded = bandpass(strain, dt, f_lo, f_hi)
        snr = snr_estimate(strain, dt, asd)
        stride = _stride(len(t_s), req.get("max_samples"))
        return {
            "detector": detector,
            "snr": float(snr),
            "f_lo": f_lo,
            "f_hi": f_hi,
            "times_s": _samples(t_s, stride),
            "strain": _samples(banded, stride),
        }

    async def _op_ticket(self, req: dict) -> dict:
        if self.broker is None:
            return {"ok": False, "error": "no simulation broker attached"}
        if "id" not in req:
            raise ValueError("ticket requires 'id'")
        status = await asyncio.to_thread(self.broker.poll, str(req["id"]))
        return {"ok": True, **status}

    def _op_stats(self) -> dict:
        return {
            "ok": True,
            "store": self.store.stats(),
            "hot_set": {
                "entries": len(self.hot._data),
                "bytes": self.hot._nbytes,
                "max_bytes": self.hot.max_bytes,
                "hit_ratio": self.hot.hit_ratio,
            },
            "tickets": ({} if self.broker is None else {
                "open": sum(1 for t in self.broker.tickets.values()
                            if not t.ingested),
                "total": len(self.broker.tickets),
            }),
            "metrics": self.metrics.snapshot(wall=time.time()),
        }


def _samples(values: np.ndarray, stride: int) -> np.ndarray:
    """Every ``stride``-th sample, as the contiguous float64 buffer the
    frame codec ships raw."""
    return np.ascontiguousarray(values[::stride], dtype=np.float64)


def _stride(n: int, max_samples) -> int:
    if not max_samples:
        return 1
    return max(1, int(np.ceil(n / int(max_samples))))
