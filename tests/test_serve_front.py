"""Tests for the asyncio serve front: hot set, coalescing, tickets.

No pytest-asyncio in the toolchain — each test drives its own event
loop with ``asyncio.run``.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

import repro.analysis.catalog
import repro.gw.compare
import repro.serve.store
from repro.analysis.catalog import WaveformCatalog, build_model_catalog
from repro.gw.compare import mismatch
from repro.jobs.cache import ResultCache
from repro.jobs.worker import worker_loop
from repro.serve import (
    AsyncServeClient,
    CatalogStore,
    ServeError,
    ServeFront,
    SimulationBroker,
)
from repro.serve.fallback import PRODUCTION_TEMPLATE
from repro.serve.front import HotSet
from repro.serve.loadgen import build_requests
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def model_catalog():
    return build_model_catalog((1.0, 2.0, 4.0), samples=512,
                               duration=200.0)


@pytest.fixture
def store(tmp_path, model_catalog):
    s = CatalogStore(tmp_path / "store")
    s.ingest_model_catalog(model_catalog)
    return s


def run_front(store, coro_fn, **front_kwargs):
    """Start a front, run ``coro_fn(front, client)``, tear down."""

    async def main():
        front = ServeFront(store, **front_kwargs)
        host, port = await front.start()
        client = AsyncServeClient((host, port))
        try:
            return await coro_fn(front, client)
        finally:
            await client.close()
            await front.stop()

    return asyncio.run(main())


class TestHotSet:
    def test_lru_eviction_by_bytes(self):
        metrics = MetricsRegistry()
        hot = HotSet(3 * 8 * 4, metrics)  # room for ~3 tiny entries
        arr = lambda: {"x": np.zeros(4)}  # noqa: E731 — 32 bytes each
        for k in "abcd":
            hot.put(k, arr())
        assert hot.get("a") is None  # oldest evicted
        assert hot.get("d") is not None
        assert metrics.counter("serve_hot_evictions").value == 1

    def test_get_refreshes_recency(self):
        hot = HotSet(2 * 32, MetricsRegistry())
        hot.put("a", {"x": np.zeros(4)})
        hot.put("b", {"x": np.zeros(4)})
        assert hot.get("a") is not None  # a is now most recent
        hot.put("c", {"x": np.zeros(4)})  # evicts b, not a
        assert hot.get("a") is not None
        assert hot.get("b") is None

    def test_hit_ratio(self):
        hot = HotSet(1024, MetricsRegistry())
        hot.put("a", {"x": np.zeros(4)})
        hot.get("a")
        hot.get("missing")
        assert hot.hit_ratio == pytest.approx(0.5)


class TestQueries:
    def test_exact_and_hot_set(self, store):
        async def scenario(front, client):
            r1 = await client.query(2.0, max_samples=32)
            assert r1["outcome"] == "exact"
            assert r1["mismatch_bound"] == 0.0
            assert len(r1["times"]) <= 32
            assert np.all(np.isfinite(r1["h_re"]))
            hits0 = front.metrics.counter("serve_hot_hits").value
            r2 = await client.query(2.0, max_samples=32)
            assert r2["entry"]["key"] == r1["entry"]["key"]
            assert front.metrics.counter("serve_hot_hits").value > hits0
            assert front.metrics.counter("serve_decodes").value == 1

        run_front(store, scenario)

    def test_interp_reports_bound_and_bracket(self, store):
        async def scenario(front, client):
            r = await client.query(1.5, max_samples=32)
            assert r["outcome"] == "interp"
            assert 0.0 < r["mismatch_bound"] <= store.max_interp_mismatch
            assert r["entry"]["interpolated"] is True
            assert len(r["entry"]["keys"]) == 2
            return r

        run_front(store, scenario)

    def test_detector_postprocessing(self, store):
        async def scenario(front, client):
            r = await client.query(1.0, detector="ce", max_samples=32)
            s = r["strain"]
            assert s["detector"] == "ce"
            assert s["snr"] > 0.0 and np.isfinite(s["snr"])
            assert np.all(np.isfinite(s["strain"]))
            with pytest.raises(ServeError, match="unknown detector"):
                await client.query(1.0, detector="lisa")

        run_front(store, scenario)

    def test_coalescing_single_decode(self, store):
        async def scenario(front, client):
            reqs = [{"op": "query", "mass_ratio": 4.0,
                     "max_samples": 16} for _ in range(8)]
            resps = await asyncio.gather(*(front.handle(dict(r))
                                           for r in reqs))
            assert all(r["ok"] and r["outcome"] == "exact"
                       for r in resps)
            assert front.metrics.counter("serve_decodes").value == 1
            assert front.metrics.counter("serve_coalesced").value == 7

        run_front(store, scenario)

    def test_errors_are_responses_not_disconnects(self, store):
        async def scenario(front, client):
            bad = await client.request({"op": "query"})  # no mass_ratio
            assert bad["ok"] is False and "mass_ratio" in bad["error"]
            unknown = await client.request({"op": "launch_missiles"})
            assert unknown["ok"] is False
            # the connection survives both
            assert (await client.request({"op": "ping"}))["ok"]
            err = front.metrics.counter("serve_requests",
                                        outcome="error").value
            assert err == 1  # unknown op is a clean refusal, not an error

        run_front(store, scenario)

    def test_stats_and_token_echo(self, store):
        async def scenario(front, client):
            await client.query(1.0, max_samples=8)
            r = await client.request({"op": "stats", "token": "t-17"})
            assert r["token"] == "t-17"
            assert r["store"]["entries"] == 3
            assert r["hot_set"]["entries"] == 1

        run_front(store, scenario)


class TestInterpFromIndex:
    """An interp reply is the plan's blend of the two hot entries: the
    weight and the bound come from the index, no FFT and no thread."""

    @staticmethod
    def with_cache_entry(store, tmp_path):
        """Join a ``cache:``-ingested q = 3 entry to the model family,
        splitting the [2, 4] bracket."""
        (model,) = build_model_catalog((3.0,), samples=512,
                                       duration=200.0).entries
        cache = ResultCache(tmp_path / "cache")
        cache.put("d" * 64, {"physics": {"mass_ratio": 3.0, "max_level": 2,
                                         "extraction_radii": [2.0]}},
                  arrays={"times": model.times, "h22_r2": model.h22})
        assert store.ingest_cache(cache)["ingested"] == 1
        return store

    def test_reply_is_bitwise_the_catalog_interpolation(self, store,
                                                        tmp_path):
        store = self.with_cache_entry(store, tmp_path)
        (family,) = store._index["families"].values()
        brackets = list(zip(family["keys"], family["keys"][1:]))
        assert len(brackets) == 3
        assert any(store.entry_meta(k)["source"].startswith("cache:")
                   for pair in brackets for k in pair)

        async def main():
            front = ServeFront(store)
            checked = 0
            for k_lo, k_hi in brackets:
                lo, hi = (store.catalog_entry(k) for k in (k_lo, k_hi))
                ref_cat = WaveformCatalog(entries=[lo, hi])
                span = hi.mass_ratio - lo.mass_ratio
                for frac in (0.1, 0.37, 0.5, 0.9):
                    q = lo.mass_ratio + frac * span
                    r = await front.handle({"op": "query", "mass_ratio": q})
                    ref = ref_cat.interpolate(q)
                    assert r["outcome"] == "interp"
                    assert r["entry"]["keys"] == [k_lo, k_hi]
                    assert np.array_equal(r["times"], ref.times)
                    assert np.array_equal(r["h_re"], ref.h22.real)
                    assert np.array_equal(r["h_im"], ref.h22.imag)
                    meta = r["entry"]
                    assert (meta["bracket_weight"]
                            == ref.metadata["bracket_weight"])
                    gap = mismatch(lo.h22, hi.h22,
                                   float(lo.times[1] - lo.times[0]))
                    assert (meta["interpolation_mismatch_bound"]
                            == r["mismatch_bound"]
                            == ref.metadata["interpolation_mismatch_bound"]
                            == gap)
                    checked += 1
            return checked

        assert asyncio.run(main()) == 12

    def test_hot_interp_runs_no_fft_and_no_thread(self, store, monkeypatch):
        calls = {"mismatch": 0, "to_thread": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (repro.gw.compare, repro.analysis.catalog,
                       repro.serve.store):
            monkeypatch.setattr(module, "mismatch",
                                counted("mismatch", module.mismatch))
        monkeypatch.setattr(asyncio, "to_thread",
                            counted("to_thread", asyncio.to_thread))
        req = {"op": "query", "mass_ratio": 1.5, "max_samples": 32}

        async def main():
            front = ServeFront(store)
            cold = await front.handle(dict(req))
            assert cold["outcome"] == "interp"
            # the counters see the calls: the cold pair decoded off-loop
            assert calls == {"mismatch": 0, "to_thread": 2}
            calls["to_thread"] = 0
            hot = await front.handle(dict(req))
            assert hot["outcome"] == "interp"
            assert calls == {"mismatch": 0, "to_thread": 0}
            assert front.metrics.counter("serve_decodes").value == 2

        asyncio.run(main())
        # the wrappers are live: the catalog's own path computes its bound
        cat = WaveformCatalog(entries=[store.catalog_entry(k)
                                       for k in store.entries()])
        cat.interpolate(1.5)
        assert calls["mismatch"] == 1

    def test_torn_bracket_answers_a_miss(self, tmp_path):
        """Two entries of one family signature (``n:t0:t1``) whose
        interior times disagree: the plan says interp, the grid check
        says no — the reply is a miss (with a ticket), not an error."""
        store = CatalogStore(tmp_path / "torn")
        t = np.linspace(0.0, 1.0, 16)
        h = np.exp(4j * t)
        for q, times in ((1.0, t), (2.0, t**2)):
            store.add_waveform(q, times, h, source=f"test:q{q:g}")
        assert len(store._index["families"]) == 1
        assert store.query_plan(1.5)["outcome"] == "interp"
        broker = SimulationBroker(tmp_path / "campaign",
                                  template=tiny_template())

        async def main():
            for attached in (None, broker):
                front = ServeFront(store, broker=attached)
                r = await front.handle({"op": "query", "mass_ratio": 1.5})
                assert r["ok"] and r["outcome"] == "miss"
                assert "do not share a time grid" in r["reason"]
                assert r["nearest"] == store.query_plan(1.5)["keys"][0]
                if attached is None:
                    assert r["ticket"] is None
                else:
                    assert r["ticket"]["mass_ratio"] == 1.5

        asyncio.run(main())


def tiny_template():
    cfg = dataclasses.replace(
        PRODUCTION_TEMPLATE, domain_half_width=4.0, base_level=1,
        max_level=2, t_end=2.0, extraction_radii=[2.0], extract_every=2)
    return cfg


class TestMissFallback:
    def test_miss_without_broker_has_no_ticket(self, store):
        async def scenario(front, client):
            r = await client.query(40.0)
            assert r["outcome"] == "miss" and r["ticket"] is None

        run_front(store, scenario)

    def test_miss_opens_coalesced_ticket(self, store, tmp_path):
        broker = SimulationBroker(tmp_path / "campaign",
                                  template=tiny_template())

        async def scenario(front, client):
            r1 = await client.query(40.0)
            r2 = await client.query(40.0)
            assert r1["ticket"]["id"] == r2["ticket"]["id"]
            status = await client.request({"op": "ticket",
                                           "id": r1["ticket"]["id"]})
            assert status["ok"] and status["known"]
            assert status["state"] == "pending"
            assert not status["ingested"]
            opened = front.metrics.counter("serve_tickets",
                                           state="opened").value
            assert opened == 1

        run_front(store, scenario, broker=broker)

    def test_full_loop_miss_to_served(self, store, tmp_path):
        """miss -> ticket -> worker drains the job -> ingest -> hit."""
        broker = SimulationBroker(tmp_path / "campaign",
                                  template=tiny_template())

        async def scenario(front, client):
            miss = await client.query(5.5, max_samples=16)
            assert miss["outcome"] == "miss"
            ticket = miss["ticket"]
            await asyncio.to_thread(worker_loop,
                                    str(tmp_path / "campaign"), "w0")
            report = await front.ingest()
            assert report["ingested"] == 1
            status = await client.request({"op": "ticket",
                                           "id": ticket["id"]})
            assert status["state"] == "done" and status["ingested"]
            hit = await client.query(5.5, max_samples=16)
            assert hit["outcome"] == "exact"
            assert hit["entry"]["source"].startswith("cache:")
            assert np.any(np.abs(hit["h_re"]) > 0.0)

        # no background sweep: a 0.5 s tick landing between the worker's
        # cache write and the explicit ingest() would ingest first and
        # leave this one reporting ``already`` (seen once in a full run)
        run_front(store, scenario, broker=broker, ingest_interval=3600.0)


class TestLoadgen:
    def test_build_requests_deterministic_mix(self):
        a = build_requests(100, hot_qs=[1.0], interp_qs=[1.5],
                           miss_qs=[9.0], seed=3)
        b = build_requests(100, hot_qs=[1.0], interp_qs=[1.5],
                           miss_qs=[9.0], seed=3)
        assert a == b
        kinds = [r["_kind"] for r in a]
        assert kinds.count("hot") > kinds.count("miss")
        assert all(r["op"] == "query" for r in a)
        assert {r["_kind"] for r in a} <= {"hot", "interp", "detector",
                                           "miss"}
