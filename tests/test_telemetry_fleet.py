"""Tests for fleet telemetry: the shipper/aggregator delta protocol,
the rollup merge algebra, histogram quantiles, campaign trace assembly,
SLO rules, and a live coordinator round trip."""

import json

import pytest

from repro.telemetry import (
    FleetAggregator,
    MergeConflict,
    MetricsRegistry,
    SLORules,
    TelemetryShipper,
    load_rollups,
    merge_chrome_traces,
    merge_gauge,
    merge_histogram,
    quantile_from_dict,
)
from repro.telemetry.fleet import ROLLUPS_FILE, FLEET_EVENTS_FILE
from repro.telemetry.metrics import Histogram


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _hist_dict(values, edges=(1.0, 2.0, 4.0)):
    h = Histogram(edges=edges)
    for v in values:
        h.observe(v)
    return h.to_dict()


# ---------------------------------------------------------------------
# merge algebra
# ---------------------------------------------------------------------
class TestMergeAlgebra:
    def test_histogram_merge_is_commutative(self):
        a = _hist_dict([0.5, 1.5, 3.0])
        b = _hist_dict([1.0, 8.0])
        ab = merge_histogram(merge_histogram(None, a), b)
        ba = merge_histogram(merge_histogram(None, b), a)
        assert ab == ba
        assert ab["count"] == 5
        assert ab["counts"] == [2, 1, 1, 1]
        assert ab["min"] == 0.5 and ab["max"] == 8.0

    def test_histogram_merge_is_associative(self):
        parts = [_hist_dict([0.5]), _hist_dict([1.5, 2.5]),
                 _hist_dict([3.0, 9.0])]
        left = merge_histogram(
            merge_histogram(merge_histogram(None, parts[0]), parts[1]),
            parts[2])
        # fold the last two first, then the head
        tail = merge_histogram(merge_histogram(None, parts[1]), parts[2])
        right = merge_histogram(merge_histogram(None, parts[0]), tail)
        assert left == right

    def test_histogram_edge_mismatch_raises(self):
        a = merge_histogram(None, _hist_dict([0.5], edges=(1.0, 2.0)))
        with pytest.raises(MergeConflict):
            merge_histogram(a, _hist_dict([0.5], edges=(1.0, 3.0)))

    def test_gauge_last_write_wins_by_timestamp(self):
        g = merge_gauge(None, 1.0, 10.0, "a")
        assert g == (1.0, 10.0, "a")
        # an older sample (replayed delta) can never roll the gauge back
        assert merge_gauge(g, 99.0, 5.0, "b") == (1.0, 10.0, "a")
        # a newer one replaces it
        assert merge_gauge(g, 2.0, 11.0, "b") == (2.0, 11.0, "b")


# ---------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------
class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram(edges=(1.0, 2.0))
        assert h.quantile(0.5) is None

    def test_single_sample_reports_itself_everywhere(self):
        h = Histogram(edges=(1.0, 2.0, 4.0))
        h.observe(1.7)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(1.7)

    def test_interpolation_within_bucket(self):
        # 100 samples spread uniformly in (1, 2]: p50 lands mid-bucket
        h = Histogram(edges=(1.0, 2.0, 4.0))
        for i in range(100):
            h.observe(1.0 + (i + 1) / 100.0)
        assert h.quantile(0.5) == pytest.approx(1.5, abs=0.05)
        assert h.quantile(0.99) == pytest.approx(2.0, abs=0.05)

    def test_clamped_by_observed_extrema(self):
        # everything in the overflow bucket: max clamps the estimate
        h = Histogram(edges=(1.0,))
        h.observe(5.0)
        h.observe(6.0)
        assert h.quantile(0.99) <= 6.0
        assert h.quantile(0.0) >= 5.0

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            quantile_from_dict(_hist_dict([1.0]), 1.5)


# ---------------------------------------------------------------------
# the shipper
# ---------------------------------------------------------------------
class TestShipper:
    def test_counter_deltas_are_exact_differences(self):
        clk = FakeClock()
        ship = TelemetryShipper("w0", clock=clk)
        ship.registry.counter("steps_total").inc(5)
        p1 = ship.flush()
        assert p1["deltas"][-1]["counters"] == [
            {"name": "steps_total", "labels": {}, "value": 5.0}]
        ship.commit(p1["deltas"][-1]["seq"])
        ship.registry.counter("steps_total").inc(3)
        p2 = ship.flush()
        # only the increment since the last flush ships
        assert p2["deltas"][-1]["counters"][0]["value"] == 3.0

    def test_unwatch_folds_final_diff(self):
        ship = TelemetryShipper("w0", clock=FakeClock())
        job = MetricsRegistry()
        ship.watch(job)
        job.counter("steps_total").inc(4)
        ship.unwatch(job)  # job registry goes away before any flush
        payload = ship.flush()
        assert payload["deltas"][-1]["counters"][0]["value"] == 4.0

    def test_event_queue_is_bounded_and_loss_counted(self):
        ship = TelemetryShipper("w0", max_events=2, clock=FakeClock())
        for i in range(5):
            ship.event({"kind": "rollback", "i": i})
        assert ship.lost_events == 3
        payload = ship.flush()
        events = payload["deltas"][-1]["events"]
        # the two newest survive; the payload carries the loss count
        assert [e["i"] for e in events] == [3, 4]
        assert payload["lost_events"] == 3

    def test_inflight_window_drops_oldest_and_counts(self):
        clk = FakeClock()
        ship = TelemetryShipper("w0", max_inflight=2, clock=clk)
        for _ in range(4):
            ship.registry.counter("steps_total").inc(1)
            assert ship.flush() is not None
        assert ship.lost_deltas == 2
        assert ship.backlog == 2

    def test_retransmit_until_commit(self):
        ship = TelemetryShipper("w0", clock=FakeClock())
        ship.registry.counter("steps_total").inc(1)
        p1 = ship.flush()
        ship.registry.counter("steps_total").inc(1)
        p2 = ship.flush()
        # un-acked delta 1 retransmits alongside delta 2
        assert [d["seq"] for d in p2["deltas"]] == [1, 2]
        ship.commit(2)
        assert ship.backlog == 0
        assert ship.stats()["shipped_deltas"] == 2


# ---------------------------------------------------------------------
# the aggregator
# ---------------------------------------------------------------------
def _payload(worker, clk, *, steps=0.0, hist_values=(), events=(),
             gauges=()):
    ship = TelemetryShipper(worker, clock=clk)
    if steps:
        ship.registry.counter("steps_total").inc(steps)
    for v in hist_values:
        ship.registry.histogram("step_seconds",
                                buckets=(0.01, 0.1, 1.0)).observe(v)
    for name, value in gauges:
        ship.registry.gauge(name).set(value)
    for ev in events:
        ship.event(ev)
    return ship.flush()


class TestAggregator:
    def test_ingest_order_does_not_change_rollup(self):
        clk = FakeClock()
        p_a = _payload("a", clk, steps=5, hist_values=[0.05, 0.5])
        p_b = _payload("b", clk, steps=3, hist_values=[0.02])
        agg1 = FleetAggregator(clock=clk)
        agg2 = FleetAggregator(clock=clk)
        agg1.ingest(p_a), agg1.ingest(p_b)
        agg2.ingest(p_b), agg2.ingest(p_a)
        assert agg1.counters == agg2.counters
        assert agg1.histograms == agg2.histograms
        assert agg1.counter_value("steps_total") == 8.0

    def test_duplicate_delivery_is_idempotent(self):
        clk = FakeClock()
        agg = FleetAggregator(clock=clk)
        payload = _payload("w0", clk, steps=5)
        ack1 = agg.ingest(payload)
        ack2 = agg.ingest(payload)  # RPC retry redelivers the window
        assert ack1 == ack2
        assert agg.counter_value("steps_total") == 5.0

    def test_losses_reported_without_corrupting_totals(self):
        clk = FakeClock()
        ship = TelemetryShipper("w0", max_inflight=2, clock=clk)
        payload = None
        for _ in range(5):  # 3 deltas fall off the window un-acked
            ship.registry.counter("steps_total").inc(1)
            payload = ship.flush()
        agg = FleetAggregator(clock=clk)
        agg.ingest(payload)
        agg.ingest(payload)
        # only the surviving window applies — exactly once — and the
        # drop count rides along instead of silently vanishing
        assert agg.counter_value("steps_total") == 2.0
        assert agg.snapshot()["workers"]["w0"]["lost_deltas"] == 3

    def test_histogram_conflicts_are_counted_not_fatal(self):
        clk = FakeClock()
        agg = FleetAggregator(clock=clk)
        agg.ingest(_payload("a", clk, hist_values=[0.05]))
        ship = TelemetryShipper("b", clock=clk)
        ship.registry.histogram("step_seconds",
                                buckets=(1.0, 2.0)).observe(0.5)
        agg.ingest(ship.flush())
        assert agg.merge_conflicts == 1
        assert agg.snapshot()["merge_conflicts"] == 1

    def test_rollups_persist_and_reload(self, tmp_path):
        clk = FakeClock()
        agg = FleetAggregator(tmp_path / "fleet", window_seconds=1.0,
                              clock=clk)
        agg.ingest(_payload("w0", clk, steps=4, hist_values=[0.05, 0.2]))
        clk.advance(1.5)
        rollup = agg.tick()
        assert rollup is not None and rollup["seq"] == 1
        agg.close()
        rollups = load_rollups(tmp_path / "fleet" / ROLLUPS_FILE)
        assert len(rollups) == 2  # the window plus the close() flush
        first = rollups[0]
        counters = {c["name"]: c["value"] for c in first["counters"]}
        assert counters["steps_total"] == 4.0
        hists = {h["name"]: h for h in first["histograms"]}
        assert hists["step_seconds"]["count"] == 2
        assert hists["step_seconds"]["p50"] is not None
        assert first["workers"]["w0"]["steps_total"] == 2

    def test_track_local_folds_coordinator_metrics(self):
        clk = FakeClock()
        agg = FleetAggregator(clock=clk)
        reg = MetricsRegistry()
        agg.track_local("coordinator", reg)
        reg.counter("requests", op="claim").inc(7)
        agg.tick(force=True)
        assert agg.counter_value("requests", op="claim") == 7.0
        assert "coordinator" in agg.snapshot()["workers"]


# ---------------------------------------------------------------------
# SLO rules
# ---------------------------------------------------------------------
class TestSLORules:
    def test_lease_expiry_spike_raises_then_clears(self, tmp_path):
        clk = FakeClock()
        agg = FleetAggregator(tmp_path / "fleet", window_seconds=1.0,
                              clock=clk)
        ship = TelemetryShipper("coordinator", clock=clk)
        ship.registry.counter("lease_expirations").inc(3)
        agg.ingest(ship.flush())
        clk.advance(1.5)
        rollup = agg.tick()
        assert [a["rule"] for a in rollup["alerts"]] == \
            ["lease-expiry-spike"]
        # next window: no new expirations → the alert clears
        clk.advance(1.5)
        rollup = agg.tick()
        assert rollup["alerts"] == []
        agg.close()
        kinds = [json.loads(line)["kind"] for line in
                 (tmp_path / "fleet" / FLEET_EVENTS_FILE)
                 .read_text().splitlines()]
        assert kinds.count("alert") == 1
        assert kinds.count("alert-cleared") == 1

    def test_recovery_spike(self):
        clk = FakeClock()
        agg = FleetAggregator(clock=clk)
        agg.ingest(_payload("w0", clk, events=[
            {"kind": "rollback"}, {"kind": "nan-detected"},
            {"kind": "rollback"}]))
        clk.advance(2.5)
        rollup = agg.tick()
        assert [a["rule"] for a in rollup["alerts"]] == ["recovery-spike"]

    def test_degraded_mode_entry_and_exit(self):
        clk = FakeClock()
        agg = FleetAggregator(clock=clk)
        ship = TelemetryShipper("w1", clock=clk)
        ship.registry.gauge("fabric_degraded").set(1.0)
        p = ship.flush()
        agg.ingest(p)
        clk.advance(2.5)
        rollup = agg.tick()
        assert [(a["rule"], a["worker"]) for a in rollup["alerts"]] == \
            [("degraded-mode", "w1")]
        ship.commit(p["deltas"][-1]["seq"])
        ship.registry.gauge("fabric_degraded").set(0.0)
        agg.ingest(ship.flush())
        clk.advance(2.5)
        assert agg.tick()["alerts"] == []

    def test_step_time_regression_needs_baseline(self):
        clk = FakeClock()
        rules = SLORules(step_time_factor=3.0, min_baseline_windows=2)
        agg = FleetAggregator(window_seconds=1.0, rules=rules, clock=clk)
        ship = TelemetryShipper("w0", clock=clk)
        ship.registry.gauge("job_predicted_step_seconds").set(0.01)

        def window(step_time):
            ship.registry.histogram(
                "step_seconds", buckets=(0.01, 0.1, 1.0)
            ).observe(step_time)
            ship.commit(agg.ingest(ship.flush()))
            clk.advance(1.5)
            return agg.tick()

        # healthy windows build the fleet baseline — no alert
        for _ in range(3):
            assert window(0.01)["alerts"] == []
        # then one window at 10× the model trips the regression rule
        rollup = window(0.1)
        assert [a["rule"] for a in rollup["alerts"]] == \
            ["step-time-regression"]


# ---------------------------------------------------------------------
# campaign trace merging
# ---------------------------------------------------------------------
def _trace(label, ts, *, pid=0):
    return {
        "otherData": {"epoch_wall": 0.0},
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": label}},
            {"ph": "X", "name": "step", "cat": "step", "pid": pid,
             "tid": 0, "ts": ts, "dur": 5.0},
        ],
    }


class TestMergeChromeTraces:
    def test_same_label_lands_on_one_lane(self):
        merged = merge_chrome_traces(
            [_trace("w0", 0.0), _trace("w0", 100.0)],
            labels=["w0", "w0"])
        timed = [e for e in merged["traceEvents"] if e["ph"] != "M"]
        assert {e["pid"] for e in timed} == {0}
        names = [e for e in merged["traceEvents"]
                 if e.get("name") == "process_name"]
        assert len(names) == 1 and names[0]["args"]["name"] == "w0"

    def test_distinct_labels_with_clashing_pids_split(self):
        merged = merge_chrome_traces(
            [_trace("w0", 0.0, pid=0), _trace("w1", 0.0, pid=0)],
            labels=["w0", "w1"])
        timed = [e for e in merged["traceEvents"] if e["ph"] != "M"]
        assert len({e["pid"] for e in timed}) == 2

    def test_shifts_applied_to_timed_events_only(self):
        merged = merge_chrome_traces(
            [_trace("w0", 10.0), _trace("w1", 10.0)],
            labels=["w0", "w1"], shifts_us=[0.0, 250.0])
        ts = sorted(e["ts"] for e in merged["traceEvents"]
                    if e["ph"] != "M")
        assert ts == [10.0, 260.0]

    def test_duplicate_metadata_deduped_without_labels(self):
        t = _trace("w0", 0.0)
        merged = merge_chrome_traces([t, json.loads(json.dumps(t))])
        names = [e for e in merged["traceEvents"]
                 if e.get("name") == "process_name"]
        assert len(names) == 1

    def test_label_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_chrome_traces([_trace("w0", 0.0)], labels=["a", "b"])
        with pytest.raises(ValueError):
            merge_chrome_traces([_trace("w0", 0.0)], shifts_us=[1.0, 2.0])


# ---------------------------------------------------------------------
# live coordinator round trip
# ---------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_heartbeat_piggyback_and_fleet_rpc(self, tmp_path):
        from repro.jobs.fabric import Coordinator, FabricQueue

        with Coordinator(tmp_path, lease_seconds=60.0,
                         reap_interval=600.0, fleet=True) as coord:
            shipper = TelemetryShipper("w-test")
            fq = FabricQueue(coord.address, name="w-test",
                             shipper=shipper)
            fq.attach()
            fq.submit({"name": "j"}, cache_key="k0",
                      cost={"total_seconds": 1.0})
            rec = fq.claim()
            shipper.registry.counter("steps_total").inc(7)
            assert fq.heartbeat(rec["id"]) is True
            fq.complete(rec["id"], {"ok": True}, worker="w-test",
                        attempt=rec["attempts"])
            fq.push_telemetry()
            assert shipper.backlog == 0  # everything acked

            status = fq.client.call("fleet")
            counters = {c["name"]: c["value"] for c in status["counters"]
                        if not c["labels"]}
            assert counters["steps_total"] == 7.0
            assert "w-test" in status["workers"]
            assert status["workers"]["w-test"]["lost_deltas"] == 0
            # satellite 3: RPC latency ships end-to-end per op
            ops = {dict(h["labels"]).get("op")
                   for h in status["histograms"]
                   if h["name"] == "rpc_latency_seconds"}
            assert "claim" in ops
            assert status["counts"]["done"] == 1
            fq.close()
        # the coordinator's shutdown flush persists the final rollup
        rollups = load_rollups(tmp_path / "fleet" / ROLLUPS_FILE)
        assert rollups
        assert "w-test" in rollups[-1]["workers"]
