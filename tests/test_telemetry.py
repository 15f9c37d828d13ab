"""Tests for the unified telemetry subsystem: tracer, metrics registry,
sink, profiler adapter, journal mirroring, CLI compare, and overhead."""

import json
import time

import numpy as np
import pytest

from repro.perf import PHASES, StepProfiler
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    TelemetrySink,
    Tracer,
    load_snapshots,
    merge_chrome_traces,
    read_events,
    write_snapshot,
)
from repro.telemetry.cli import (
    PHASE_ORDER,
    compare_profiles,
    load_profile,
    summarize_run,
)


# ---------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_record_depth_and_order(self):
        tr = Tracer(capacity=64)
        with tr.span("step", "step"):
            with tr.span("unzip", "phase"):
                pass
            with tr.span("deriv", "phase"):
                pass
        recs = tr.records()
        # inner spans close before the outer one, so they appear first
        assert [r[1] for r in recs] == ["unzip", "deriv", "step"]
        assert [r[5] for r in recs] == [1, 1, 0]  # depth of each span
        assert tr.open_spans == 0

    def test_begin_end_args_merge(self):
        tr = Tracer(capacity=8)
        tr.begin("halo.exchange", "comm", {"dof": 24})
        tr.end({"bytes": 1024})
        (rec,) = tr.records()
        assert rec[6] == {"dof": 24, "bytes": 1024}

    def test_ring_wraparound_counts_dropped(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.instant(f"e{i}")
        assert len(tr) == 4
        assert tr.dropped == 6
        # the survivors are the newest four, oldest first
        assert [r[1] for r in tr.records()] == ["e6", "e7", "e8", "e9"]

    def test_disabled_is_true_noop(self):
        tr = Tracer(enabled=False, capacity=4)
        # one shared null context: no allocation per call
        assert tr.span("a") is tr.span("b")
        tr.begin("x")
        tr.end()
        tr.instant("y")
        assert len(tr) == 0 and tr.open_spans == 0

    def test_chrome_export_schema(self):
        tr = Tracer(capacity=64, tid=3)
        with tr.span("step", "step", {"n": 1}):
            with tr.span("unzip", "phase"):
                pass
        tr.instant("rollback", "event", {"attempt": 1})
        trace = tr.to_chrome(label="unit")
        # must survive a JSON round-trip (what Perfetto loads)
        trace = json.loads(json.dumps(trace))
        assert trace["otherData"]["schema"] == "repro-trace-v1"
        evs = trace["traceEvents"]
        meta = [e for e in evs if e["ph"] == "M"]
        spans = [e for e in evs if e["ph"] == "X"]
        instants = [e for e in evs if e["ph"] == "i"]
        assert meta and meta[0]["args"]["name"] == "unit"
        assert {e["name"] for e in spans} == {"step", "unzip"}
        for e in spans:
            assert e["dur"] >= 0 and e["ts"] >= 0 and e["tid"] == 3
        assert instants[0]["s"] == "t"
        # the inner span is contained in the outer one (Perfetto nesting)
        step = next(e for e in spans if e["name"] == "step")
        unzip = next(e for e in spans if e["name"] == "unzip")
        assert step["ts"] <= unzip["ts"]
        assert unzip["ts"] + unzip["dur"] <= step["ts"] + step["dur"] + 1e-6

    def test_merge_traces(self):
        trs = [Tracer(capacity=8, tid=r) for r in range(2)]
        for tr in trs:
            tr.instant("x")
        merged = merge_chrome_traces([t.to_chrome() for t in trs])
        tids = {e["tid"] for e in merged["traceEvents"] if e["ph"] == "i"}
        assert tids == {0, 1}


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------
class TestMetrics:
    def test_histogram_bucket_edges_inclusive_upper(self):
        h = Histogram(edges=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0):       # (..., 1.0] -> bucket 0
            h.observe(v)
        h.observe(1.5)             # (1.0, 2.0] -> bucket 1
        h.observe(4.0)             # (2.0, 4.0] -> bucket 2
        h.observe(100.0)           # overflow
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx((0.5 + 1.0 + 1.5 + 4.0 + 100.0) / 5)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))

    def test_default_latency_buckets_span_us_to_30s(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 30.0

    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("halo_bytes", src=0, dst=1)
        assert reg.counter("halo_bytes", dst=1, src=0) is c  # label order
        with pytest.raises(TypeError):
            reg.gauge("halo_bytes", src=0, dst=1)

    def test_label_named_name_is_allowed(self):
        reg = MetricsRegistry()
        reg.gauge("constraint", name="ham_l2").set(1.0)
        assert reg.get("constraint", name="ham_l2").value == 1.0

    def test_counter_monotone(self):
        c = MetricsRegistry().counter("steps_total")
        c.inc()
        c.inc(np.float64(2.0))
        assert c.value == 3.0 and type(c.value) is float
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_snapshot_roundtrip_exact(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("steps_total").inc(7)
        reg.gauge("octants", level=3).set(84)
        h = reg.histogram("phase_seconds", phase="unzip")
        for v in (1e-5, 3e-4, 0.02):
            h.observe(v)
        path = tmp_path / "metrics.jsonl"
        with open(path, "w") as fh:
            write_snapshot(fh, reg, step=7)
            write_snapshot(fh, reg, step=8)
        snaps = load_snapshots(path)
        assert [s["step"] for s in snaps] == [7, 8]
        back = MetricsRegistry.from_snapshot(snaps[-1])
        assert back.snapshot(wall=0.0) == reg.snapshot(wall=0.0)
        assert back.get("phase_seconds", phase="unzip").counts == h.counts

    def test_load_snapshots_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        reg = MetricsRegistry()
        reg.counter("steps_total").inc()
        with open(path, "w") as fh:
            write_snapshot(fh, reg, step=1)
            fh.write('{"schema": "repro-met')  # crash mid-write
        assert len(load_snapshots(path)) == 1


# ---------------------------------------------------------------------
# profiler adapter
# ---------------------------------------------------------------------
class TestProfilerAdapter:
    def test_summary_shape_unchanged(self):
        prof = StepProfiler()
        prof.begin_step()
        with prof.phase("unzip"):
            pass
        prof.end_step()
        s = prof.summary()
        assert set(s) == {"steps", "step_time", "phase_total", "phases"}
        assert set(s["phases"]) == set(PHASES)
        assert set(s["phases"]["unzip"]) == {"total", "per_step", "fraction"}
        assert "StepProfiler: 1 steps" in prof.report()

    def test_reentrant_same_phase_does_not_clobber(self):
        """Regression: one shared _PhaseTimer per phase used to hold a
        single _t0, so nested/re-entrant use of the same phase lost the
        outer start time."""
        prof = StepProfiler()
        timer = prof.phase("zip")
        with timer:
            time.sleep(0.01)
            with prof.phase("zip"):
                time.sleep(0.01)
            # outer frame must still be live: total gets outer + inner
        # inner ~0.01 + outer ~0.02 => >= 0.025 if the outer t0 survived;
        # the old clobbering bug yields ~0.02
        assert prof.totals["zip"] >= 0.025

    def test_spans_and_histograms_flow_to_telemetry(self):
        tr = Tracer(capacity=256)
        reg = MetricsRegistry()
        prof = StepProfiler(tracer=tr, metrics=reg, record_samples=True)
        for _ in range(2):
            prof.begin_step()
            with prof.stage(1):
                with prof.phase("unzip"):
                    pass
            prof.end_step()
        names = [r[1] for r in tr.records()]
        assert names.count("step") == 2
        assert names.count("rk4.stage1") == 2
        assert names.count("unzip") == 2
        assert reg.get("phase_seconds", phase="unzip").count == 2
        assert reg.get("step_seconds").count == 2
        assert reg.get("steps_total").value == 2
        assert len(prof.samples["unzip"]) == 2
        assert len(prof.step_samples) == 2

    def test_disabled_profiler_shares_null_context(self):
        prof = StepProfiler(enabled=False)
        assert prof.phase("unzip") is prof.phase("axpy")
        assert prof.stage(1) is prof.region("regrid")
        assert prof.tracer is None and prof.metrics is None

    def test_disabled_tracer_not_attached(self):
        prof = StepProfiler(tracer=Tracer(enabled=False))
        assert prof.tracer is None


# ---------------------------------------------------------------------
# sink + journal
# ---------------------------------------------------------------------
class TestSink:
    def test_run_dir_layout_and_events(self, tmp_path):
        d = tmp_path / "run"
        with TelemetrySink(d, label="unit") as sink:
            sink.metrics.counter("steps_total").inc()
            sink.event("rollback", step=3, attempt=1)
        meta = json.loads((d / "meta.json").read_text())
        assert meta["schema"] == "repro-telemetry-run-v1"
        assert meta["label"] == "unit"
        assert meta["events"] == 1
        events = read_events(d / "events.jsonl")
        assert events[0]["kind"] == "rollback" and events[0]["step"] == 3
        trace = json.loads((d / "trace.json").read_text())
        assert any(e["ph"] == "i" and e["name"] == "rollback"
                   for e in trace["traceEvents"])
        assert load_snapshots(d / "metrics.jsonl")

    def test_journal_mirrors_into_sink(self, tmp_path):
        from repro.resilience import RunJournal

        sink = TelemetrySink(None, label="unit")
        j = RunJournal(tmp_path / "journal.jsonl", sink=sink)
        j.event("rollback", step=5, reasons=["nan"])
        j.close()
        assert j.count("rollback") == 1
        assert sink.events[0]["kind"] == "rollback"
        assert sink.events[0]["step"] == 5
        # and it landed on the trace timeline as an instant
        assert [r[1] for r in sink.tracer.records()] == ["rollback"]

    def test_sink_journal_factory(self):
        sink = TelemetrySink(None)
        j = sink.journal()
        j.event("regrid", octants=100)
        assert sink.events[0]["kind"] == "regrid"

    def test_disabled_sink_stays_inert_but_usable(self):
        sink = TelemetrySink(None, enabled=False)
        prof = sink.profiler()
        prof.begin_step()
        with prof.phase("unzip"):
            pass
        prof.end_step()
        sink.event("rollback")
        assert len(sink.tracer) == 0  # tracer off
        assert sink.events  # events still recorded


# ---------------------------------------------------------------------
# layer instrumentation
# ---------------------------------------------------------------------
class TestLayerInstrumentation:
    def test_halo_exchange_publishes_edges_and_closes_span(self):
        from repro.mesh import Mesh
        from repro.octree import LinearOctree, partition_octree
        from repro.parallel import SimComm, build_halo_plan, exchange_ghosts

        mesh = Mesh(LinearOctree.uniform(2))
        part = partition_octree(mesh.tree, 2)
        plan = build_halo_plan(mesh, part)
        comm = SimComm(2)
        u = mesh.allocate(2)
        locals_ = [u[:, part.offsets[r]: part.offsets[r + 1]]
                   for r in range(2)]
        tr = Tracer(capacity=16)
        reg = MetricsRegistry()
        exchange_ghosts(plan, locals_, comm, dof=2, tracer=tr, metrics=reg)
        assert tr.open_spans == 0
        (rec,) = [r for r in tr.records() if r[1] == "halo.exchange"]
        assert rec[6]["messages"] > 0 and rec[6]["bytes"] > 0
        edge_bytes = sum(v.value for v in reg.family("halo_bytes").values())
        assert edge_bytes == rec[6]["bytes"]
        msgs = sum(v.value for v in reg.family("halo_messages").values())
        assert msgs == rec[6]["messages"]

    def test_halo_span_closes_on_failure(self):
        from repro.mesh import Mesh
        from repro.octree import LinearOctree, partition_octree
        from repro.parallel import (
            HaloExchangeError,
            build_halo_plan,
            exchange_ghosts,
        )
        from repro.resilience import FaultyComm

        mesh = Mesh(LinearOctree.uniform(2))
        part = partition_octree(mesh.tree, 2)
        plan = build_halo_plan(mesh, part)
        comm = FaultyComm(2, drop_prob=1.0, seed=1)  # every message lost
        u = mesh.allocate(2)
        locals_ = [u[:, part.offsets[r]: part.offsets[r + 1]]
                   for r in range(2)]
        tr = Tracer(capacity=16)
        with pytest.raises(HaloExchangeError):
            exchange_ghosts(plan, locals_, comm, dof=2, max_retries=1,
                            tracer=tr)
        # the span must not leak: the supervisor catches the error and
        # keeps stepping on the same tracer
        assert tr.open_spans == 0

    def test_virtual_gpu_launch_publishes(self):
        from repro.gpu import VirtualGPU, rhs_stats

        sink = TelemetrySink(None)
        gpu = VirtualGPU(telemetry=sink)
        stats = rhs_stats(100, o_a=7236)
        t = gpu.launch(stats)
        assert sink.metrics.get("gpu_flops", kernel="bssn-rhs").value == stats.flops
        assert sink.metrics.get("gpu_seconds", kernel="bssn-rhs").value == t
        assert sink.metrics.get("gpu_launches", kernel="bssn-rhs").value == 1
        assert [r[1] for r in sink.tracer.records()] == ["gpu.launch"]

    def test_publish_balance_metrics(self):
        from repro.mesh import Mesh
        from repro.octree import LinearOctree, partition_octree
        from repro.parallel import publish_balance_metrics

        mesh = Mesh(LinearOctree.uniform(2))
        part = partition_octree(mesh.tree, 4)
        reg = MetricsRegistry()
        ratio = publish_balance_metrics(reg, mesh, part)
        assert reg.get("load_imbalance").value == ratio >= 1.0
        owned = reg.family("octants_owned")
        assert sum(v.value for v in owned.values()) == mesh.num_octants
        assert len(reg.family("rank_work")) == 4

    def test_regrid_spans(self):
        from repro.mesh import Mesh, regrid_flags, remesh, transfer_fields
        from repro.octree import LinearOctree

        mesh = Mesh(LinearOctree.uniform(2))
        u = mesh.allocate(1)
        u[:] = 1.0
        refine = np.zeros(mesh.num_octants, dtype=bool)
        refine[0] = True
        coarsen = np.zeros(mesh.num_octants, dtype=bool)
        tr = Tracer(capacity=16)
        new = remesh(mesh, refine, coarsen, tracer=tr)
        out = transfer_fields(mesh, new, u, tracer=tr)
        assert np.allclose(out, 1.0)
        names = [r[1] for r in tr.records()]
        assert names == ["remesh", "regrid.transfer"]
        assert tr.open_spans == 0


# ---------------------------------------------------------------------
# CLI: profiles, compare, end-to-end record
# ---------------------------------------------------------------------
class TestCompare:
    def test_phase_order_matches_perf(self):
        assert PHASE_ORDER == PHASES

    def test_detects_regression_on_synthetic_profiles(self):
        a = {"source": "a", "phases": {p: 1.0 for p in PHASES},
             "sec_per_step": 6.5}
        b = {"source": "b",
             "phases": {**{p: 1.0 for p in PHASES}, "deriv": 1.3},
             "sec_per_step": 6.8}
        r = compare_profiles(a, b, threshold=0.1)
        assert r["regressions"] == ["deriv"]
        assert not r["ok"]
        # the same delta under a looser threshold passes
        assert compare_profiles(a, b, threshold=0.5)["ok"]

    def test_improvement_is_not_regression(self):
        a = {"source": "a", "phases": {p: 1.0 for p in PHASES}}
        b = {"source": "b", "phases": {p: 0.5 for p in PHASES}}
        assert compare_profiles(a, b, threshold=0.1)["ok"]

    def test_load_profile_from_bench_json(self, tmp_path):
        report = {
            "schema": "repro-bench-hotpath-v1",
            "telemetry_profile": {
                "phases": {p: 0.1 for p in PHASES},
                "sec_per_step": 0.7,
                "steps": 2,
            },
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        prof = load_profile(path)
        assert prof["kind"] == "bench-json"
        assert prof["phases"]["unzip"] == 0.1
        assert prof["sec_per_step"] == 0.7

    def test_load_profile_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError):
            load_profile(path)


class TestEndToEnd:
    def test_instrumented_wave_run_dir(self, tmp_path):
        """A full sink-wired evolution produces a coherent run dir that
        summarize/compare can consume."""
        from repro.mesh import Mesh
        from repro.octree import Domain, LinearOctree
        from repro.resilience import SupervisedRun
        from repro.solver import WaveSolver

        mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-4.0, 4.0)))
        d = tmp_path / "run"
        sink = TelemetrySink(d, metrics_every=2, label="wave-unit")
        solver = WaveSolver(mesh, profiler=sink.profiler())
        run = SupervisedRun(solver, telemetry=sink)
        run.run(t_end=4 * solver.dt)
        sink.finalize(solver, report=run.report())

        prof = load_profile(d)
        assert prof["steps"] == 4
        assert prof["phases"]["deriv"] > 0
        text = summarize_run(d)
        assert "deriv" in text and "octants" in text
        # self-comparison is regression-free
        assert compare_profiles(prof, load_profile(d))["ok"]
        # trace holds the full step -> stage -> phase hierarchy
        trace = json.loads((d / "trace.json").read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"step", "rk4.stage1", "unzip", "deriv"} <= names

    def test_supervisor_attaches_telemetry_to_distributed(self):
        from repro.mesh import Mesh
        from repro.octree import Domain, LinearOctree, partition_octree
        from repro.parallel import DistributedSolver
        from repro.resilience import SupervisedRun
        from repro.solver import WaveSolver

        mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-4.0, 4.0)))
        part = partition_octree(mesh.tree, 2)
        solver = DistributedSolver(WaveSolver(mesh), part)
        sink = TelemetrySink(None, metrics_every=1)
        run = SupervisedRun(solver, telemetry=sink)
        assert solver.telemetry is sink
        run.step()
        sink.finalize(solver)
        # halo spans from every RK4 stage landed on the timeline ...
        names = [r[1] for r in sink.tracer.records()]
        assert names.count("halo.exchange") == 4
        # ... beside the wrapped solver's own phases, per rank: the
        # prolongation of the sources it reads, then its one chunk's copy
        # and kernel ...
        assert names.count("deriv") == 4 * 2
        assert names.count("unzip") == 2 * names.count("deriv")
        assert solver.profiler.totals["unzip"] > 0
        assert solver.profiler.totals["deriv"] > 0
        # ... and the traffic counters + comm gauges are populated
        assert sum(v.value
                   for v in sink.metrics.family("halo_bytes").values()) > 0
        assert sink.metrics.get("comm_bytes_total").value > 0
        assert sink.metrics.get("load_imbalance").value >= 1.0

    def test_disabled_profiler_records_nothing_and_reads_no_clock(
            self, monkeypatch):
        """A solver carrying a disabled profiler (the always-on
        configuration) pays one attribute check per phase: every
        ``phase``/``stage``/``region`` hands out the one shared null
        context, no span is recorded, nothing accumulates and the
        profiler never reads the clock.  (Counted, not timed: a paired
        wall-clock bound fails on a busy host.)"""
        from repro.mesh import Mesh
        from repro.octree import Domain, LinearOctree
        from repro.perf import profiler as P
        from repro.solver import WaveSolver

        tracer = Tracer()
        off = StepProfiler(enabled=False, tracer=tracer,
                           metrics=MetricsRegistry(), record_samples=True)
        assert off.tracer is None and off.metrics is None
        contexts = {id(off.phase(p)) for p in P.PHASES}
        contexts |= {id(off.stage(1)), id(off.region("regrid"))}
        assert contexts == {id(P._NULL)}

        clock_reads = []

        class Clock:
            @staticmethod
            def perf_counter():
                clock_reads.append(1)
                return time.perf_counter()

        monkeypatch.setattr(P, "time", Clock)
        solver = WaveSolver(
            Mesh(LinearOctree.uniform(1, domain=Domain(-4.0, 4.0))),
            profiler=off)
        solver.step()
        assert clock_reads == []
        assert off.steps == 0 and off.step_time == 0.0
        assert not any(off.totals.values())
        assert off.samples is None and off.step_samples is None
        assert len(tracer) == 0
        # the same step under an enabled profiler does read it
        solver.profiler = StepProfiler()
        solver.step()
        assert clock_reads and solver.profiler.steps == 1
