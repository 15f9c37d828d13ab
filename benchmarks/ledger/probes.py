"""Stand-alone per-layer probes of the traced run.

Each probe times calls into one module's public functions and returns
``{metric: value}``.  A probe whose entry point is gone must never fail
the run: :func:`run_probes` turns the exception into ``null`` values plus
a reason, so internals stay free to be refactored.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time

import numpy as np

from core import lap, llc_bytes, median

#: deep-puncture tree for the octree probes (4572 octants, levels 4–8)
DEEP_TREE = {"mass_ratio": 2.0, "max_level": 8, "base_level": 4}
PARTS = 8


def _median_time(fn, reps: int = 5) -> float:
    """Median seconds of ``reps`` calls."""
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return median(ts)


# ---------------------------------------------------------------------------
# host
# ---------------------------------------------------------------------------

def probe_host(p) -> dict:
    """Sustainable copy bandwidth on an array ≥ 4× the last-level cache,
    and single-thread DGEMM rate — the two machine constants of §III-D."""
    llc = llc_bytes() or 32 * 1024**2
    nbytes = 4 * llc if not p.smoke else min(4 * llc, 64 * 1024**2)
    a = np.ones(nbytes // 8)
    b = np.empty_like(a)
    np.copyto(b, a)  # fault the pages in
    copy_s = _median_time(lambda: np.copyto(b, a), 3)
    del a, b
    n = 384
    m1, m2 = np.random.default_rng(0).random((2, n, n))
    gemm_s = _median_time(lambda: m1 @ m2, 7)
    return {
        "host.stream_gbps": 2 * nbytes / copy_s / 1e9,  # read + write
        "host.stream_array_mb": nbytes / 1024**2,
        "host.llc_mb": llc / 1024**2,
        "host.peak_gflops": 2 * n**3 / gemm_s / 1e9,
    }


# ---------------------------------------------------------------------------
# octree
# ---------------------------------------------------------------------------

def probe_octree(p) -> dict:
    from repro.octree import (balance, bbh_grid, build_adjacency,
                              partition_octree)

    kw = DEEP_TREE if not p.smoke else {**DEEP_TREE, "max_level": 4,
                                        "base_level": 2}
    tree = bbh_grid(**kw)
    return {
        "octree.build_s": _median_time(lambda: bbh_grid(**kw), 3),
        "octree.balance_s": _median_time(lambda: balance(tree), 3),
        "octree.adjacency_s": _median_time(lambda: build_adjacency(tree), 3),
        "octree.partition_s": _median_time(
            lambda: partition_octree(tree, PARTS), 3),
        "octree.probe_octants": len(tree),
    }


# ---------------------------------------------------------------------------
# mesh / solver / codegen / bssn / gpu model — on the static section's grid
# ---------------------------------------------------------------------------

def probe_mesh(p) -> dict:
    from repro.gpu import octant_to_patch_stats
    from repro.mesh import Mesh

    solver = p.static.solver
    mesh, state = solver.mesh, solver.state
    patches = mesh.unzip(state)
    zip_s = _median_time(lambda: mesh.zip(patches), 5)
    fresh = Mesh(p.static.build_tree())
    t0 = time.perf_counter()
    fresh.unzip(state, coalesce=True)
    first = time.perf_counter() - t0
    steady = _median_time(lambda: fresh.unzip(state, coalesce=True), 3)
    stats = octant_to_patch_stats(mesh.plan, dof=state.shape[0])
    out = {
        "mesh.zip24_s": zip_s,
        "mesh.unzip_plan_s": first - steady,
        "mesh.unzip_bytes": stats.bytes_moved,
        "mesh.unzip_ai": stats.ai,
    }
    unzip_s = p.layers.get("mesh.unzip24_s")
    if unzip_s:
        gbps = stats.bytes_moved / unzip_s / 1e9
        out["mesh.unzip_gbps"] = gbps
        stream = p.layers.get("host.stream_gbps")
        if stream:
            out["mesh.unzip_bw_frac"] = gbps / stream
    return out


def probe_solver(p) -> dict:
    from repro.codegen.generators import COMPILED_VARIANT, get_kernel_spec
    from repro.gpu import rhs_stats
    from repro.solver import BSSNSolver, enforce_algebraic_constraints

    solver = p.static.solver
    scratch = solver.state.copy()
    enforce_s = _median_time(lambda: enforce_algebraic_constraints(scratch), 3)
    oracle = BSSNSolver(solver.mesh, backend="numpy")
    oracle.set_state(solver.state)
    oracle.full_rhs(solver.state, 0.0)  # warm the arena
    numpy_s = _median_time(lambda: oracle.full_rhs(solver.state, 0.0), 3)
    o_a = get_kernel_spec(COMPILED_VARIANT).total_flops
    stats = rhs_stats(solver.mesh.num_octants, o_a=o_a)
    return {
        "solver.enforce_s": enforce_s,
        "bssn.full_rhs_numpy_s": numpy_s,
        "codegen.rhs_flops": stats.flops,
        "codegen.rhs_ai": stats.ai,
    }


def probe_gpu_model(p) -> dict:
    """Measured ÷ §III-D prediction, with the host's own τ_f and τ_m
    (measured in this run) in the paper's slow–fast memory model."""
    from repro.codegen.generators import COMPILED_VARIANT, get_kernel_spec
    from repro.gpu import (MachineSpec, kernel_time, octant_to_patch_stats,
                           rhs_stats)

    L = p.layers
    llc = llc_bytes() or 32 * 1024**2
    host = MachineSpec(name="this host",
                       tau_f=1.0 / (L["host.peak_gflops"] * 1e9),
                       tau_m=1.0 / (L["host.stream_gbps"] * 1e9),
                       cache_l2=float(llc), cache_regs=float(llc) / 16,
                       ell=0.25)
    mesh = p.static.solver.mesh
    o_a = get_kernel_spec(COMPILED_VARIANT).total_flops
    unzip = kernel_time(octant_to_patch_stats(mesh.plan), host)
    rhs = kernel_time(rhs_stats(mesh.num_octants, o_a=o_a), host)
    return {
        "gpu.model_unzip_ratio": L["mesh.unzip24_s"] / unzip,
        "gpu.model_rhs_ratio": L["codegen.rhs_kernel_s"] / rhs,
    }


def _small_bssn(**kwargs):
    from repro.bssn import binary_punctures
    from repro.mesh import Mesh
    from repro.octree import Domain, LinearOctree
    from repro.solver import BSSNSolver

    mesh = Mesh(LinearOctree.uniform(1, domain=Domain(-16.0, 16.0)))
    solver = BSSNSolver(mesh, backend="compiled", **kwargs)
    solver.set_punctures(binary_punctures(mass_ratio=2.0))
    solver.step()
    return solver


def _paired_overhead(plain, dressed, pairs: int) -> float:
    """Median of dressed ÷ plain − 1 over alternating paired calls."""
    ratios = []
    for i in range(pairs):
        order = (plain, dressed) if i % 2 == 0 else (dressed, plain)
        ts = {}
        for fn in order:
            t0 = time.perf_counter()
            fn()
            ts[fn] = time.perf_counter() - t0
        ratios.append(ts[dressed] / ts[plain] - 1.0)
    return median(ratios)


def probe_resilience(p) -> dict:
    from repro.resilience import SupervisedRun

    a, b = _small_bssn(), _small_bssn()
    run = SupervisedRun(b)
    run.step()
    pairs = 4 if p.smoke else 10
    return {"resilience.supervised_overhead_frac":
            _paired_overhead(a.step, run.step, pairs)}


def probe_telemetry(p) -> dict:
    """What a job pays for running under ``repro.telemetry`` spans: a
    step with a traced ``StepProfiler`` attached against a bare one."""
    from repro.perf import StepProfiler
    from repro.telemetry import Tracer

    a = _small_bssn()
    b = _small_bssn(profiler=StepProfiler(tracer=Tracer()))
    pairs = 4 if p.smoke else 10
    return {"telemetry.trace_overhead_frac":
            _paired_overhead(a.step, b.step, pairs)}


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def probe_jobs(p) -> dict:
    from repro.jobs import JobQueue, claim_order
    from repro.jobs.fabric.protocol import encode_frame

    from sec_campaign import submit_synthetic

    n_big = p.campaign.size["queue_jobs"]
    n_small = max(5, n_big // 3)

    def ops_per_s(n: int) -> float:
        """A pass of ``n`` jobs, in reference seconds like the big one."""
        q = JobQueue(p.ctx.fresh_dir("scaling"))
        p.ctx.meter.sample()
        t0 = time.perf_counter()
        submit_synthetic(q, p.ctx.seed, n)
        for _ in range(n):
            rec = q.claim("ledger")
            q.complete(rec["id"], {"ok": True}, worker="ledger",
                       attempt=rec["attempts"])
        timed = lap(t0)
        p.ctx.meter.sample()
        return 3 * n / p.ctx.ref(timed)

    small = median([ops_per_s(n_small) for _ in range(3)])
    big = p.e2e["queue_ops_per_s"]
    n_rec = 2_000 if p.smoke else 20_000
    records = [{"id": f"j{i:06d}", "seq": i, "state": "pending",
                "priority": i % 3, "preempt_requested": False,
                "cost": {"total_seconds": 0.5 + (i * 7919) % 100}}
               for i in range(n_rec)]
    order_s = _median_time(lambda: claim_order(records), 3)
    msg = {"op": "claim", "worker": "ledger", "token": "0" * 32,
           "job": records[0], "server_wall": time.time()}
    codec_s = _median_time(lambda: [json.loads(encode_frame(msg)[4:])
                                for _ in range(200)], 5) / 200
    return {
        "jobs.queue_scaling_ratio": big / small,
        "jobs.claim_order_ms": 1e3 * order_s,
        "jobs.frame_codec_us": 1e6 * codec_s,
    }


# ---------------------------------------------------------------------------
# serve / analysis — in process, no TCP, on the serve section's store
# ---------------------------------------------------------------------------

def probe_serve(p) -> dict:
    from repro.analysis.catalog import WaveformCatalog
    from repro.serve import CatalogStore, ServeFront

    sec = p.serve
    store = CatalogStore(sec.store_root)
    keys = sec.keys
    q_hot = sec.qs[0]
    q_mid = 0.5 * (sec.qs[0] + sec.qs[1])
    plan_s = _median_time(lambda: [store.query_plan(q_mid) for _ in range(50)],
                      5) / 50
    decode = []
    for key in keys[:8]:  # first touch of each file: cold decodes
        t0 = time.perf_counter()
        store.load_arrays(key)
        decode.append(time.perf_counter() - t0)
    cat = WaveformCatalog(entries=[store.catalog_entry(keys[0]),
                                   store.catalog_entry(keys[1])])
    interp_s = _median_time(lambda: cat.interpolate(q_mid), 9)

    front = ServeFront(store)
    reqs = {
        "hot": {"op": "query", "mass_ratio": q_hot, "max_samples": 256},
        "interp": {"op": "query", "mass_ratio": q_mid, "max_samples": 256},
        "detector": {"op": "query", "mass_ratio": q_hot, "max_samples": 256,
                     "detector": "ce"},
    }

    async def handle_all() -> dict:
        out = {}
        for kind, req in reqs.items():
            await front.handle(dict(req))  # warm: decode into the hot set
            ts = []
            for _ in range(40):
                t0 = time.perf_counter()
                resp = await front.handle(dict(req))
                ts.append(time.perf_counter() - t0)
                if not resp.get("ok"):
                    raise RuntimeError(f"in-process {kind} failed: {resp}")
            out[kind] = median(ts)
        return out

    handled = asyncio.run(handle_all())
    out = {
        "serve.plan_us": 1e6 * plan_s,
        "serve.decode_ms": 1e3 * median(decode),
        "analysis.interp_ms": 1e3 * interp_s,
        "serve.handle_hot_us": 1e6 * handled["hot"],
        "serve.handle_interp_us": 1e6 * handled["interp"],
        "serve.handle_detector_us": 1e6 * handled["detector"],
    }
    tcp = p.layers.get("serve.tcp_hot_p50_us")
    if tcp:
        out["serve.rtt_overhead_us"] = tcp - out["serve.handle_hot_us"]
    return out


#: (probe, metrics it owns) in dependency order: later probes read
#: ``p.layers`` filled by earlier ones
PROBES = (
    (probe_host, ("host.stream_gbps", "host.stream_array_mb", "host.llc_mb",
                  "host.peak_gflops")),
    (probe_octree, ("octree.build_s", "octree.balance_s",
                    "octree.adjacency_s", "octree.partition_s",
                    "octree.probe_octants")),
    (probe_mesh, ("mesh.zip24_s", "mesh.unzip_plan_s", "mesh.unzip_bytes",
                  "mesh.unzip_ai", "mesh.unzip_gbps", "mesh.unzip_bw_frac")),
    (probe_solver, ("solver.enforce_s", "bssn.full_rhs_numpy_s",
                    "codegen.rhs_flops", "codegen.rhs_ai")),
    (probe_gpu_model, ("gpu.model_unzip_ratio", "gpu.model_rhs_ratio")),
    (probe_resilience, ("resilience.supervised_overhead_frac",)),
    (probe_telemetry, ("telemetry.trace_overhead_frac",)),
    (probe_jobs, ("jobs.queue_scaling_ratio", "jobs.claim_order_ms",
                  "jobs.frame_codec_us")),
    (probe_serve, ("serve.plan_us", "serve.decode_ms", "analysis.interp_ms",
                   "serve.handle_hot_us", "serve.handle_interp_us",
                   "serve.handle_detector_us", "serve.rtt_overhead_us")),
)


@dataclasses.dataclass
class ProbeInput:
    """What the probes read: the finished sections and their metrics."""

    ctx: object
    smoke: bool
    static: object
    campaign: object
    serve: object
    e2e: dict
    layers: dict


def run_probes(p: ProbeInput, reasons: dict) -> None:
    """Fill ``p.layers``; a failing probe nulls its metrics with a reason."""
    for probe, names in PROBES:
        with p.ctx.tracer.span(f"probe.{probe.__name__}"):
            try:
                p.layers.update(probe(p))
            except Exception as exc:  # boundary: never fail the run
                for name in names:
                    p.layers.setdefault(name, None)
                    reasons[name] = f"{probe.__name__}: {exc!r}"
