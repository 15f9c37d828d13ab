"""Synthetic heavy traffic: the serve load generator.

Generates a deterministic request mix against a running front —
hot-set hits (repeat queries for catalog points), parameter-space
interpolations, detector post-processing, and out-of-coverage misses —
from many concurrent connections in one event loop, and reports
p50/p90/p99 latency, throughput, and per-kind outcome counts.  The
``stampede`` mode aims N simultaneous clients at one cold key to
exercise request coalescing.

This module drives ``python -m repro.serve bench`` and the ``demo``
gate, which check correctness and coalescing; serve latency is measured
by the perf ledger's ``serve_mix`` workload.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from .client import AsyncServeClient

#: default request mix over the kinds of traffic the front serves
DEFAULT_MIX = (("hot", 0.55), ("interp", 0.25), ("detector", 0.15),
               ("miss", 0.05))


def build_requests(n: int, *, hot_qs, interp_qs, miss_qs,
                   mix=DEFAULT_MIX, seed: int = 0,
                   max_samples: int | None = 256) -> list[dict]:
    """A deterministic shuffled request list for one load run."""
    rng = np.random.default_rng(seed)
    kinds, weights = zip(*mix)
    weights = np.asarray(weights, dtype=float)
    weights /= weights.sum()
    requests = []
    for kind in rng.choice(len(kinds), size=n, p=weights):
        kind = kinds[kind]
        if kind == "hot":
            q = float(rng.choice(hot_qs))
            req = {"op": "query", "mass_ratio": q}
        elif kind == "interp":
            q = float(rng.choice(interp_qs))
            req = {"op": "query", "mass_ratio": q}
        elif kind == "detector":
            q = float(rng.choice(hot_qs))
            req = {"op": "query", "mass_ratio": q,
                   "detector": "ce" if rng.random() < 0.5 else "aplus"}
        else:  # miss
            q = float(rng.choice(miss_qs))
            req = {"op": "query", "mass_ratio": q}
        if max_samples:
            req["max_samples"] = int(max_samples)
        req["_kind"] = kind
        requests.append(req)
    return requests


async def run_load(address, requests: list[dict], *,
                   concurrency: int = 16) -> dict:
    """Drive ``requests`` through ``concurrency`` connections.

    Returns the latency/throughput report (all latencies in
    milliseconds; ``failed`` counts transport errors and ``ok: false``
    responses — the CI gate requires it to be zero).
    """
    queue: asyncio.Queue = asyncio.Queue()
    for i, req in enumerate(requests):
        queue.put_nowait((i, req))
    latencies: list[tuple[str, float]] = []
    outcomes: dict[str, int] = {}
    failed = 0

    async def worker() -> None:
        nonlocal failed
        client = AsyncServeClient(address)
        try:
            await client.connect()
            while True:
                try:
                    _, req = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                kind = req.pop("_kind", "hot")
                t0 = time.perf_counter()
                try:
                    resp = await client.request(req)
                    ms = (time.perf_counter() - t0) * 1e3
                    if resp.get("ok"):
                        latencies.append((kind, ms))
                        out = resp.get("outcome", req.get("op", "?"))
                        outcomes[out] = outcomes.get(out, 0) + 1
                    else:
                        failed += 1
                except Exception:
                    failed += 1
        finally:
            await client.close()

    t_start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall = time.perf_counter() - t_start

    return _report(latencies, outcomes, failed, wall,
                   concurrency=concurrency)


async def run_stampede(address, mass_ratio: float, *,
                       clients: int = 32) -> dict:
    """N simultaneous identical queries — the coalescing probe.

    Every client connects first, then all fire at once; the front
    should resolve the cold key with a single decode.
    """
    pool = [AsyncServeClient(address) for _ in range(clients)]
    await asyncio.gather(*(c.connect() for c in pool))
    t0 = time.perf_counter()
    results = await asyncio.gather(
        *(c.request({"op": "query", "mass_ratio": float(mass_ratio),
                     "max_samples": 64}) for c in pool),
        return_exceptions=True)
    wall = time.perf_counter() - t0
    await asyncio.gather(*(c.close() for c in pool))
    ok = sum(1 for r in results
             if isinstance(r, dict) and r.get("ok"))
    return {"clients": clients, "ok": ok, "failed": clients - ok,
            "wall_seconds": wall}


def _report(latencies, outcomes, failed, wall, *, concurrency) -> dict:
    all_ms = np.array([ms for _, ms in latencies]) if latencies else \
        np.array([0.0])
    per_kind = {}
    for kind in {k for k, _ in latencies}:
        ms = np.array([m for k, m in latencies if k == kind])
        per_kind[kind] = {
            "n": int(ms.size),
            "p50_ms": float(np.percentile(ms, 50)),
            "p99_ms": float(np.percentile(ms, 99)),
        }
    n_ok = len(latencies)
    return {
        "requests": n_ok + failed,
        "ok": n_ok,
        "failed": failed,
        "concurrency": concurrency,
        "wall_seconds": float(wall),
        "requests_per_second": float(n_ok / wall) if wall > 0 else 0.0,
        "outcomes": outcomes,
        "latency_ms": {
            "p50": float(np.percentile(all_ms, 50)),
            "p90": float(np.percentile(all_ms, 90)),
            "p99": float(np.percentile(all_ms, 99)),
            "max": float(all_ms.max()),
            "mean": float(all_ms.mean()),
        },
        "per_kind": per_kind,
    }


def render_report(report: dict) -> str:
    """Human-readable load report (CLI/bench output)."""
    lat = report["latency_ms"]
    lines = [
        f"requests: {report['requests']} ({report['failed']} failed), "
        f"concurrency {report['concurrency']}",
        f"throughput: {report['requests_per_second']:.0f} req/s over "
        f"{report['wall_seconds']:.2f} s",
        f"latency: p50 {lat['p50']:.2f} ms, p90 {lat['p90']:.2f} ms, "
        f"p99 {lat['p99']:.2f} ms, max {lat['max']:.2f} ms",
        "outcomes: " + ", ".join(f"{k}={v}" for k, v in
                                 sorted(report["outcomes"].items())),
    ]
    for kind, row in sorted(report.get("per_kind", {}).items()):
        lines.append(f"  {kind:<9} n={row['n']:<5} p50 {row['p50_ms']:.2f} "
                     f"ms, p99 {row['p99_ms']:.2f} ms")
    return "\n".join(lines)
