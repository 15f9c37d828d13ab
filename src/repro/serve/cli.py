"""``python -m repro.serve`` — the waveform catalog service CLI.

Subcommands::

    start  <store> [--port P] [--campaign DIR] [--seed-model q1,q2,..]
    ingest <store> (--campaign DIR | --model q1,q2,..)
    query  <host:port> -q Q [--detector aplus|ce] [--json]
    bench  <host:port> [-n N] [-c C] [--stampede Q] [--json OUT]
    demo   [-d DIR] [-n WORKERS]   # the CI acceptance gate

``demo`` drives the whole loop in one process: it seeds a 3-entry model
catalog, starts a front with a simulation broker, verifies a 32-client
stampede on a cold key collapses to one decode, runs a 200-request
mixed load (zero failures, hot p99 < 50 ms), lets a coverage miss
become a ticket, drains the production job with real
:mod:`repro.jobs` workers, waits for auto-ingest, and re-issues the
query — which must now be served from the catalog.  Exit status 0 only
if every check passes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="waveform catalog service: store, front, benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("start", help="serve a catalog store")
    p.add_argument("store", help="catalog store directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default: ephemeral, printed)")
    p.add_argument("--campaign", default=None,
                   help="campaign dir for miss-to-simulation fallback "
                        "(enables tickets + auto-ingest)")
    p.add_argument("--seed-model", default=None, metavar="Q1,Q2,..",
                   help="seed the store with model waveforms at these "
                        "mass ratios before serving")
    p.add_argument("--hot-mb", type=float, default=128.0,
                   help="hot-set budget in MiB (default 128)")
    p.add_argument("--interp-mismatch", type=float, default=None,
                   help="interpolation admission budget (default 0.25)")
    p.add_argument("--metrics", default=None,
                   help="metrics JSONL path (default <store>/serve_"
                        "metrics.jsonl)")

    p = sub.add_parser("ingest", help="ingest waveforms into a store")
    p.add_argument("store")
    p.add_argument("--campaign", default=None,
                   help="ingest a campaign's result cache")
    p.add_argument("--model", default=None, metavar="Q1,Q2,..",
                   help="ingest model waveforms at these mass ratios")

    p = sub.add_parser("query", help="query a running server")
    p.add_argument("address", help="host:port")
    p.add_argument("-q", "--mass-ratio", type=float, required=True)
    p.add_argument("--detector", default=None, choices=["aplus", "ce"])
    p.add_argument("--max-samples", type=int, default=16)
    p.add_argument("--json", dest="json_out", action="store_true",
                   help="print the raw response JSON")

    p = sub.add_parser("bench", help="load-generate against a server")
    p.add_argument("address", help="host:port")
    p.add_argument("-n", "--requests", type=int, default=200)
    p.add_argument("-c", "--concurrency", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stampede", type=float, default=None, metavar="Q",
                   help="also fire a 32-client stampede at this q")
    p.add_argument("--hot", default="1,2,4", metavar="Q1,Q2,..")
    p.add_argument("--interp", default="1.5,3", metavar="Q1,Q2,..")
    p.add_argument("--miss", default="40", metavar="Q1,Q2,..")
    p.add_argument("--json", dest="json_out", default=None,
                   help="write the report JSON here")

    p = sub.add_parser("demo", help="end-to-end acceptance gate (CI)")
    p.add_argument("-d", "--dir", default="serve-demo")
    p.add_argument("-n", "--workers", type=int, default=2)
    p.add_argument("--timeout", type=float, default=300.0)
    return parser


def _floats(spec: str) -> list[float]:
    return [float(v) for v in spec.split(",") if v.strip()]


# -- start ----------------------------------------------------------------

def cmd_start(args) -> int:
    from .fallback import SimulationBroker
    from .front import ServeFront
    from .store import CatalogStore

    kwargs = {}
    if args.interp_mismatch is not None:
        kwargs["max_interp_mismatch"] = args.interp_mismatch
    store = CatalogStore(args.store, **kwargs)
    if args.seed_model:
        from repro.analysis.catalog import build_model_catalog

        store.ingest_model_catalog(
            build_model_catalog(_floats(args.seed_model), samples=2048))
    broker = None
    if args.campaign:
        broker = SimulationBroker(args.campaign)
    metrics_path = args.metrics or (pathlib.Path(args.store)
                                    / "serve_metrics.jsonl")
    front = ServeFront(store, broker=broker,
                       hot_bytes=int(args.hot_mb * 1024 * 1024),
                       metrics_path=metrics_path)

    async def main() -> None:
        host, port = await front.start(args.host, args.port)
        print(f"serving catalog ({len(store)} entries) on {host}:{port}",
              flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await front.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


# -- ingest ---------------------------------------------------------------

def cmd_ingest(args) -> int:
    from .store import CatalogStore

    store = CatalogStore(args.store)
    if args.model:
        from repro.analysis.catalog import build_model_catalog

        keys = store.ingest_model_catalog(
            build_model_catalog(_floats(args.model), samples=2048))
        print(f"ingested {len(keys)} model waveforms")
    if args.campaign:
        report = store.ingest_campaign(args.campaign)
        print(f"campaign scan: {report['ingested']} ingested, "
              f"{report['already']} already indexed, "
              f"{report['skipped']} skipped")
    print(f"store: {json.dumps(store.stats())}")
    return 0


# -- query ----------------------------------------------------------------

def cmd_query(args) -> int:
    from .client import ServeClient

    with ServeClient(args.address) as client:
        fields = {"max_samples": args.max_samples}
        if args.detector:
            fields["detector"] = args.detector
        resp = client.query(args.mass_ratio, **fields)
    if args.json_out:
        # the one edge where a reply becomes text again: its sample
        # arrays arrived as float64 buffers, which JSON spells as lists
        print(json.dumps(resp, indent=2, default=list))
        return 0
    print(f"outcome: {resp['outcome']} (q = {resp['mass_ratio']:g})")
    if resp["outcome"] == "miss":
        print(f"  reason: {resp['reason']}")
        if resp.get("ticket"):
            t = resp["ticket"]
            print(f"  ticket: {t['id']} (poll with the ticket op; the "
                  "simulation is scheduled)")
        return 0
    print(f"  entry: {resp['entry'].get('keys') or resp['entry']['key']}"
          f"  mismatch bound: {resp['mismatch_bound']:.4g}")
    if "strain" in resp:
        s = resp["strain"]
        print(f"  {s['detector']}: SNR {s['snr']:.1f} in "
              f"[{s['f_lo']:g}, {s['f_hi']:g}] Hz")
    return 0


# -- bench ----------------------------------------------------------------

def cmd_bench(args) -> int:
    from .loadgen import build_requests, render_report, run_load, \
        run_stampede

    requests = build_requests(
        args.requests, hot_qs=_floats(args.hot),
        interp_qs=_floats(args.interp), miss_qs=_floats(args.miss),
        seed=args.seed)

    async def main() -> dict:
        report = await run_load(args.address, requests,
                                concurrency=args.concurrency)
        if args.stampede is not None:
            report["stampede"] = await run_stampede(args.address,
                                                    args.stampede)
        return report

    report = asyncio.run(main())
    print(render_report(report))
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(report, indent=2), encoding="utf-8")
        print(f"report written to {args.json_out}")
    return 1 if report["failed"] else 0


# -- demo: the acceptance gate --------------------------------------------

def cmd_demo(args) -> int:
    from repro.analysis.catalog import build_model_catalog
    from repro.jobs.pool import WorkerPool

    from .client import AsyncServeClient
    from .fallback import SimulationBroker
    from .front import ServeFront
    from .loadgen import render_report, run_stampede
    from .store import CatalogStore

    root = pathlib.Path(args.dir)
    root.mkdir(parents=True, exist_ok=True)
    checks: list[tuple[str, bool, str]] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        checks.append((label, bool(ok), detail))
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}"
              + (f" — {detail}" if detail else ""))

    store = CatalogStore(root / "store")
    store.ingest_model_catalog(build_model_catalog((1.0, 2.0, 4.0),
                                                   samples=2048))
    broker = SimulationBroker(root / "campaign")
    front = ServeFront(store, broker=broker, ingest_interval=0.3,
                       metrics_path=root / "serve_metrics.jsonl")

    def counter(name: str, **labels) -> float:
        return front.metrics.counter(name, **labels).value

    async def main() -> dict:
        host, port = await front.start()
        address = f"{host}:{port}"
        print(f"front serving {len(store)} model entries on {address}")
        client = AsyncServeClient(address)
        report: dict = {}
        try:
            # 1. coalescing: 32-client stampede on a cold key
            decodes0 = counter("serve_decodes")
            stampede = await run_stampede(address, 4.0, clients=32)
            report["stampede"] = stampede
            decodes = counter("serve_decodes") - decodes0
            check("stampede: all 32 clients answered",
                  stampede["ok"] == 32, f"{stampede['ok']}/32")
            check("stampede: one cold key -> a single decode",
                  decodes == 1,
                  f"decodes={decodes:g} "
                  f"coalesced={counter('serve_coalesced'):g}")

            # 2. exact + hot-set behaviour
            r1 = await client.query(2.0, max_samples=64)
            hot_hits0 = counter("serve_hot_hits")
            r2 = await client.query(2.0, max_samples=64)
            check("exact query served from the catalog",
                  r1["outcome"] == "exact" and r2["outcome"] == "exact")
            check("repeat query hits the hot set",
                  counter("serve_hot_hits") > hot_hits0)

            # 3. parameter-space interpolation with a mismatch bound
            ri = await client.query(3.0, max_samples=64)
            check("interpolated query carries a mismatch bound",
                  ri["outcome"] == "interp"
                  and 0 < ri["mismatch_bound"] <= store.max_interp_mismatch,
                  f"bound={ri['mismatch_bound']:.4f}")

            # 4. detector post-processing on demand
            rd = await client.query(1.0, detector="ce", max_samples=64)
            snr = rd.get("strain", {}).get("snr", 0.0)
            check("detector post-processing returns a finite SNR",
                  snr > 0.0, f"CE SNR {snr:.1f}")

            # 5. the miss path: an out-of-coverage query opens a
            # ticket (and creates the campaign) *before* the load
            # phase, so bench-time misses coalesce onto it instead of
            # paying first-submission queue I/O mid-measurement
            miss = await client.query(6.5, max_samples=64)
            ticket = miss.get("ticket") or {}
            check("coverage miss returns a ticket",
                  miss["outcome"] == "miss" and bool(ticket.get("id")),
                  str(ticket.get("id")))

            # 6. synthetic heavy traffic — the bench CLI in its own
            # process, so client-side work never queues on the
            # server's event loop and latencies are genuine
            load_json = root / "serve_load.json"
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.serve", "bench", address,
                "-n", "200", "-c", "16", "--seed", "7",
                "--hot", "1,2,4", "--interp", "1.5,2.5,3,3.5",
                "--miss", "6.5", "--json", str(load_json))
            rc = await proc.wait()
            check("load: bench subprocess exited cleanly", rc == 0,
                  f"exit={rc}")
            load = json.loads(load_json.read_text(encoding="utf-8"))
            report["load"] = load
            print(render_report(load))
            check("load: zero failed requests", load["failed"] == 0,
                  f"{load['failed']} failed")
            check("load: coalescing engaged under traffic",
                  counter("serve_coalesced") > 0,
                  f"coalesced={counter('serve_coalesced'):g}")
            hot_p99 = load["per_kind"].get("hot", {}).get("p99_ms", 1e9)
            check("load: hot-set p99 under 50 ms", hot_p99 < 50.0,
                  f"p99={hot_p99:.2f} ms")

            # 7. the full loop: ticket -> job -> ingest -> hit
            print(f"draining production job with {args.workers} workers")
            pool = WorkerPool(root / "campaign", args.workers).start()
            try:
                drained = pool.join(args.timeout)
            finally:
                pool.terminate()
            check("production job drained via repro.jobs", drained)

            deadline = time.monotonic() + 30.0
            status = {}
            while time.monotonic() < deadline:
                status = await client.request({"op": "ticket",
                                               "id": ticket["id"]})
                if status.get("ingested"):
                    break
                await asyncio.sleep(0.2)
            check("completed job auto-ingested into the catalog",
                  bool(status.get("ingested")),
                  f"state={status.get('state')}")

            served = await client.query(6.5, max_samples=64)
            check("re-issued query served from the catalog",
                  served["outcome"] == "exact"
                  and str(served["entry"].get("source", ""))
                  .startswith("cache:"),
                  f"outcome={served['outcome']} "
                  f"source={served['entry'].get('source', '')}")
            report["ticket"] = status
        finally:
            await client.close()
            await front.stop()
        report["counters"] = {
            "decodes": counter("serve_decodes"),
            "coalesced": counter("serve_coalesced"),
            "hot_hits": counter("serve_hot_hits"),
            "hot_misses": counter("serve_hot_misses"),
            "hot_hit_ratio": front.hot.hit_ratio,
        }
        return report

    report = asyncio.run(main())

    metrics_ok = (root / "serve_metrics.jsonl").exists()
    check("metrics snapshot written", metrics_ok)
    report["checks"] = [{"label": label, "ok": ok, "detail": detail}
                        for label, ok, detail in checks]
    out = root / "serve_report.json"
    out.write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"report written to {out}")

    failed = [label for label, ok, _ in checks if not ok]
    if failed:
        print(f"\nserve demo FAILED: {failed}", file=sys.stderr)
        return 1
    print("\nserve demo PASSED: all checks green")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "start": cmd_start,
        "ingest": cmd_ingest,
        "query": cmd_query,
        "bench": cmd_bench,
        "demo": cmd_demo,
    }[args.command](args)
