"""The serve front as its own process, so client-side work in the load
generator never queues on the server's event loop.

Prints ``host:port`` on stdout once bound, serves until stdin closes, then
stops the front and exits.  Started and reaped by ``sec_serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


async def main(args) -> None:
    from repro.io import RunConfig
    from repro.serve import CatalogStore, ServeFront, SimulationBroker

    store = CatalogStore(args.store)
    template = RunConfig(**json.loads(args.template))
    broker = SimulationBroker(args.campaign, template=template)
    front = ServeFront(store, broker=broker, hot_bytes=args.hot_bytes,
                       ingest_interval=args.ingest_interval)
    host, port = await front.start()
    print(f"{host}:{port}", flush=True)
    try:
        # stdin reaching EOF is the parent's stop signal (and what a dead
        # parent leaves behind, so the child can never outlive it)
        await asyncio.to_thread(sys.stdin.read)
    finally:
        await front.stop()


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--store", required=True)
    ap.add_argument("--campaign", required=True)
    ap.add_argument("--template", required=True,
                    help="RunConfig JSON for catalog-production jobs")
    ap.add_argument("--hot-bytes", type=int, required=True)
    ap.add_argument("--ingest-interval", type=float, required=True)
    asyncio.run(main(ap.parse_args()))
