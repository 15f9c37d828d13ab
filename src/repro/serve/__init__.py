"""repro.serve — the waveform catalog service.

The read path from finished campaigns to heavy query traffic:

* :class:`CatalogStore` — disk-backed index of (2,2) waveforms keyed by
  physical parameters, ingesting campaign result caches and model
  catalogs, with precomputed interpolation gaps;
* :class:`ServeFront` — asyncio request front (length-prefixed JSON
  frames) with a byte-bounded hot set, request coalescing, on-demand
  detector post-processing, and telemetry;
* :class:`SimulationBroker` — miss-to-simulation fallback: coverage
  gaps become :mod:`repro.jobs` submissions with pollable tickets;
* :class:`ServeClient` / :class:`AsyncServeClient` — protocol handles;
* :mod:`repro.serve.loadgen` — the load generator behind
  ``serve bench`` and the CI smoke gate.

CLI: ``python -m repro.serve start|query|ingest|bench|demo``.
"""

from .client import AsyncServeClient, ServeClient, ServeError
from .fallback import PRODUCTION_TEMPLATE, SimulationBroker, Ticket
from .front import DETECTORS, HotSet, ServeFront
from .loadgen import build_requests, run_load, run_stampede
from .store import (
    DEFAULT_INTERP_MISMATCH,
    CatalogStore,
    StoreError,
)

__all__ = [
    "AsyncServeClient",
    "CatalogStore",
    "DEFAULT_INTERP_MISMATCH",
    "DETECTORS",
    "HotSet",
    "PRODUCTION_TEMPLATE",
    "ServeClient",
    "ServeError",
    "ServeFront",
    "SimulationBroker",
    "StoreError",
    "Ticket",
    "build_requests",
    "run_load",
    "run_stampede",
]
