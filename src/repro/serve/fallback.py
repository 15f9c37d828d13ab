"""Miss-to-simulation fallback: a coverage gap becomes a scheduled job.

A query the catalog cannot serve — outside the covered mass-ratio
range, or bracketed only by entries whose mutual mismatch blows the
interpolation budget — is not an error: it is a discovered hole in the
catalog, exactly what :meth:`WaveformCatalog.coverage_gaps` flags in
template-bank construction.  The broker turns that hole into a
:mod:`repro.jobs` submission (a catalog-production ``wave_source="imr"``
run whose extracted (2,2) mode the worker archives into the campaign's
:class:`ResultCache`) and hands the client a *ticket* to poll.  Once
workers complete the job, an ingest scan moves the result into the
:class:`~repro.serve.store.CatalogStore` and the re-issued query is
served from the catalog — the full loop from user query to scheduled
simulation and back.

Repeat misses for the same parameters coalesce onto one ticket: the job
queue would dedupe the *result* anyway (content-addressed cache), but
coalescing at the broker keeps a stampede of identical misses from
flooding the backlog with copies of one job.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
import time

from repro.io import RunConfig
from repro.jobs import Campaign, ResultCache
from repro.jobs.queue import CANCELLED, DONE, FAILED
from repro.jobs.worker import CACHE_DIR

#: toy-scale catalog-production template: an IMR-driven wave run small
#: enough to finish in seconds, with extraction archived for ingest
PRODUCTION_TEMPLATE = RunConfig(
    name="serve-production", solver="wave", wave_source="imr",
    domain_half_width=8.0, base_level=2, max_level=3,
    t_end=6.0, courant=0.25, ko_sigma=0.05,
    regrid_every=8, regrid_eps=3e-5,
    extraction_radii=[4.0], extract_every=4,
)


@dataclasses.dataclass
class Ticket:
    """One outstanding (or completed) catalog-production request."""

    id: str
    mass_ratio: float
    cache_key: str
    submitted_wall: float
    ingested: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class SimulationBroker:
    """Turns coverage misses into campaign submissions with tickets.

    Thread-safe: the asyncio front calls into it from executor threads
    (queue operations are blocking, file-locked I/O).
    """

    def __init__(self, campaign_root, *,
                 template: RunConfig | None = None, priority: int = 0):
        self.root = pathlib.Path(campaign_root)
        self.campaign = Campaign(self.root)
        self.template = template or PRODUCTION_TEMPLATE
        self.priority = int(priority)
        self.tickets: dict[str, Ticket] = {}
        self._by_q: dict[str, str] = {}
        self._lock = threading.Lock()

    def cache(self) -> ResultCache:
        """The campaign's result cache (the ingest scan's source)."""
        return ResultCache(self.root / CACHE_DIR)

    def config_for(self, mass_ratio: float) -> RunConfig:
        """The production spec for one requested mass ratio."""
        cfg = RunConfig(**dataclasses.asdict(self.template))
        cfg.mass_ratio = float(mass_ratio)
        cfg.name = f"serve-q{mass_ratio:.6g}"
        cfg.validate()
        return cfg

    def submit(self, mass_ratio: float) -> Ticket:
        """Submit (or coalesce onto) the production job for ``q``."""
        q_key = f"{float(mass_ratio):.9g}"
        with self._lock:
            existing = self._by_q.get(q_key)
            if existing is not None:
                return self.tickets[existing]
            cfg = self.config_for(mass_ratio)
            rec = self.campaign.submit(cfg, priority=self.priority)
            ticket = Ticket(id=rec["id"], mass_ratio=float(mass_ratio),
                            cache_key=rec["cache_key"],
                            submitted_wall=time.time())
            self.tickets[ticket.id] = ticket
            self._by_q[q_key] = ticket.id
            return ticket

    def poll(self, ticket_id: str) -> dict:
        """Ticket + live queue state for the ``ticket`` RPC."""
        with self._lock:
            ticket = self.tickets.get(ticket_id)
        if ticket is None:
            return {"known": False, "id": ticket_id}
        job = self.campaign.queue.job(ticket.id) or {}
        return {
            "known": True,
            **ticket.to_dict(),
            "state": job.get("state", "unknown"),
            "attempts": job.get("attempts", 0),
        }

    def completed_unserved(self) -> list[Ticket]:
        """Tickets whose job finished but whose result is not yet in
        the catalog — what the auto-ingest sweep looks at."""
        with self._lock:
            open_tickets = [t for t in self.tickets.values()
                            if not t.ingested]
        if not open_tickets:
            return []
        done = []
        for t in open_tickets:
            state = (self.campaign.queue.job(t.id) or {}).get("state")
            if state == DONE:
                done.append(t)
            elif state in (FAILED, CANCELLED):
                # terminal without a result: close the ticket so the
                # sweep stops reconsidering it; a re-query resubmits
                with self._lock:
                    t.ingested = True
                    self._by_q.pop(f"{t.mass_ratio:.9g}", None)
        return done

    def mark_ingested(self, ticket: Ticket) -> None:
        with self._lock:
            ticket.ingested = True
