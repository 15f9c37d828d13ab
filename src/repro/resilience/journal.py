"""Structured JSONL run journal.

Every recovery-relevant event of a supervised evolution — rollbacks,
retries, dt changes, checkpoints written or skipped as corrupt, halo
re-requests, rank deaths, resumes, aborts — is appended as one JSON
object per line.  The file is append-only and flushed per event, so a
crashed run leaves a complete record up to the failure; the reader
tolerates a torn final line for the same reason.

The journal is the ground truth the fault-matrix CI job uploads and the
analysis tooling consumes (:func:`summarize` gives the per-kind counts
that pair with the per-phase table of ``python -m repro.telemetry
summarize``).
"""

from __future__ import annotations

import pathlib
import time

from repro import jsonl


class RunJournal:
    """Append-only JSONL event log (in-memory when ``path`` is None).

    Events carry a monotone ``seq`` number and a wall-clock stamp; all
    other fields are caller-supplied.  NaN/Inf floats are serialised as
    strings (JSON has no representation for them) so the file stays
    loadable line by line.

    ``sink`` (a :class:`repro.telemetry.TelemetrySink`) mirrors every
    event into the unified telemetry stream — rollbacks and halo retries
    then show up as instant markers on the Perfetto timeline, next to the
    step spans they interrupted.  The journal file stays the ground
    truth; the sink copy carries the same caller fields but its own
    sequence numbers.
    """

    def __init__(self, path=None, sink=None):
        self.path = pathlib.Path(path) if path is not None else None
        self.sink = sink
        self.events: list[dict] = []
        self._seq = 0
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")

    def event(self, kind: str, **fields) -> dict:
        """Record one event; returns the full record."""
        rec = {"seq": self._seq, "kind": kind, "wall": time.time()}
        rec.update({k: jsonl.jsonable(v) for k, v in fields.items()})
        self._seq += 1
        self.events.append(rec)
        if self._fh is not None:
            jsonl.append(self._fh, rec)
        if self.sink is not None:
            self.sink.event(
                kind, **{k: v for k, v in rec.items()
                         if k not in ("seq", "kind", "wall")}
            )
        return rec

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for e in self.events if e["kind"] == kind)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path) -> list[dict]:
    """Parse a JSONL journal; a torn final line (crash mid-write) is
    skipped with a warning instead of failing the whole read."""
    return jsonl.read(path, warn=True)


def summarize(events: list[dict]) -> dict:
    """Per-kind counts plus headline recovery statistics."""
    kinds: dict[str, int] = {}
    for e in events:
        kinds[e.get("kind", "?")] = kinds.get(e.get("kind", "?"), 0) + 1
    return {
        "events": len(events),
        "kinds": kinds,
        "rollbacks": kinds.get("rollback", 0),
        "halo_retries": kinds.get("halo-retry", 0),
        "checkpoints": kinds.get("checkpoint", 0),
        "aborted": kinds.get("abort", 0) > 0,
    }
