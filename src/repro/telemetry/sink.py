"""The unified telemetry sink: one run, one self-describing directory.

A :class:`TelemetrySink` owns the three recorders every subsystem
publishes into — a :class:`~repro.telemetry.Tracer` (nested spans), a
:class:`~repro.telemetry.MetricsRegistry` (counters/gauges/histograms),
and an append-only JSONL event stream sharing the
:class:`repro.resilience.RunJournal` schema (``seq``/``kind``/``wall``
plus caller fields).  With a ``run_dir`` the sink materialises the run
as::

    run_dir/
      meta.json       # schema versions, label, wall-clock epoch, extras
      trace.json      # Chrome trace events (open in Perfetto)
      metrics.jsonl   # periodic registry snapshots, one JSON per line
      events.jsonl    # unified event stream (recovery, regrid, launches)

``meta.json`` is written at construction (a crashed run still
self-describes) and refreshed by :meth:`finalize`, which also exports
the trace and a final metrics snapshot.  Without a ``run_dir`` the sink
is purely in-memory — tests and ad-hoc instrumentation use it the same
way.

A disabled sink (``enabled=False``) disables the tracer but keeps the
metrics/event plumbing importable and inert, so call sites never branch.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro import jsonl
from repro.perf import StepProfiler

from .metrics import METRICS_SCHEMA, MetricsRegistry, write_snapshot
from .tracer import TRACE_SCHEMA, Tracer

#: schema identifier of the run-directory layout / event stream
RUN_SCHEMA = "repro-telemetry-run-v1"

#: file names inside a run directory
TRACE_FILE = "trace.json"
METRICS_FILE = "metrics.jsonl"
EVENTS_FILE = "events.jsonl"
META_FILE = "meta.json"


class TelemetrySink:
    """One telemetry endpoint for a whole run.

    Parameters
    ----------
    run_dir:
        Output directory (created); None keeps everything in memory.
    enabled:
        ``False`` turns the tracer off (true no-op spans) while leaving
        metrics/events functional but unused by the hot path.
    trace_capacity:
        Ring-buffer size of the tracer, in records.
    metrics_every:
        Steps between automatic metrics snapshots in :meth:`on_step`
        (0 = only the final snapshot).
    physics_every:
        Steps between physics samples (constraint norms, Ψ₄ amplitude)
        in :meth:`on_step`; 0 disables them (they cost a constraint
        evaluation, which is far from free).
    label / meta:
        Human-readable run label and extra JSON-able metadata recorded
        in ``meta.json``.
    """

    def __init__(self, run_dir=None, *, enabled: bool = True,
                 trace_capacity: int = 65536, metrics_every: int = 10,
                 physics_every: int = 0, label: str = "run",
                 meta: dict | None = None, rank: int = 0):
        self.run_dir = pathlib.Path(run_dir) if run_dir is not None else None
        self.enabled = bool(enabled)
        self.label = label
        self.metrics_every = int(metrics_every)
        self.physics_every = int(physics_every)
        self.tracer = Tracer(enabled=self.enabled, capacity=trace_capacity,
                             tid=rank)
        self.metrics = MetricsRegistry()
        self.events: list[dict] = []
        self._seq = 0
        self._steps_seen = 0
        self._events_fh = None
        self._metrics_fh = None
        self._meta = dict(meta) if meta else {}
        self._finalized = False
        self._listeners: list = []
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._events_fh = open(self.run_dir / EVENTS_FILE, "a",
                                   encoding="utf-8")
            self._metrics_fh = open(self.run_dir / METRICS_FILE, "a",
                                    encoding="utf-8")
            self._write_meta()

    # -- events ---------------------------------------------------------
    def add_listener(self, fn) -> None:
        """Register ``fn(record)`` to observe every event as it is
        recorded — the hook fleet telemetry shipping uses to forward
        recovery events to the coordinator.  Listener errors are
        swallowed (telemetry must never take the run down)."""
        self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        """Drop a previously registered listener (no-op if absent)."""
        self._listeners = [f for f in self._listeners if f is not fn]

    def event(self, kind: str, **fields) -> dict:
        """Record one event (RunJournal schema) and mirror it onto the
        trace timeline as an instant marker."""
        rec = {"seq": self._seq, "kind": kind, "wall": time.time()}
        rec.update({k: jsonl.jsonable(v) for k, v in fields.items()})
        self._seq += 1
        self.events.append(rec)
        if self._events_fh is not None:
            jsonl.append(self._events_fh, rec)
        self.tracer.instant(kind, cat="event",
                            args={k: v for k, v in rec.items()
                                  if k not in ("seq", "wall")})
        for fn in self._listeners:
            try:
                fn(rec)
            except Exception:
                pass
        return rec

    # -- adapters -------------------------------------------------------
    def profiler(self):
        """A :class:`repro.perf.StepProfiler` wired into this sink's
        tracer and metrics (per-phase latency histograms); a disabled
        sink's records nothing."""
        return StepProfiler(tracer=self.tracer,
                            metrics=self.metrics if self.enabled else None)

    def journal(self, path=None):
        """A :class:`repro.resilience.RunJournal` whose events also flow
        through this sink (they appear on the Perfetto timeline)."""
        from repro.resilience import RunJournal  # local: avoid cycle

        return RunJournal(path, sink=self)

    # -- periodic sampling ----------------------------------------------
    def on_step(self, solver) -> None:
        """Per-step hook for run loops: cadenced metrics snapshots and
        physics samples (see ``metrics_every`` / ``physics_every``)."""
        self._steps_seen += 1
        step = getattr(solver, "step_count", self._steps_seen)
        if self.physics_every and self._steps_seen % self.physics_every == 0:
            from .instrument import sample_physics

            sample_physics(self.metrics, solver)
        if self.metrics_every and self._steps_seen % self.metrics_every == 0:
            from .instrument import sample_solver

            sample_solver(self.metrics, solver)
            self.snapshot_metrics(step=step)

    def snapshot_metrics(self, *, step=None) -> dict:
        """Write one metrics snapshot line (in-memory dict if no dir)."""
        if self._metrics_fh is not None:
            return write_snapshot(self._metrics_fh, self.metrics, step=step)
        return self.metrics.snapshot(step=step)

    # -- lifecycle ------------------------------------------------------
    def _write_meta(self, extra: dict | None = None) -> None:
        meta = {
            "schema": RUN_SCHEMA,
            "trace_schema": TRACE_SCHEMA,
            "metrics_schema": METRICS_SCHEMA,
            "label": self.label,
            "created_wall": self.tracer.epoch_wall,
            "metrics_every": self.metrics_every,
            "physics_every": self.physics_every,
            "meta": jsonl.jsonable(self._meta),
        }
        if extra:
            meta.update(extra)
        (self.run_dir / META_FILE).write_text(
            json.dumps(meta, indent=2, default=str) + "\n", encoding="utf-8"
        )

    def finalize(self, solver=None, **extra_meta) -> "pathlib.Path | None":
        """Flush everything: final solver sample + metrics snapshot,
        trace.json export, refreshed meta.json.  Idempotent."""
        if self._finalized:
            return self.run_dir
        self._finalized = True
        if solver is not None:
            from .instrument import sample_solver

            sample_solver(self.metrics, solver)
        step = getattr(solver, "step_count", None)
        self.snapshot_metrics(step=step)
        if self.run_dir is not None:
            trace = self.tracer.to_chrome(label=self.label)
            (self.run_dir / TRACE_FILE).write_text(
                json.dumps(trace, separators=(",", ":")) + "\n",
                encoding="utf-8",
            )
            self._write_meta({
                "finalized_wall": time.time(),
                "events": len(self.events),
                "trace_records": len(self.tracer),
                "trace_dropped": self.tracer.dropped,
                **jsonl.jsonable(extra_meta),
            })
            self._events_fh.close()
            self._events_fh = None
            self._metrics_fh.close()
            self._metrics_fh = None
        return self.run_dir

    def close(self) -> None:
        """Alias of :meth:`finalize` without a solver sample."""
        self.finalize()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc) -> None:
        self.finalize()


def read_events(path) -> list[dict]:
    """Parse an ``events.jsonl`` stream (a torn final line is skipped
    with a warning)."""
    return jsonl.read(path, warn=True)
