"""Fleet telemetry: ship worker deltas, aggregate campaign rollups.

A multi-host campaign leaves its telemetry scattered: every job attempt
writes a run directory on whichever host executed it, and the only
cross-host signal is heartbeat liveness.  This module closes that gap
(DESIGN §13):

* :class:`TelemetryShipper` — the worker side.  Watches one or more
  :class:`~repro.telemetry.MetricsRegistry` instances (the worker-level
  registry plus the active job's sink registry) and turns *changes
  since the last flush* into bounded, loss-counted deltas: counters and
  histograms ship as exact differences, gauges ship last-value with a
  worker wall timestamp, recovery events ride along in a bounded queue.
  Un-acknowledged deltas are retransmitted (sliding window over a
  monotonic per-worker ``seq``), so a delta is applied exactly once no
  matter how often the RPC carrying it is retried; when the in-flight
  window overflows, the oldest delta is *dropped and counted*
  (``lost_deltas``) rather than blocking the worker.

* merge algebra — :func:`merge_histogram` and the counter/gauge rules
  the aggregator applies: counters **sum**, histograms **bucket-merge**
  (same edges → elementwise count add), gauges are **last-write-wins by
  worker timestamp**.  Counter and histogram merge are associative and
  order-independent (property-tested), so shard/worker arrival order
  cannot change a rollup.

* :class:`FleetAggregator` — the coordinator side.  Ingests delta
  payloads (deduplicating by ``seq``), folds them into campaign-wide
  rollups, persists one windowed rollup line to
  ``<root>/rollups.jsonl`` (append + flush + fsync — crash-safe beside
  the queue journal, torn-final-line tolerated on load) and evaluates
  an SLO/anomaly rule set (:class:`SLORules`): step-time regression vs
  the §III-D cost-model prediction, lease-expiry and recovery-event
  spikes, degraded-mode entry.  Alert transitions are journaled to
  ``<root>/events.jsonl``.

* :func:`assemble_campaign_trace` — campaign-wide Perfetto assembly:
  per-attempt ``trace.json`` files grouped into one lane per worker,
  clock-skew normalised via the RPC timestamp echoes each worker
  estimated against the coordinator (``clock_offset`` in its deltas).
"""

from __future__ import annotations

import json
import math
import pathlib
import threading
import time

from repro import jsonl

from .metrics import MetricsRegistry, load_snapshots, quantile_from_dict
from .tracer import merge_chrome_traces

#: schema identifiers
DELTA_SCHEMA = "repro-fleet-delta-v1"
ROLLUP_SCHEMA = "repro-fleet-rollup-v1"

#: files the aggregator maintains under its root (beside the queue journal)
ROLLUPS_FILE = "rollups.jsonl"
FLEET_EVENTS_FILE = "events.jsonl"

#: quantiles surfaced in every rollup histogram
ROLLUP_QUANTILES = (0.5, 0.9, 0.99)


def _key(name: str, labels) -> tuple:
    if isinstance(labels, dict):
        labels = tuple(sorted(labels.items()))
    return (name, tuple(tuple(kv) for kv in labels))


def _labels_dict(key: tuple) -> dict:
    return dict(key[1])


# ---------------------------------------------------------------------
# merge algebra
# ---------------------------------------------------------------------
class MergeConflict(ValueError):
    """Two histogram contributions carry different bucket edges."""


def merge_histogram(agg: dict | None, delta: dict) -> dict:
    """Bucket-merge one histogram contribution into an aggregate.

    Both operands use the snapshot dict form (``edges``/``counts``/
    ``sum``/``count``/``min``/``max``).  Counts and sums add
    elementwise; min/max combine None-aware.  The merge is associative
    and commutative on the integer fields (counts), which is what the
    rollup-equality guarantee rests on.
    """
    if agg is None:
        return {
            "edges": list(delta["edges"]),
            "counts": list(delta["counts"]),
            "sum": float(delta["sum"]),
            "count": int(delta["count"]),
            "min": delta.get("min"),
            "max": delta.get("max"),
        }
    if list(agg["edges"]) != list(delta["edges"]):
        raise MergeConflict(
            f"histogram edges differ: {len(agg['edges'])} vs "
            f"{len(delta['edges'])} buckets"
        )
    agg["counts"] = [a + b for a, b in zip(agg["counts"], delta["counts"])]
    agg["sum"] += float(delta["sum"])
    agg["count"] += int(delta["count"])
    for field, pick in (("min", min), ("max", max)):
        d = delta.get(field)
        if d is not None:
            a = agg.get(field)
            agg[field] = d if a is None else pick(a, d)
    return agg


def merge_gauge(current: tuple | None, value: float, wall: float,
                worker: str) -> tuple:
    """Last-write-wins by *worker timestamp*: the stored triple is
    ``(value, wall, worker)`` and an incoming sample only replaces it
    when its wall clock is at least as new — replaying an old delta
    (retry, out-of-order shard) can never roll a gauge backwards."""
    if current is not None and wall < current[1]:
        return current
    return (float(value), float(wall), worker)


def _hist_delta(prev: dict | None, now: dict) -> dict | None:
    """The (exact) histogram difference ``now - prev``; None when no new
    observations landed."""
    if prev is None:
        if not now["count"]:
            return None
        return {k: (list(v) if isinstance(v, list) else v)
                for k, v in now.items()}
    dcount = now["count"] - prev["count"]
    if dcount <= 0:
        return None
    return {
        "edges": list(now["edges"]),
        "counts": [b - a for a, b in zip(prev["counts"], now["counts"])],
        "sum": now["sum"] - prev["sum"],
        "count": dcount,
        # min/max are not differentiable: ship the current extrema (the
        # aggregate min/max stays a conservative envelope)
        "min": now.get("min"),
        "max": now.get("max"),
    }


# ---------------------------------------------------------------------
# worker side: the shipper
# ---------------------------------------------------------------------
class TelemetryShipper:
    """Turn registry changes into bounded, exactly-once delta payloads.

    Parameters
    ----------
    worker:
        Stable worker identity (label on everything this ships).
    max_metrics:
        Instrument-entry cap per delta; overflow stays *pending* (not
        lost) and ships on the next flush.
    max_events:
        Bound on the pending recovery-event queue; overflow drops the
        oldest event and counts it in ``lost_events``.
    max_inflight:
        Sliding-window bound on un-acknowledged deltas; overflow drops
        the oldest delta and counts it in ``lost_deltas``.
    """

    def __init__(self, worker: str, *, max_metrics: int = 512,
                 max_events: int = 256, max_inflight: int = 64,
                 clock=time.time):
        self.worker = str(worker)
        self.max_metrics = int(max_metrics)
        self.max_events = int(max_events)
        self.max_inflight = int(max_inflight)
        self.clock = clock
        #: the worker-level registry (rpc latency, degraded gauge, ...)
        self.registry = MetricsRegistry()
        #: best current clock-offset estimate vs the coordinator [s]
        self.clock_offset = 0.0
        self.lost_events = 0
        self.lost_deltas = 0
        self.shipped_deltas = 0
        self._lock = threading.Lock()
        self._sources: list[tuple[MetricsRegistry, dict]] = [
            (self.registry, {})
        ]
        self._pending_counters: dict[tuple, float] = {}
        self._pending_gauges: dict[tuple, tuple] = {}
        self._pending_hists: dict[tuple, dict] = {}
        self._pending_events: list[dict] = []
        self._inflight: list[dict] = []
        self._seq = 0

    # -- sources --------------------------------------------------------
    def watch(self, registry: MetricsRegistry) -> None:
        """Start diffing ``registry`` on every flush (e.g. the active
        job's sink registry)."""
        with self._lock:
            if not any(r is registry for r, _ in self._sources):
                self._sources.append((registry, {}))

    def unwatch(self, registry: MetricsRegistry) -> None:
        """Stop watching; any un-shipped difference is folded into the
        pending delta first, so nothing recorded is lost."""
        with self._lock:
            for i, (r, cursors) in enumerate(self._sources):
                if r is registry and r is not self.registry:
                    self._collect_source(r, cursors)
                    del self._sources[i]
                    return

    def event(self, rec: dict) -> None:
        """Queue one recovery/journal event for shipping (bounded)."""
        with self._lock:
            self._pending_events.append(dict(rec))
            while len(self._pending_events) > self.max_events:
                self._pending_events.pop(0)
                self.lost_events += 1

    # -- diffing --------------------------------------------------------
    def _collect_source(self, registry: MetricsRegistry,
                        cursors: dict) -> None:
        try:
            instruments = list(registry)
        except RuntimeError:  # registry mutated mid-iteration (hot path)
            return  # next flush picks the changes up
        for (name, labels), inst in instruments:
            key = _key(name, labels)
            kind = inst.kind
            if kind == "counter":
                prev = cursors.get(key, 0.0)
                d = inst.value - prev
                if d:
                    self._pending_counters[key] = (
                        self._pending_counters.get(key, 0.0) + d
                    )
                    cursors[key] = inst.value
            elif kind == "gauge":
                if key not in cursors or cursors[key] != inst.value:
                    self._pending_gauges[key] = (inst.value, self.clock())
                    cursors[key] = inst.value
            elif kind == "histogram":
                now = inst.to_dict()
                d = _hist_delta(cursors.get(key), now)
                if d is not None:
                    try:
                        self._pending_hists[key] = merge_histogram(
                            self._pending_hists.get(key), d)
                    except MergeConflict:
                        self._pending_hists[key] = d
                    cursors[key] = now

    def collect(self) -> None:
        """Fold changes from every watched registry into pending."""
        with self._lock:
            for registry, cursors in self._sources:
                self._collect_source(registry, cursors)

    # -- flushing / acking ----------------------------------------------
    def _pop_pending(self, limit: int | None) -> dict | None:
        entries = 0
        counters, gauges, hists = [], [], []
        for store, out in ((self._pending_counters, counters),
                           (self._pending_gauges, gauges),
                           (self._pending_hists, hists)):
            for key in list(store):
                if limit is not None and entries >= limit:
                    break
                out.append((key, store.pop(key)))
                entries += 1
        events = self._pending_events[: self.max_events]
        del self._pending_events[: len(events)]
        if not (counters or gauges or hists or events):
            return None
        self._seq += 1
        return {
            "seq": self._seq,
            "wall": self.clock(),
            "counters": [{"name": k[0], "labels": _labels_dict(k),
                          "value": v} for k, v in counters],
            "gauges": [{"name": k[0], "labels": _labels_dict(k),
                        "value": v, "wall": w}
                       for k, (v, w) in gauges],
            "histograms": [{"name": k[0], "labels": _labels_dict(k), **h}
                           for k, h in hists],
            "events": events,
        }

    def flush(self, *, full: bool = False) -> dict | None:
        """Collect, cut a new delta, and return the wire payload: every
        un-acknowledged delta (oldest first) plus loss counters.

        Returns None when there is nothing at all to ship.  ``full``
        lifts the per-delta instrument cap (the ``telemetry.push``
        path)."""
        self.collect()
        with self._lock:
            limit = None if full else self.max_metrics
            delta = self._pop_pending(limit)
            if delta is not None:
                self._inflight.append(delta)
                while len(self._inflight) > self.max_inflight:
                    self._inflight.pop(0)
                    self.lost_deltas += 1
            if not self._inflight:
                return None
            return {
                "schema": DELTA_SCHEMA,
                "worker": self.worker,
                "deltas": [dict(d) for d in self._inflight],
                "lost_deltas": self.lost_deltas,
                "lost_events": self.lost_events,
                "clock_offset": self.clock_offset,
            }

    def commit(self, ack_seq) -> None:
        """Drop in-flight deltas the aggregator acknowledged (its last
        applied ``seq`` for this worker)."""
        if ack_seq is None:
            return
        ack = int(ack_seq)
        with self._lock:
            before = len(self._inflight)
            self._inflight = [d for d in self._inflight if d["seq"] > ack]
            self.shipped_deltas += before - len(self._inflight)

    @property
    def backlog(self) -> int:
        """Un-acknowledged deltas currently held."""
        return len(self._inflight)

    def stats(self) -> dict:
        return {
            "worker": self.worker,
            "seq": self._seq,
            "shipped_deltas": self.shipped_deltas,
            "inflight": len(self._inflight),
            "lost_deltas": self.lost_deltas,
            "lost_events": self.lost_events,
            "clock_offset": self.clock_offset,
        }


# ---------------------------------------------------------------------
# SLO / anomaly rules
# ---------------------------------------------------------------------
class SLORules:
    """Thresholds for the per-window anomaly scan.

    ``step_time_factor`` governs the §III-D regression rule: the cost
    model predicts *device* time, so absolute comparison with host wall
    clock is meaningless — instead each worker's observed/predicted
    ratio is compared against the fleet's median ratio over past
    windows, and a worker running ``step_time_factor``× slower than
    that self-calibrated baseline raises ``step-time-regression``.
    """

    def __init__(self, *, step_time_factor: float = 3.0,
                 min_baseline_windows: int = 4,
                 lease_expiry_spike: int = 3,
                 recovery_spike: int = 3,
                 recovery_kinds=("rollback", "fault-injected",
                                 "nan-detected")):
        self.step_time_factor = float(step_time_factor)
        self.min_baseline_windows = int(min_baseline_windows)
        self.lease_expiry_spike = int(lease_expiry_spike)
        self.recovery_spike = int(recovery_spike)
        self.recovery_kinds = tuple(recovery_kinds)


class _WorkerState:
    __slots__ = ("last_seq", "last_seen", "first_seen", "counters",
                 "steps_total", "steps_window", "step_seconds_window",
                 "lost_deltas", "lost_events", "clock_offset", "deltas",
                 "events_window")

    def __init__(self, now: float):
        self.last_seq = 0
        self.last_seen = now
        self.first_seen = now
        self.counters: dict[tuple, float] = {}
        self.steps_total = 0
        self.steps_window = 0
        self.step_seconds_window = 0.0
        self.lost_deltas = 0
        self.lost_events = 0
        self.clock_offset = 0.0
        self.deltas = 0
        self.events_window = 0


class FleetAggregator:
    """Merge worker deltas into campaign-wide rollups (coordinator side).

    ``root`` (optional) is the directory the windowed ``rollups.jsonl``
    and the alert/event journal live in — conventionally
    ``<campaign>/fleet/``, beside the queue journal, and persisted the
    same way (append, flush, fsync; loaders tolerate a torn final
    line).  Without a root the aggregator is purely in-memory.
    """

    def __init__(self, root=None, *, window_seconds: float = 2.0,
                 stale_after: float = 10.0, rules: SLORules | None = None,
                 clock=time.time):
        self.root = pathlib.Path(root) if root is not None else None
        self.window_seconds = float(window_seconds)
        self.stale_after = float(stale_after)
        self.rules = rules or SLORules()
        self.clock = clock
        self._lock = threading.RLock()
        self.counters: dict[tuple, float] = {}
        self.histograms: dict[tuple, dict] = {}
        self.gauges: dict[tuple, tuple] = {}  # (key, worker) -> (v, wall, w)
        self.workers: dict[str, _WorkerState] = {}
        self.alerts: dict[tuple, dict] = {}
        self.merge_conflicts = 0
        self.events_total = 0
        self.rollup_seq = 0
        self._window_events: list[dict] = []
        self._window_start = clock()
        self._window_counter_marks: dict[tuple, float] = {}
        self._ratio_history: list[float] = []
        self._locals: list[TelemetryShipper] = []
        self._rollups_fh = None
        self._events_fh = None
        self._closed = False
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._rollups_fh = open(self.root / ROLLUPS_FILE, "a",
                                    encoding="utf-8")
            self._events_fh = open(self.root / FLEET_EVENTS_FILE, "a",
                                   encoding="utf-8")

    # -- local sources (the coordinator's own registry) -----------------
    def track_local(self, label: str, registry: MetricsRegistry) -> None:
        """Fold a local registry (e.g. the coordinator's own metrics:
        ``lease_expirations``, per-op request counters) into the rollup
        on every tick, as pseudo-worker ``label``."""
        shipper = TelemetryShipper(label, clock=self.clock)
        shipper.watch(registry)
        with self._lock:
            self._locals.append(shipper)

    # -- ingest ----------------------------------------------------------
    def ingest(self, payload: dict) -> int:
        """Apply one wire payload; returns the last applied ``seq`` for
        that worker (the ack the shipper commits against).  Deltas with
        ``seq`` at or below the ack are duplicates (RPC retries,
        retransmitted windows) and are skipped, so application is
        exactly-once per delta."""
        now = self.clock()
        with self._lock:
            last_seq = self._ingest_locked(payload, now)
            self._maybe_roll(now)
            return last_seq

    def _ingest_locked(self, payload: dict, now: float) -> int:
        """:meth:`ingest` without rolling the window (the caller holds
        the lock and rolls)."""
        worker = str(payload.get("worker", "?"))
        st = self.workers.get(worker)
        if st is None:
            st = self.workers[worker] = _WorkerState(now)
        st.last_seen = now
        st.lost_deltas = int(payload.get("lost_deltas", 0))
        st.lost_events = int(payload.get("lost_events", 0))
        st.clock_offset = float(payload.get("clock_offset", 0.0))
        for delta in payload.get("deltas", ()):
            if int(delta.get("seq", 0)) <= st.last_seq:
                continue
            self._apply(worker, st, delta)
            st.last_seq = int(delta["seq"])
            st.deltas += 1
        return st.last_seq

    def _apply(self, worker: str, st: _WorkerState, delta: dict) -> None:
        for c in delta.get("counters", ()):
            key = _key(c["name"], c.get("labels", {}))
            self.counters[key] = self.counters.get(key, 0.0) + c["value"]
            st.counters[key] = st.counters.get(key, 0.0) + c["value"]
        for g in delta.get("gauges", ()):
            key = _key(g["name"], g.get("labels", {}))
            self.gauges[(key, worker)] = merge_gauge(
                self.gauges.get((key, worker)), g["value"],
                g.get("wall", delta.get("wall", 0.0)), worker)
        for h in delta.get("histograms", ()):
            key = _key(h["name"], h.get("labels", {}))
            try:
                self.histograms[key] = merge_histogram(
                    self.histograms.get(key), h)
            except MergeConflict:
                self.merge_conflicts += 1
                continue
            if key == ("step_seconds", ()):
                st.steps_total += int(h["count"])
                st.steps_window += int(h["count"])
                st.step_seconds_window += float(h["sum"])
        for ev in delta.get("events", ()):
            rec = dict(ev)
            rec["worker"] = worker
            self.events_total += 1
            st.events_window += 1
            self._window_events.append(rec)
            if len(self._window_events) > 4096:
                del self._window_events[0]
            self._journal(rec)

    # -- persistence -----------------------------------------------------
    def _journal(self, rec: dict) -> None:
        if self._events_fh is None:
            return
        jsonl.append(self._events_fh, rec)

    def _persist_rollup(self, rollup: dict) -> None:
        if self._rollups_fh is None:
            return
        jsonl.append(self._rollups_fh, rollup, fsync=True)

    # -- windows / rules -------------------------------------------------
    def _maybe_roll(self, now: float) -> None:
        if now - self._window_start >= self.window_seconds:
            self._roll(now)

    def tick(self, *, force: bool = False) -> dict | None:
        """Fold local sources and close the window when due (or forced).
        Returns the rollup written, if any."""
        with self._lock:
            for shipper in self._locals:
                payload = shipper.flush(full=True)
                if payload is not None:
                    shipper.commit(self._ingest_locked(payload, self.clock()))
            now = self.clock()
            if force or now - self._window_start >= self.window_seconds:
                return self._roll(now)
            return None

    def _counter_value(self, name: str, labels=()) -> float:
        return self.counters.get(_key(name, dict(labels)), 0.0)

    def _evaluate_rules(self, now: float, window_dt: float) -> None:
        firing: dict[tuple, dict] = {}
        rules = self.rules

        # 1. lease-expiry spike (coordinator counter, per window)
        key = _key("lease_expirations", {})
        total = self.counters.get(key, 0.0)
        mark = self._window_counter_marks.get(key, 0.0)
        if total - mark >= rules.lease_expiry_spike:
            firing[("lease-expiry-spike", "")] = {
                "value": total - mark,
                "message": f"{int(total - mark)} lease expirations in "
                           f"{window_dt:.1f}s",
            }
        self._window_counter_marks[key] = total

        # 2. recovery-event spike (rollbacks / NaN bursts)
        n_recovery = sum(1 for e in self._window_events
                         if e.get("kind") in rules.recovery_kinds)
        if n_recovery >= rules.recovery_spike:
            firing[("recovery-spike", "")] = {
                "value": n_recovery,
                "message": f"{n_recovery} recovery events "
                           f"({'/'.join(rules.recovery_kinds)}) in "
                           f"{window_dt:.1f}s",
            }

        # 3. degraded-mode entry (per worker, from the shipped gauge)
        for (key, worker), (value, _wall, _w) in self.gauges.items():
            if key == ("fabric_degraded", ()) and value:
                firing[("degraded-mode", worker)] = {
                    "value": value,
                    "message": f"worker {worker} fell back to direct "
                               f"file-queue mode",
                }

        # 4. step-time regression vs the §III-D prediction
        ratios = {}
        for worker, st in self.workers.items():
            if not st.steps_window:
                continue
            pred = self.gauges.get(
                (_key("job_predicted_step_seconds", {}), worker))
            if not pred or pred[0] <= 0.0:
                continue
            observed = st.step_seconds_window / st.steps_window
            ratios[worker] = observed / pred[0]
        baseline = (sorted(self._ratio_history)
                    [len(self._ratio_history) // 2]
                    if self._ratio_history else None)
        for worker, ratio in ratios.items():
            if (baseline is not None
                    and len(self._ratio_history)
                    >= rules.min_baseline_windows
                    and ratio > rules.step_time_factor * baseline):
                firing[("step-time-regression", worker)] = {
                    "value": ratio,
                    "message": (f"worker {worker} at {ratio:.1f}× the "
                                f"model (fleet baseline {baseline:.1f}×, "
                                f"factor {rules.step_time_factor})"),
                }
            self._ratio_history.append(ratio)
            if len(self._ratio_history) > 64:
                del self._ratio_history[0]

        # transitions → journal events + active-alert table
        for akey, info in firing.items():
            if akey not in self.alerts:
                rec = {"kind": "alert", "rule": akey[0], "worker": akey[1],
                       "wall": now, **info}
                self.alerts[akey] = rec
                self._journal(rec)
        for akey in [k for k in self.alerts if k not in firing]:
            rec = dict(self.alerts.pop(akey))
            rec.update(kind="alert-cleared", wall=now)
            self._journal(rec)

    def _roll(self, now: float) -> dict:
        window_dt = max(1e-9, now - self._window_start)
        self._evaluate_rules(now, window_dt)
        rollup = self._snapshot_locked(now, window_dt=window_dt)
        self.rollup_seq += 1
        rollup["seq"] = self.rollup_seq
        self._persist_rollup(rollup)
        for st in self.workers.values():
            st.steps_window = 0
            st.step_seconds_window = 0.0
            st.events_window = 0
        self._window_events.clear()
        self._window_start = now
        return rollup

    # -- read side -------------------------------------------------------
    def _snapshot_locked(self, now: float, *, window_dt=None) -> dict:
        if window_dt is None:
            window_dt = max(1e-9, now - self._window_start)
        hists = []
        for key, h in sorted(self.histograms.items()):
            entry = {"name": key[0], "labels": _labels_dict(key), **h}
            for q in ROLLUP_QUANTILES:
                entry[f"p{int(q * 100)}"] = quantile_from_dict(h, q)
            hists.append(entry)
        return {
            "schema": ROLLUP_SCHEMA,
            "wall": now,
            "window": [self._window_start, now],
            "counters": [{"name": k[0], "labels": _labels_dict(k),
                          "value": v}
                         for k, v in sorted(self.counters.items())],
            "gauges": [{"name": k[0], "labels": _labels_dict(k),
                        "worker": w, "value": v, "wall": wall}
                       for (k, w), (v, wall, _) in sorted(
                           self.gauges.items())],
            "histograms": hists,
            "workers": {
                w: {
                    "last_seen": st.last_seen,
                    "alive": (now - st.last_seen) <= self.stale_after,
                    "last_seq": st.last_seq,
                    "deltas": st.deltas,
                    "steps_total": st.steps_total,
                    "step_rate": st.steps_window / window_dt,
                    "lost_deltas": st.lost_deltas,
                    "lost_events": st.lost_events,
                    "clock_offset": st.clock_offset,
                    "degraded": bool(self.gauges.get(
                        (_key("fabric_degraded", {}), w),
                        (0.0, 0.0, w))[0]),
                }
                for w, st in sorted(self.workers.items())
            },
            "events_total": self.events_total,
            "events_window": len(self._window_events),
            "merge_conflicts": self.merge_conflicts,
            "alerts": sorted(self.alerts.values(),
                             key=lambda a: (a["rule"], a["worker"])),
        }

    def snapshot(self) -> dict:
        """The live rollup-shaped view (no persistence, no window reset)
        — what ``python -m repro.jobs top`` renders when attached."""
        with self._lock:
            return self._snapshot_locked(self.clock())

    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            return self._counter_value(name, labels.items())

    def close(self) -> dict | None:
        """Write the final window and close the files.  Idempotent."""
        with self._lock:
            if self._closed:
                return None
            rollup = self.tick(force=True)
            self._closed = True
            for fh in (self._rollups_fh, self._events_fh):
                if fh is not None:
                    fh.close()
            self._rollups_fh = self._events_fh = None
            return rollup


def load_rollups(path) -> list[dict]:
    """Parse a ``rollups.jsonl`` stream (torn final line tolerated —
    same reader discipline as metrics snapshots)."""
    return load_snapshots(path)


# ---------------------------------------------------------------------
# campaign-wide Perfetto assembly
# ---------------------------------------------------------------------
def _worker_offsets(root: pathlib.Path) -> dict[str, float]:
    """Per-worker clock offsets from the newest persisted rollup."""
    path = root / "fleet" / ROLLUPS_FILE
    if not path.exists():
        return {}
    rollups = load_rollups(path)
    if not rollups:
        return {}
    return {w: info.get("clock_offset", 0.0)
            for w, info in rollups[-1].get("workers", {}).items()}


def assemble_campaign_trace(root, *, out=None,
                            offsets: dict[str, float] | None = None) -> dict:
    """Merge every per-attempt ``trace.json`` under ``<root>/runs/`` into
    one Perfetto file with **one lane per worker**.

    Lanes are grouped by the worker name each attempt's ``meta.json``
    records; timestamps are clock-skew-normalised onto the earliest
    corrected wall epoch using the per-worker offsets the fleet rollup
    recorded (each worker's RPC-echo estimate against the coordinator),
    so spans from different hosts line up on one timeline.
    """
    root = pathlib.Path(root)
    if offsets is None:
        offsets = _worker_offsets(root)
    traces, labels, walls = [], [], []
    for trace_path in sorted(root.glob("runs/*/attempt-*/trace.json")):
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        meta_path = trace_path.parent / "meta.json"
        worker = ""
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                worker = str(meta.get("meta", {}).get("worker") or "")
            except (OSError, json.JSONDecodeError):
                pass
        worker = worker or trace_path.parent.parent.parent.name
        epoch = float(trace.get("otherData", {}).get("epoch_wall", 0.0))
        traces.append(trace)
        labels.append(worker)
        walls.append(epoch - offsets.get(worker, 0.0))
    if not traces:
        merged = merge_chrome_traces([])
    else:
        t_ref = min(walls)
        shifts = [(w - t_ref) * 1e6 for w in walls]
        merged = merge_chrome_traces(traces, labels=labels,
                                     shifts_us=shifts)
        merged.setdefault("otherData", {})["epoch_wall"] = t_ref
        merged["otherData"]["workers"] = sorted(set(labels))
    if out is not None:
        out = pathlib.Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(merged, separators=(",", ":")) + "\n",
                       encoding="utf-8")
    return merged


def sum_run_dir_counters(root) -> dict[tuple, float]:
    """Sum every counter across the *final* metrics snapshot of every
    attempt run dir under ``<root>/runs/`` — the per-worker ground truth
    the rollup equality check (fleet-demo, CI) compares against."""
    totals: dict[tuple, float] = {}
    for metrics_path in sorted(
            pathlib.Path(root).glob("runs/*/attempt-*/metrics.jsonl")):
        try:
            snaps = load_snapshots(metrics_path)
        except (OSError, json.JSONDecodeError):
            continue
        if not snaps:
            continue
        for m in snaps[-1].get("metrics", ()):
            if m.get("type") != "counter":
                continue
            value = m.get("value", 0.0)
            if isinstance(value, str) or not math.isfinite(value):
                continue
            key = _key(m["name"], m.get("labels", {}))
            totals[key] = totals.get(key, 0.0) + value
    return totals
