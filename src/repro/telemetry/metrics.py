"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Every subsystem publishes into one :class:`MetricsRegistry` — per-phase
latencies and steps/sec from the profiler, halo bytes/messages per edge
from the exchange, octants per level from the mesh, pool bytes from the
arena, rollback counts from the supervisor, constraint norms and Ψ₄
amplitude from the physics samplers, flop/byte totals from the virtual
GPU.  Instruments are keyed by ``(name, labels)`` so the same metric
family can carry per-phase / per-edge / per-level series.

Snapshots are plain JSON-able dicts and round-trip losslessly through
:func:`write_snapshot` / :func:`load_snapshots` /
:func:`registry_from_snapshot` — the JSONL snapshot stream in a run
directory is the on-disk ground truth ``summarize``/``compare`` consume.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left

from repro import jsonl

#: schema identifier stamped into every snapshot line
METRICS_SCHEMA = "repro-metrics-v1"

#: default latency bucket upper edges (seconds): 1 µs · 2^k for
#: k = 0..25, i.e. 1 µs … ~33.6 s, plus the implicit +inf overflow bucket
DEFAULT_LATENCY_BUCKETS = tuple(1e-6 * 2.0**k for k in range(26))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: float = 0.0):
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += float(amount)

    def to_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-written value (octant count, pool bytes, constraint norm...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram over ``edges`` (upper bounds, inclusive).

    Bucket ``i`` counts observations in ``(edges[i-1], edges[i]]`` — a
    value landing exactly on an edge goes into the bucket whose upper
    bound it equals; anything above the last edge lands in the overflow
    bucket ``counts[len(edges)]``.  Sum/count/min/max ride along so means
    survive without the raw samples.
    """

    __slots__ = ("edges", "counts", "sum", "count", "min", "max")
    kind = "histogram"

    def __init__(self, edges=DEFAULT_LATENCY_BUCKETS):
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("edges must be non-empty and strictly increasing")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect_left(self.edges, v)] += 1
        self.sum += v
        self.count += 1
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile interpolated from the fixed buckets
        (see :func:`quantile_from_dict`); None when empty."""
        return quantile_from_dict(self.to_dict(), q)

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


def quantile_from_dict(hist: dict, q: float) -> float | None:
    """Estimate the ``q``-quantile of a histogram snapshot dict.

    The estimate assumes observations are uniform within each bucket
    (the standard fixed-bucket interpolation): walk the cumulative
    counts to the bucket holding rank ``q * count``, then interpolate
    linearly between its lower and upper edge.  The observed min/max
    clamp the result, so a one-sample histogram reports that sample for
    every quantile and the overflow bucket cannot extrapolate past the
    true maximum.  Returns None for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = hist.get("count", 0)
    if not total:
        return None
    edges = hist["edges"]
    counts = hist["counts"]
    lo = hist.get("min")
    hi = hist.get("max")
    rank = q * total
    cum = 0
    for i, c in enumerate(counts):
        if not c:
            continue
        if cum + c >= rank:
            lower = edges[i - 1] if i > 0 else (
                lo if lo is not None else 0.0)
            upper = edges[i] if i < len(edges) else (
                hi if hi is not None else edges[-1])
            frac = (rank - cum) / c
            value = lower + frac * (upper - lower)
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        cum += c
    return hi


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Get-or-create home of every instrument, keyed by name + labels."""

    def __init__(self):
        self._instruments: dict[tuple, object] = {}

    def _get(self, cls, name, labels: dict, **kwargs):
        key = _key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(**kwargs)
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name}{labels} already registered as {inst.kind}"
            )
        return inst

    # the metric name is positional-only so labels may themselves be
    # called ``name`` (e.g. constraint{name="ham"})
    def counter(self, name: str, /, **labels) -> Counter:
        """The counter for ``(name, labels)``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, /, **labels) -> Gauge:
        """The gauge for ``(name, labels)``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, /, buckets=DEFAULT_LATENCY_BUCKETS,
                  **labels) -> Histogram:
        """The histogram for ``(name, labels)`` (``buckets`` applies only
        on first creation)."""
        return self._get(Histogram, name, labels, edges=buckets)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(sorted(self._instruments.items()))

    def get(self, name: str, /, **labels):
        """The instrument for ``(name, labels)``, or None."""
        return self._instruments.get(_key(name, labels))

    def family(self, name: str) -> dict[tuple, object]:
        """All instruments of one metric family, keyed by label tuple."""
        return {k[1]: v for k, v in self._instruments.items() if k[0] == name}

    # -- (de)serialisation ---------------------------------------------
    def snapshot(self, *, step=None, wall=None) -> dict:
        """The registry as one JSON-able snapshot object."""
        return {
            "schema": METRICS_SCHEMA,
            "wall": time.time() if wall is None else wall,
            "step": step,
            "metrics": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "type": inst.kind,
                    **inst.to_dict(),
                }
                for (name, labels), inst in self
            ],
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        """Rebuild a registry from a snapshot (exact round-trip)."""
        reg = cls()
        for m in snap["metrics"]:
            kind, labels = m["type"], m.get("labels", {})
            if kind == "counter":
                reg.counter(m["name"], **labels).value = m["value"]
            elif kind == "gauge":
                reg.gauge(m["name"], **labels).value = m["value"]
            elif kind == "histogram":
                h = reg.histogram(m["name"], buckets=m["edges"], **labels)
                h.counts = list(m["counts"])
                h.sum = m["sum"]
                h.count = m["count"]
                h.min = m["min"] if m["min"] is not None else math.inf
                h.max = m["max"] if m["max"] is not None else -math.inf
            else:
                raise ValueError(f"unknown metric type {kind!r}")
        return reg


def write_snapshot(fh, registry: MetricsRegistry, *, step=None,
                   wall=None) -> dict:
    """Append one snapshot line to an open JSONL stream; returns it."""
    snap = registry.snapshot(step=step, wall=wall)
    jsonl.append(fh, snap)
    return snap


def load_snapshots(path) -> list[dict]:
    """Parse a ``metrics.jsonl`` stream (torn final line tolerated)."""
    return jsonl.read(path)


def registry_from_snapshot(snap: dict) -> MetricsRegistry:
    """Module-level alias of :meth:`MetricsRegistry.from_snapshot`."""
    return MetricsRegistry.from_snapshot(snap)
