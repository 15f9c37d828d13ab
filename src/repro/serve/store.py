"""CatalogStore — the serve subsystem's disk-backed waveform index.

The store turns completed campaign results and model catalogs into one
queryable product: every entry is a (2,2) waveform persisted in the
:mod:`repro.io.waveforms` format under ``waveforms/``, described by a
row in ``index.json`` keyed by its physical parameters (mass ratio,
remnant spin, resolution = finest refinement level, extraction radius)
and grouped into *families* of entries sharing a common time grid —
the unit within which parameter-space interpolation
(:meth:`repro.analysis.catalog.WaveformCatalog.interpolate`) is valid.

Adjacent-in-q mismatches are computed once per family at ingest time
(only the gaps next to the inserted entry) and stored in the index, so
a query plan — exact hit, interpolation bracket with a mismatch-bounded
error estimate, or coverage miss — is pure index arithmetic, a bisect
per family over its q-sorted key table: the request front never decodes
a waveform just to decide *whether* it can serve one.

Index writes are atomic (same-directory temp file + ``os.replace``),
so a killed ingest never leaves readers a torn index; waveform files
land before the index row that references them.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import pathlib
import threading

import numpy as np

from repro.analysis.catalog import CatalogEntry, WaveformCatalog
from repro.gw.compare import mismatch
from repro.gw.extraction import ModeTimeSeries
from repro.gw.waveform import remnant_spin
from repro.io.waveforms import load_mode_arrays, save_modes
from repro.jobs.cache import ResultCache

INDEX_FILE = "index.json"
WAVEFORM_DIR = "waveforms"
INDEX_VERSION = 1

#: default interpolation admission budget: a bracket whose endpoint
#: mismatch exceeds this is a coverage gap, not an interpolation
DEFAULT_INTERP_MISMATCH = 0.25


class StoreError(RuntimeError):
    """The store cannot satisfy the operation (unknown key, bad entry)."""


def _isclose(a: float, b: float) -> bool:
    """Scalar ``np.isclose(a, b)`` at its default tolerances: equal
    infinities are close, a NaN or one infinity is close to nothing."""
    return a == b or abs(a - b) <= 1e-8 + 1e-5 * abs(b) < math.inf


def _nearest_run(qs: list, rows: list, indices, q: float, allowed):
    """Walking ``indices`` away from ``q``: the allowed rows at the
    smallest distance from it that has any."""
    found = None
    for j in indices:
        distance = abs(qs[j] - q)
        if found is not None and distance > found:
            return
        if allowed(rows[j]):
            found = distance
            yield rows[j]


def _family_signature(times: np.ndarray) -> str:
    """Grid identity: entries interpolate only within one family."""
    t = np.asarray(times, dtype=np.float64)
    return f"{t.size}:{t[0]:.9g}:{t[-1]:.9g}"


class CatalogStore:
    """Disk-backed, queryable index of catalog waveforms."""

    def __init__(self, root, *,
                 max_interp_mismatch: float = DEFAULT_INTERP_MISMATCH):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / WAVEFORM_DIR).mkdir(exist_ok=True)
        self.max_interp_mismatch = float(max_interp_mismatch)
        #: guards the in-memory index: the asyncio front ingests from
        #: executor threads while query planning runs on the event loop
        self._mutex = threading.RLock()
        self._index = self._load_index()
        #: position of each key in the index: the order ties are broken in
        self._order = {k: i for i, k in enumerate(self._index["entries"])}
        #: family → (mass ratios, index rows), both in the order of the
        #: family's stored q-sorted ``keys``: what a plan bisects
        self._tables: dict[str, tuple[list, list]] = {}
        for family in self._index["families"]:
            self._set_table(family)

    # -- index persistence -------------------------------------------------
    def _load_index(self) -> dict:
        path = self.root / INDEX_FILE
        try:
            index = json.loads(path.read_text(encoding="utf-8"))
            if index.get("version") != INDEX_VERSION:
                raise StoreError(f"unsupported index version "
                                 f"{index.get('version')}")
            return index
        except (OSError, json.JSONDecodeError):
            return {"version": INDEX_VERSION, "entries": {},
                    "sources": [], "families": {}}

    def _save_index(self) -> None:
        tmp = self.root / f".index-{os.getpid()}.tmp"
        tmp.write_text(json.dumps(self._index, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.root / INDEX_FILE)

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        with self._mutex:
            return len(self._index["entries"])

    def entries(self) -> dict[str, dict]:
        """Key → index row for every stored waveform."""
        with self._mutex:
            return dict(self._index["entries"])

    def entry_meta(self, key: str) -> dict:
        with self._mutex:
            try:
                return dict(self._index["entries"][key])
            except KeyError:
                raise StoreError(f"unknown catalog key {key!r}") from None

    def has_source(self, source: str) -> bool:
        """Whether a provenance id (e.g. ``cache:<key>``) is indexed."""
        with self._mutex:
            return source in self._index["sources"]

    def stats(self) -> dict:
        """Index summary for the ``stats`` RPC and mission control."""
        with self._mutex:
            rows = list(self._index["entries"].values())
            families = len(self._index["families"])
            sources = len(self._index["sources"])
        qs = sorted(r["mass_ratio"] for r in rows)
        return {
            "entries": len(qs),
            "families": families,
            "sources": sources,
            "q_min": qs[0] if qs else None,
            "q_max": qs[-1] if qs else None,
            "bytes": sum(r.get("nbytes", 0) for r in rows),
        }

    # -- ingest ------------------------------------------------------------
    def add_waveform(self, mass_ratio: float, times, h22, *,
                     radius: float = float("inf"), resolution: int = 0,
                     spin: float | None = None, source: str = "model",
                     metadata: dict | None = None) -> str:
        """Persist one waveform and index it; returns its key.

        ``source`` is a provenance id (``model`` or ``cache:<key>``) —
        re-ingesting an already-indexed source is a no-op, which is what
        makes periodic ingest scans idempotent.
        """
        times = np.asarray(times, dtype=np.float64)
        h22 = np.asarray(h22, dtype=complex)
        if times.size < 2 or times.size != h22.size:
            raise StoreError("waveform needs >= 2 samples on a matching grid")
        if not (np.all(np.isfinite(times))
                and np.all(np.isfinite([h22.real, h22.imag]))):
            raise StoreError("waveform carries non-finite samples")
        q = float(mass_ratio)
        with self._mutex:
            key = f"q{q:.6g}_r{radius:g}_L{int(resolution)}"
            n = 1
            while (key in self._index["entries"]
                   and self._index["entries"][key]["source"] != source):
                n += 1
                key = f"q{q:.6g}_r{radius:g}_L{int(resolution)}.{n}"
            if key in self._index["entries"]:
                return key  # same source re-ingested: idempotent

            path = self.root / WAVEFORM_DIR / f"{key}.npz"
            save_modes(path, ModeTimeSeries(times, {(2, 2): h22}),
                       radius=float(radius),
                       metadata={"mass_ratio": q, "source": source,
                                 **(metadata or {})})

            self._index["entries"][key] = {
                "key": key,
                "mass_ratio": q,
                "spin": float(spin if spin is not None else remnant_spin(q)),
                "resolution": int(resolution),
                "radius": float(radius),
                "source": source,
                "family": _family_signature(times),
                "samples": int(times.size),
                "t0": float(times[0]),
                "t1": float(times[-1]),
                "dt": float(times[1] - times[0]),
                "nbytes": int(path.stat().st_size),
            }
            if source not in self._index["sources"]:
                self._index["sources"].append(source)
            self._order[key] = len(self._order)
            self._refresh_family(self._index["entries"][key]["family"],
                                 {key: h22})
            self._save_index()
            return key

    def _refresh_family(self, family: str, h22: dict) -> None:
        """Re-derive one family's q-ordering and adjacent mismatches
        (the stored "gaps" that price every interpolation plan) after an
        insert.  A gap depends on its two neighbours alone: pairs that
        were adjacent before keep their stored value and only the (at
        most two) next to the new entry, whose strain ``h22`` holds by
        key, are computed."""
        members = sorted(
            (r for r in self._index["entries"].values()
             if r["family"] == family),
            key=lambda r: r["mass_ratio"],
        )
        keys = [r["key"] for r in members]
        old = self._index["families"].get(family, {"keys": [], "gaps": []})
        known = dict(zip(zip(old["keys"], old["keys"][1:]), old["gaps"]))
        gaps = []
        for lo, hi in zip(members, members[1:]):
            gap = known.get((lo["key"], hi["key"]))
            if gap is None:
                a, b = (h22[k] if k in h22 else self.load_arrays(k)["h22"]
                        for k in (lo["key"], hi["key"]))
                gap = float(mismatch(a, b, lo["dt"]))
            gaps.append(gap)
        self._index["families"][family] = {"keys": keys, "gaps": gaps}
        self._set_table(family)

    def _set_table(self, family: str) -> None:
        rows = [self._index["entries"][k]
                for k in self._index["families"][family]["keys"]]
        self._tables[family] = ([r["mass_ratio"] for r in rows], rows)

    def ingest_model_catalog(self, catalog: WaveformCatalog) -> list[str]:
        """Seed/extend the store from an in-memory model catalog."""
        keys = []
        for e in catalog.entries:
            keys.append(self.add_waveform(
                e.mass_ratio, e.times, e.h22,
                spin=e.metadata.get("remnant_spin"),
                source=f"model:q{e.mass_ratio:.6g}",
                metadata=dict(e.metadata),
            ))
        return keys

    def ingest_cache(self, cache: ResultCache) -> dict:
        """Scan a campaign's :class:`ResultCache` for completed results
        carrying waveform arrays and index every new one.

        Entries without arrays (no extraction, resumed-attempt archive
        skip, torn array file — :meth:`ResultCache.arrays` returns None
        for all of these) are counted and skipped, never fatal.
        """
        report = {"ingested": 0, "already": 0, "skipped": 0, "keys": []}
        indexed = set(self._index["sources"])
        for entry in cache.iter_entries():
            source = f"cache:{entry.key}"
            if source in indexed:
                report["already"] += 1
                continue
            physics = entry.result.get("physics") or {}
            arrays = cache.arrays(entry.key) if entry.has_arrays else None
            if arrays is None or "times" not in arrays or not physics:
                report["skipped"] += 1
                continue
            radii = physics.get("extraction_radii") or []
            r = max(radii) if radii else None
            h22 = arrays.get(f"h22_r{r:g}") if r is not None else None
            if h22 is None or len(arrays["times"]) < 2:
                report["skipped"] += 1
                continue
            key = self.add_waveform(
                physics.get("mass_ratio", 1.0), arrays["times"], h22,
                radius=float(r), resolution=int(physics.get("max_level", 0)),
                source=source,
                metadata={"job": entry.result.get("job", ""),
                          "wave_source": physics.get("wave_source", ""),
                          "state_sha256": entry.result.get("state_sha256",
                                                           "")},
            )
            report["ingested"] += 1
            report["keys"].append(key)
        return report

    def ingest_campaign(self, campaign_root) -> dict:
        """Ingest a campaign directory (its ``cache/`` subdirectory)."""
        from repro.jobs.worker import CACHE_DIR

        return self.ingest_cache(
            ResultCache(pathlib.Path(campaign_root) / CACHE_DIR))

    # -- read path ---------------------------------------------------------
    def load_arrays(self, key: str) -> dict:
        """Decode one entry's arrays: ``{"times", "h22"}``.

        This is the expensive read the front's hot set and request
        coalescing exist to amortise.
        """
        meta = self.entry_meta(key)
        path = self.root / WAVEFORM_DIR / f"{key}.npz"
        try:
            t, modes, _, _ = load_mode_arrays(path)
            h = modes[(2, 2)]
        except Exception as exc:
            raise StoreError(f"catalog entry {key!r} unreadable: {exc}") \
                from exc
        if t.size != meta["samples"]:
            raise StoreError(f"catalog entry {key!r} torn: {t.size} samples "
                             f"on disk vs {meta['samples']} indexed")
        return {"times": t, "h22": h}

    def catalog_entry(self, key: str, arrays: dict | None = None) \
            -> CatalogEntry:
        """One entry as a :class:`CatalogEntry` (decodes its arrays
        unless they are given, as the front's hot set holds them)."""
        meta = self.entry_meta(key)
        arrays = self.load_arrays(key) if arrays is None else arrays
        return CatalogEntry(mass_ratio=meta["mass_ratio"],
                            times=arrays["times"], h22=arrays["h22"],
                            metadata=meta)

    # -- query planning ----------------------------------------------------
    def query_plan(self, mass_ratio: float, *,
                   radius: float | None = None,
                   resolution: int | None = None,
                   max_interp_mismatch: float | None = None) -> dict:
        """Decide how a query is served, from the index alone.

        Returns one of::

            {"outcome": "exact",  "key": k, "mismatch_bound": 0.0}
            {"outcome": "interp", "keys": [lo, hi], "weight": w,
             "mismatch_bound": gap}
            {"outcome": "miss",   "nearest": k|None, "q_range": [..]|None,
             "reason": "..."}

        ``mismatch_bound`` on an interpolation plan is the stored
        adjacent mismatch of the bracket — the error estimate the
        response carries and the admission test compares against the
        interpolation budget.
        """
        budget = (self.max_interp_mismatch if max_interp_mismatch is None
                  else float(max_interp_mismatch))
        q = float(mass_ratio)
        with self._mutex:
            return self._plan_locked(q, radius, resolution, budget)

    def _plan_locked(self, q, radius, resolution, budget) -> dict:
        def allowed(r: dict) -> bool:
            return ((radius is None or _isclose(r["radius"], radius))
                    and (resolution is None
                         or r["resolution"] == int(resolution)))

        def order(r: dict) -> int:  # ties go to the earliest index row
            return self._order[r["key"]]

        exact, best, walks = [], None, []
        for family, (qs, rows) in self._tables.items():
            n = len(qs)
            i = bisect.bisect_left(qs, q)  # qs[i-1] < q <= qs[i]
            sides = range(i, n), range(i - 1, -1, -1)  # away from q
            walks.append((qs, rows, sides))
            for side in sides:
                for j in side:
                    if not _isclose(qs[j], q):
                        break
                    exact.append(rows[j])
            # the one adjacent pair of this family that can bracket q
            if (0 < i < n and q < qs[i] and allowed(rows[i - 1])
                    and allowed(rows[i])):
                gap = self._index["families"][family]["gaps"][i - 1]
                if best is None or gap < best["mismatch_bound"]:
                    best = {
                        "outcome": "interp",
                        "keys": [rows[i - 1]["key"], rows[i]["key"]],
                        "weight": (q - qs[i - 1]) / (qs[i] - qs[i - 1]),
                        "mismatch_bound": float(gap),
                    }
        exact = [r for r in exact if allowed(r)]
        if exact:
            # prefer the highest resolution, then the largest radius
            hit = max(exact, key=lambda r: (r["resolution"], r["radius"],
                                            -order(r)))
            return {"outcome": "exact", "key": hit["key"],
                    "mismatch_bound": 0.0}
        if best is not None and best["mismatch_bound"] <= budget:
            return best

        near = []
        for qs, rows, sides in walks:
            for side in sides:
                near += _nearest_run(qs, rows, side, q, allowed)
        if not near:
            return {"outcome": "miss", "nearest": None, "q_range": None,
                    "reason": "empty catalog (after filters)"}
        near.sort(key=order)
        nearest = min(near, key=lambda r: abs(r["mass_ratio"] - q))
        # a family no allowed row is in offers ±inf, which never wins
        q_range = [
            min(next((x for x, r in zip(qs, rows) if allowed(r)), math.inf)
                for qs, rows in self._tables.values()),
            max(next((x for x, r in zip(reversed(qs), reversed(rows))
                      if allowed(r)), -math.inf)
                for qs, rows in self._tables.values()),
        ]
        reason = (
            f"bracket mismatch {best['mismatch_bound']:.4f} exceeds "
            f"budget {budget:.4f}" if best is not None
            else f"q = {q:g} outside covered range "
                 f"[{q_range[0]:g}, {q_range[1]:g}]"
        )
        return {"outcome": "miss", "nearest": nearest["key"],
                "q_range": q_range, "reason": reason}
