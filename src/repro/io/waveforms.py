"""Waveform catalog I/O.

NR groups publish extracted modes as catalogs (SXS, RIT, ... — paper
§I); this module persists :class:`repro.gw.ModeTimeSeries` records with
their extraction metadata as compressed ``.npz`` files and reloads them,
so runs can be compared across sessions (the Fig. 19/21 workflow).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.gw.extraction import ModeTimeSeries

FORMAT_VERSION = 1


def save_modes(path, series: ModeTimeSeries, *, radius: float,
               metadata: dict | None = None) -> None:
    """Persist one extraction sphere's mode time series (its ``times``
    and per-mode ``values`` may be lists or arrays alike)."""
    keys = sorted(series.values)
    meta = {
        "version": FORMAT_VERSION,
        "radius": radius,
        "modes": [[int(l), int(m)] for (l, m) in keys],
        "extra": metadata or {},
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "times": np.asarray(series.times, dtype=np.float64),
    }
    for i, key in enumerate(keys):
        arrays[f"mode_{i}"] = np.asarray(series.values[key], dtype=complex)
    np.savez_compressed(path, **arrays)


def load_mode_arrays(path) -> tuple[np.ndarray, dict, float, dict]:
    """(times, ``{(l, m): coefficients}``, radius, metadata) from a
    catalog file, as the arrays it stores."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported waveform file version "
                             f"{meta.get('version')}")
        times = data["times"]
        modes = {(l, m): data[f"mode_{i}"]
                 for i, (l, m) in enumerate(meta["modes"])}
    return times, modes, float(meta["radius"]), meta["extra"]


def load_modes(path) -> tuple[ModeTimeSeries, float, dict]:
    """(series, radius, metadata) from a catalog file."""
    times, modes, radius, extra = load_mode_arrays(path)
    series = ModeTimeSeries(times=list(times),
                            values={k: list(v) for k, v in modes.items()})
    return series, radius, extra


def save_extractor(directory, extractor, *, metadata: dict | None = None) -> list:
    """Persist every sphere of a WaveExtractor; returns written paths."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for radius, series in extractor.records.items():
        p = directory / f"modes_r{radius:g}.npz"
        save_modes(p, series, radius=radius, metadata=metadata)
        paths.append(p)
    return paths
