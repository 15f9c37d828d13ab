"""Model-waveform catalog construction.

The paper's motivation (§I) is the construction of NR waveform catalogs
(SXS, RIT, GaTech, CoRe) densely covering the binary parameter space.
This module builds a small catalog of model (2,2) waveforms over a grid
of mass ratios, persists it with :mod:`repro.io.waveforms`, and provides
the template-bank style diagnostics (pairwise mismatch matrix, coverage
gaps) used to decide where new simulations are needed.
"""

from __future__ import annotations

import pathlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.gw.compare import mismatch
from repro.gw.extraction import ModeTimeSeries
from repro.gw.waveform import IMRWaveform, qnm_frequency, remnant_spin


@dataclass
class CatalogEntry:
    """One catalog waveform with metadata."""
    mass_ratio: float
    times: np.ndarray
    h22: np.ndarray
    metadata: dict = field(default_factory=dict)


class InterpolationError(ValueError):
    """The requested point cannot be interpolated from this catalog —
    outside the covered range, no common time grid, or the bracketing
    entries disagree beyond the caller's mismatch budget."""


@dataclass
class WaveformCatalog:
    """A catalog of (2,2) model waveforms on a common time grid."""

    entries: list[CatalogEntry] = field(default_factory=list)
    #: entries rejected by :meth:`load` (corrupt file, wrong grid, ...)
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def mass_ratios(self) -> np.ndarray:
        """Mass ratios present in the catalog."""
        return np.array([e.mass_ratio for e in self.entries])

    def entry(self, q: float) -> CatalogEntry:
        """The entry with the given mass ratio."""
        for e in self.entries:
            if np.isclose(e.mass_ratio, q):
                return e
        raise KeyError(f"no catalog entry for q = {q}")

    def mismatch_matrix(self) -> np.ndarray:
        """Pairwise time/phase-maximised mismatches."""
        n = len(self.entries)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dt = self.entries[i].times[1] - self.entries[i].times[0]
                mm = mismatch(self.entries[i].h22, self.entries[j].h22, dt)
                out[i, j] = out[j, i] = mm
        return out

    def bracket(self, q: float) -> tuple[CatalogEntry, CatalogEntry]:
        """The adjacent catalog entries with ``q_lo <= q <= q_hi``.

        An exact match is returned as both ends of the bracket; a point
        outside the covered mass-ratio range raises
        :class:`InterpolationError`.
        """
        if not self.entries:
            raise InterpolationError("empty catalog")
        order = np.argsort(self.mass_ratios)
        ordered = [self.entries[i] for i in order]
        for e in ordered:
            if np.isclose(e.mass_ratio, q):
                return e, e
        if q < ordered[0].mass_ratio or q > ordered[-1].mass_ratio:
            raise InterpolationError(
                f"q = {q:g} outside catalog range "
                f"[{ordered[0].mass_ratio:g}, {ordered[-1].mass_ratio:g}]"
            )
        for lo, hi in zip(ordered, ordered[1:]):
            if lo.mass_ratio <= q <= hi.mass_ratio:
                return lo, hi
        raise InterpolationError(f"no bracket for q = {q:g}")  # unreachable

    def interpolate(self, q: float, *,
                    max_mismatch: float | None = None) -> CatalogEntry:
        """Linear parameter-space interpolation at mass ratio ``q``: the
        :func:`blend` of the two bracketing waveforms, with the
        time/phase-maximised mismatch of the bracket endpoints as its
        ``interpolation_mismatch_bound``.  For a family varying smoothly
        in q the interpolant cannot disagree with the true waveform by
        more than the bracket's own diameter (measured 0.0025 vs a bound
        of 0.024 for the model family at q = 1.5), so the bound is
        conservative.  ``max_mismatch`` turns it into an admission test:
        a wider bracket raises :class:`InterpolationError` — a coverage
        gap, where a simulation should be scheduled instead.
        """
        lo, hi = self.bracket(q)
        if lo is hi:
            return CatalogEntry(
                mass_ratio=lo.mass_ratio, times=lo.times, h22=lo.h22,
                metadata={**lo.metadata, "interpolated": False,
                          "interpolation_mismatch_bound": 0.0},
            )
        bound = float(mismatch(lo.h22, hi.h22,
                               float(lo.times[1] - lo.times[0])))
        if max_mismatch is not None and bound > max_mismatch:
            raise InterpolationError(
                f"bracket [{lo.mass_ratio:g}, {hi.mass_ratio:g}] mismatch "
                f"{bound:.4f} exceeds budget {max_mismatch:.4f}"
            )
        w = (q - lo.mass_ratio) / (hi.mass_ratio - lo.mass_ratio)
        return blend(lo, hi, q, w, bound)

    def coverage_gaps(self, threshold: float = 0.03) -> list[tuple[float, float]]:
        """Adjacent mass-ratio pairs whose mutual mismatch exceeds the
        bank threshold — where a new simulation is needed."""
        order = np.argsort(self.mass_ratios)
        mm = self.mismatch_matrix()
        gaps = []
        for a, b in zip(order, order[1:]):
            if mm[a, b] > threshold:
                gaps.append(
                    (self.entries[a].mass_ratio, self.entries[b].mass_ratio)
                )
        return gaps

    def save(self, directory) -> list[pathlib.Path]:
        """Persist every entry via the waveform I/O format."""
        from repro.io.waveforms import save_modes

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for e in self.entries:
            p = directory / f"q{e.mass_ratio:g}.npz"
            save_modes(p, ModeTimeSeries(e.times, {(2, 2): e.h22}),
                       radius=float("inf"),
                       metadata={"mass_ratio": e.mass_ratio, **e.metadata})
            paths.append(p)
        return paths

    @classmethod
    def load(cls, directory) -> "WaveformCatalog":
        """Load a catalog directory written by :meth:`save`.

        The directory layout is *not* trusted: a file that fails to
        parse (torn by a killed writer), lacks a (2,2) mode or a
        ``mass_ratio``, carries non-finite samples, or sits on a
        different time grid than the rest of the catalog is skipped
        with a warning and counted in :attr:`skipped` — mirroring the
        torn-line tolerance of the queue journals, so one corrupt entry
        never takes down a whole catalog.
        """
        from repro.io.waveforms import load_mode_arrays

        cat = cls()
        grid = None
        for p in sorted(pathlib.Path(directory).glob("q*.npz")):
            try:
                t, modes, _, meta = load_mode_arrays(p)
                h = modes[(2, 2)]
                q = float(meta["mass_ratio"])
            except Exception as exc:  # torn npz, missing mode/metadata
                cat.skipped += 1
                warnings.warn(f"skipping corrupt catalog entry {p.name}: "
                              f"{exc}", stacklevel=2)
                continue
            if (t.size < 2 or not np.all(np.isfinite(t))
                    or np.any(np.diff(t) <= 0)
                    or not np.all(np.isfinite([h.real, h.imag]))):
                cat.skipped += 1
                warnings.warn(f"skipping catalog entry {p.name}: "
                              "non-finite samples or bad time grid",
                              stacklevel=2)
                continue
            if grid is None:
                grid = t
            elif len(t) != len(grid) or not np.allclose(t, grid):
                cat.skipped += 1
                warnings.warn(
                    f"skipping catalog entry {p.name}: time grid "
                    f"({t.size} samples over [{t[0]:g}, {t[-1]:g}]) does "
                    "not match the catalog's common grid", stacklevel=2)
                continue
            cat.entries.append(
                CatalogEntry(mass_ratio=q, times=t, h22=h, metadata=meta)
            )
        return cat


def blend(lo: CatalogEntry, hi: CatalogEntry, q: float, weight: float,
          bound: float) -> CatalogEntry:
    """``(1 − weight)·lo + weight·hi`` at ``q`` on the pair's shared time
    grid, with ``bound`` (the pair's mismatch) as its error estimate —
    computed by :meth:`WaveformCatalog.interpolate`, read from the index
    plan by the serve front."""
    if len(lo.times) != len(hi.times) or not np.allclose(lo.times, hi.times):
        raise InterpolationError(
            f"entries q = {lo.mass_ratio:g} and q = {hi.mass_ratio:g} "
            "do not share a time grid"
        )
    return CatalogEntry(
        mass_ratio=float(q), times=lo.times,
        h22=(1.0 - weight) * lo.h22 + weight * hi.h22,
        metadata={
            "interpolated": True,
            "bracket": [float(lo.mass_ratio), float(hi.mass_ratio)],
            "bracket_weight": float(weight),
            "interpolation_mismatch_bound": float(bound),
        },
    )


def build_model_catalog(
    mass_ratios=(1.0, 2.0, 4.0, 8.0),
    *,
    t_merge: float = 150.0,
    duration: float = 220.0,
    samples: int = 4096,
) -> WaveformCatalog:
    """Generate a model catalog over a grid of mass ratios."""
    t = np.linspace(0.0, duration, samples)
    cat = WaveformCatalog()
    for q in mass_ratios:
        wf = IMRWaveform(mass_ratio=float(q), t_merge=t_merge)
        cat.entries.append(
            CatalogEntry(
                mass_ratio=float(q),
                times=t,
                h22=wf.h(t),
                metadata={
                    "remnant_spin": float(remnant_spin(q)),
                    "qnm_re": float(qnm_frequency(q).real),
                },
            )
        )
    return cat
