"""Wave extraction on spheres (paper §III-A, Fig. 4).

Extraction spheres sit between 50 and 100 M; a field sampled on each
sphere is projected onto (spin-weighted) spherical-harmonic modes by
quadrature:

    C_{lm}(t, R) = ∮ f(R, θ, φ) {}_sY*_{lm}(θ, φ) dΩ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lebedev import SphereRule, gauss_legendre_rule
from .swsh import spin_weighted_ylm


@dataclass
class ExtractionSphere:
    """One extraction sphere with a fixed quadrature rule."""

    radius: float
    rule: SphereRule = field(default_factory=lambda: gauss_legendre_rule(12))
    #: (l, m, s) → conjugate harmonic on the rule's fixed points
    _basis: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def points(self) -> np.ndarray:
        """Cartesian sample points, shape (n, 3)."""
        return self.radius * self.rule.points

    def mode(self, f_vals: np.ndarray, l: int, m: int, s: int = 0) -> complex:
        """Project samples onto one (l, m) mode."""
        if (l, m, s) not in self._basis:
            self._basis[l, m, s] = np.conj(spin_weighted_ylm(
                s, l, m, self.rule.theta, self.rule.phi))
        return self.rule.integrate(f_vals * self._basis[l, m, s])

    def modes(self, f_vals: np.ndarray, l_max: int, s: int = 0) -> dict:
        """All modes with |s| <= l <= l_max."""
        out = {}
        for l in range(abs(s), l_max + 1):
            for m in range(-l, l + 1):
                out[(l, m)] = self.mode(f_vals, l, m, s)
        return out


@dataclass
class ModeTimeSeries:
    """Accumulated mode coefficients over an evolution."""

    times: list[float] = field(default_factory=list)
    values: dict[tuple[int, int], list[complex]] = field(default_factory=dict)

    def append(self, t: float, modes: dict) -> None:
        """Record the modes extracted at time ``t``."""
        self.times.append(t)
        for key, v in modes.items():
            self.values.setdefault(key, []).append(v)

    def series(self, l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, complex coefficients) of one (l, m) mode."""
        return np.asarray(self.times), np.asarray(self.values[(l, m)])


class WaveExtractor:
    """Samples a mesh field on extraction spheres and records modes.

    Works for both the scalar wave solver (s = 0, φ field) and BSSN Ψ₄
    (s = −2, complex field from re/im parts).
    """

    def __init__(
        self,
        radii: list[float],
        *,
        l_max: int = 2,
        s: int = 0,
        rule: SphereRule | None = None,
    ):
        if rule is None:
            rule = gauss_legendre_rule(max(8, 2 * l_max + 2))
        self.spheres = [ExtractionSphere(r, rule) for r in radii]
        self.l_max = l_max
        self.s = s
        self.records = {r: ModeTimeSeries() for r in radii}

    def sample(self, mesh, fields, t: float) -> None:
        """``fields``: one real array (n,r,r,r) or (re, im) tuple."""
        for sph in self.spheres:
            pts = sph.points
            if isinstance(fields, tuple):
                re = mesh.interpolate_to_points(fields[0], pts)
                im = mesh.interpolate_to_points(fields[1], pts)
                vals = re + 1j * im
            else:
                vals = mesh.interpolate_to_points(fields, pts).astype(complex)
            self.records[sph.radius].append(
                t, sph.modes(vals, self.l_max, self.s)
            )

    def series(self, radius: float, l: int, m: int):
        """(times, complex coefficients) of one (l, m) mode."""
        return self.records[radius].series(l, m)
