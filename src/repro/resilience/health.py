"""Per-step solution health checks (guarded stepping, blowup detection).

Long BBH evolutions die from a handful of recognisable symptoms: NaN/Inf
bursts from an under-resolved puncture, det(γ̃) drifting away from the
algebraic constraint, and a Hamiltonian-constraint norm growing without
bound.  :class:`HealthMonitor` scans for all three each step so the
supervisor (:class:`repro.resilience.SupervisedRun`) can roll back before
a bad state propagates.

The scans run every step beside the solver's, so the two array passes
(:func:`state_max_abs`, :func:`det_gt_drift`) take the solver's arena
``pool``: every intermediate goes through an ``out=`` ufunc into a
pooled scratch buffer, and a warm scan allocates no array (measured
with ``tracemalloc`` in ``tests/test_backends.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bssn import state as S


def state_max_abs(u: np.ndarray, *, pool=None) -> float:
    """max |u| over the whole state; NaN-propagating, so a single NaN or
    Inf anywhere yields a non-finite result (one fused detection pass)."""
    if pool is None:
        scratch = np.empty(u.shape)
    else:
        scratch = pool.get("health.abs", u.shape)
    np.abs(u, out=scratch)
    return float(np.max(scratch))


def det_gt_drift(u: np.ndarray, *, pool=None) -> float:
    """max |det(γ̃) − 1| of a BSSN state (pooled, allocation-free).

    The conformal metric is evolved with the unit-determinant algebraic
    constraint enforced after every RK stage, so any drift beyond
    roundoff signals the solve is leaving the constraint surface.
    Returns NaN when the metric itself contains NaNs (caught separately
    by :func:`state_max_abs`).
    """
    shp = u.shape[1:]

    def buf(name):
        if pool is None:
            return np.empty(shp)
        return pool.get(f"health.{name}", shp)

    gt = u[S.GT_SYM_SLICE]
    g00, g01, g02, g11, g12, g22 = gt
    ta, tb, det = buf("ta"), buf("tb"), buf("det")
    # det = g00 (g11 g22 − g12²) − g01 (g01 g22 − g12 g02)
    #       + g02 (g01 g12 − g11 g02)
    np.multiply(g11, g22, out=ta)
    np.multiply(g12, g12, out=tb)
    np.subtract(ta, tb, out=ta)
    np.multiply(g00, ta, out=det)
    np.multiply(g01, g22, out=ta)
    np.multiply(g12, g02, out=tb)
    np.subtract(ta, tb, out=ta)
    np.multiply(g01, ta, out=ta)
    np.subtract(det, ta, out=det)
    np.multiply(g01, g12, out=ta)
    np.multiply(g11, g02, out=tb)
    np.subtract(ta, tb, out=ta)
    np.multiply(g02, ta, out=ta)
    np.add(det, ta, out=det)
    np.subtract(det, 1.0, out=det)
    np.abs(det, out=det)
    return float(np.max(det))


@dataclass
class HealthReport:
    """Outcome of one scan: measured values and the checks that failed."""

    ok: bool = True
    values: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def fail(self, check: str, value: float) -> None:
        self.ok = False
        self.failures.append(check)
        self.values[check] = value

    def note(self, check: str, value: float) -> None:
        self.values[check] = value


class HealthMonitor:
    """Configurable per-step health scan for evolution states.

    Parameters
    ----------
    max_abs:
        Blowup threshold on max |u|; a non-finite maximum (NaN/Inf
        anywhere in the state) always fails regardless of this value.
    det_tol:
        Allowed |det(γ̃) − 1| drift.  Only applied to 24-variable BSSN
        states (the check is meaningless for e.g. the 2-dof wave state);
        set ``det_every=0`` to disable.
    det_every / constraint_every:
        Cadence (in steps) of the determinant and Hamiltonian-constraint
        scans; 0 disables.  The constraint scan calls the solver's
        ``constraints()`` (a full extra unzip + derivative sweep), so it
        defaults off and is meant for coarse cadences.
    ham_limit / ham_growth:
        Absolute ceiling on ``ham_l2`` and allowed growth factor over the
        first recorded value.
    """

    def __init__(
        self,
        *,
        max_abs: float = 1e8,
        det_tol: float = 1e-6,
        det_every: int = 1,
        constraint_every: int = 0,
        ham_limit: float = float("inf"),
        ham_growth: float = float("inf"),
    ):
        self.max_abs = float(max_abs)
        self.det_tol = float(det_tol)
        self.det_every = int(det_every)
        self.constraint_every = int(constraint_every)
        self.ham_limit = float(ham_limit)
        self.ham_growth = float(ham_growth)
        self._ham_baseline: float | None = None

    def _scan_array(self, u: np.ndarray, report: HealthReport, pool) -> None:
        m = state_max_abs(u, pool=pool)
        if not math.isfinite(m):
            report.fail("nonfinite", m)
        elif m > self.max_abs:
            report.fail("max-abs", m)
        else:
            report.note("max-abs", m)

    def scan(self, state, *, step: int = 0, pool=None, solver=None) -> HealthReport:
        """Scan one state (ndarray, or a list of per-rank arrays).

        ``pool`` is the solver's :class:`repro.perf.BufferPool` so the
        scan reuses warm scratch; ``solver`` enables the periodic
        Hamiltonian-constraint check.
        """
        report = HealthReport()
        arrays = state if isinstance(state, (list, tuple)) else [state]
        for u in arrays:
            self._scan_array(u, report, pool)
        if (
            report.ok
            and self.det_every
            and step % self.det_every == 0
        ):
            for u in arrays:
                if u.shape[0] == S.NUM_VARS:
                    drift = det_gt_drift(u, pool=pool)
                    if not (drift <= self.det_tol):
                        report.fail("det-drift", drift)
                    else:
                        report.note("det-drift", drift)
        if (
            report.ok
            and self.constraint_every
            and solver is not None
            and hasattr(solver, "constraints")
            and step % self.constraint_every == 0
        ):
            ham = float(solver.constraints()["ham_l2"])
            report.note("ham_l2", ham)
            if self._ham_baseline is None:
                self._ham_baseline = ham
            if not math.isfinite(ham) or ham > self.ham_limit:
                report.fail("ham-limit", ham)
            elif ham > self.ham_growth * self._ham_baseline:
                report.fail("ham-growth", ham)
        return report
