"""Explicit Runge–Kutta time integration (paper §III-A: RK4, λ = 0.25)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.perf import NO_PROFILER

#: classic RK4 Butcher tableau
RK4_A = (0.0, 0.5, 0.5, 1.0)
RK4_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def combine_stage(form: int, u: np.ndarray, k: np.ndarray, ksum: np.ndarray,
                  out: np.ndarray, c: float, scratch: np.ndarray) -> None:
    """One stage combine of the in-place RK4 step, through ``scratch``:

    * form 1: ``out = u + k·c`` (stage 1, with ``k`` the k₁ in ``ksum``);
    * form 2: ``ksum = ksum + k·2``, then ``out = u + k·c`` (stages 2, 3);
    * form 3: ``ksum = ksum + k``, then ``out = u + ksum·c`` (stage 4).

    The NumPy execution, and the oracle of a compiled kernel's
    ``rk4_combine``, which runs the same operations element by element.
    """
    if form == 2:
        np.multiply(k, 2.0, out=scratch)
        np.add(ksum, scratch, out=ksum)
    elif form == 3:
        np.add(ksum, k, out=ksum)
        k = ksum
    np.multiply(k, c, out=scratch)
    np.add(u, scratch, out=out)


def rk4_step(
    rhs: Callable[..., np.ndarray],
    u: np.ndarray,
    t: float,
    dt: float,
    *,
    post_stage: Callable[[np.ndarray], None] | None = None,
    work=None,
    combine=None,
    profiler=NO_PROFILER,
) -> np.ndarray:
    """One classic RK4 step; ``post_stage`` (e.g. algebraic-constraint
    enforcement) is applied to every intermediate stage state and to the
    result.

    With ``work`` (a :class:`repro.perf.RK4Workspace`) the step runs in
    place: ``rhs`` must then accept ``out=`` and the stage arrays, the
    k-accumulator, and the returned state all live in the workspace's
    preallocated buffers (AXPY phase of Alg. 1, zero allocations).  The
    in-place path performs the identical sequence of elementwise
    operations as the allocating path, so results are bitwise equal.
    Each of its stages ends in one :func:`combine_stage`, or in
    ``combine(form, u, k, ksum, out, c)`` — a compiled kernel's
    ``rk4_combine``, the same operations in one native pass — unless
    that returns False for arrays it cannot take.
    ``profiler`` (a :class:`repro.perf.StepProfiler`) times the RK
    arithmetic under its ``axpy`` phase and, when wired to a telemetry
    tracer, spans each of the four stages on the trace timeline.
    """
    axpy = profiler.phase("axpy")
    rk_stage = profiler.stage

    if work is None:
        with rk_stage(1):
            k1 = rhs(u, t)
            with axpy:
                u2 = u + (0.5 * dt) * k1
            if post_stage is not None:
                post_stage(u2)
        with rk_stage(2):
            k2 = rhs(u2, t + 0.5 * dt)
            with axpy:
                u3 = u + (0.5 * dt) * k2
            if post_stage is not None:
                post_stage(u3)
        with rk_stage(3):
            k3 = rhs(u3, t + 0.5 * dt)
            with axpy:
                u4 = u + dt * k3
            if post_stage is not None:
                post_stage(u4)
        with rk_stage(4):
            k4 = rhs(u4, t + dt)
            with axpy:
                out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if post_stage is not None:
                post_stage(out)
        return out

    # -- in-place path (same operation order → bitwise identical)
    k, ksum, stage, scratch = work.k, work.ksum, work.stage, work.scratch
    out = work.out_for(u)
    src = u
    # (time, k buffer, combine form, c, stage state): k1 accumulates in
    # ksum, k2..k4 land in k
    for n, (ts, kn, form, c, dst) in enumerate((
            (t, ksum, 1, 0.5 * dt, stage),
            (t + 0.5 * dt, k, 2, 0.5 * dt, stage),
            (t + 0.5 * dt, k, 2, dt, stage),
            (t + dt, k, 3, dt / 6.0, out)), 1):
        with rk_stage(n):
            rhs(src, ts, out=kn)
            with axpy:
                if combine is None or not combine(form, u, kn, ksum, dst, c):
                    combine_stage(form, u, kn, ksum, dst, c, scratch)
            if post_stage is not None:
                post_stage(dst)
        src = dst
    return out


def courant_dt(min_dx: float, courant: float = 0.25) -> float:
    """Global timestep from the finest grid spacing (global timestepping,
    paper §III-A)."""
    return courant * min_dx
