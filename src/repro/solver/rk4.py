"""Explicit Runge–Kutta time integration (paper §III-A: RK4, λ = 0.25)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.perf import NO_PROFILER, hot_path

#: classic RK4 Butcher tableau
RK4_A = (0.0, 0.5, 0.5, 1.0)
RK4_B = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


@hot_path
def rk4_step(
    rhs: Callable[..., np.ndarray],
    u: np.ndarray,
    t: float,
    dt: float,
    *,
    post_stage: Callable[[np.ndarray], None] | None = None,
    work=None,
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
                u2 = u + (0.5 * dt) * k1  # alloc-ok: allocating baseline path
            if post_stage is not None:
                post_stage(u2)
        with rk_stage(2):
            k2 = rhs(u2, t + 0.5 * dt)
            with axpy:
                u3 = u + (0.5 * dt) * k2  # alloc-ok: allocating baseline path
            if post_stage is not None:
                post_stage(u3)
        with rk_stage(3):
            k3 = rhs(u3, t + 0.5 * dt)
            with axpy:
                u4 = u + dt * k3  # alloc-ok: allocating baseline path
            if post_stage is not None:
                post_stage(u4)
        with rk_stage(4):
            k4 = rhs(u4, t + dt)
            with axpy:
                out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # alloc-ok
            if post_stage is not None:
                post_stage(out)
        return out

    # -- in-place path (same operation order → bitwise identical)
    k, ksum, stage, scratch = work.k, work.ksum, work.stage, work.scratch
    out = work.out_for(u)

    with rk_stage(1):
        rhs(u, t, out=ksum)  # ksum = k1
        with axpy:
            np.multiply(ksum, 0.5 * dt, out=scratch)
            np.add(u, scratch, out=stage)  # u2
        if post_stage is not None:
            post_stage(stage)
    with rk_stage(2):
        rhs(stage, t + 0.5 * dt, out=k)  # k2
        with axpy:
            np.multiply(k, 2.0, out=scratch)
            np.add(ksum, scratch, out=ksum)  # k1 + 2 k2
            np.multiply(k, 0.5 * dt, out=scratch)
            np.add(u, scratch, out=stage)  # u3
        if post_stage is not None:
            post_stage(stage)
    with rk_stage(3):
        rhs(stage, t + 0.5 * dt, out=k)  # k3
        with axpy:
            np.multiply(k, 2.0, out=scratch)
            np.add(ksum, scratch, out=ksum)  # + 2 k3
            np.multiply(k, dt, out=scratch)
            np.add(u, scratch, out=stage)  # u4
        if post_stage is not None:
            post_stage(stage)
    with rk_stage(4):
        rhs(stage, t + dt, out=k)  # k4
        with axpy:
            np.add(ksum, k, out=ksum)  # + k4
            np.multiply(ksum, dt / 6.0, out=scratch)
            np.add(u, scratch, out=out)
        if post_stage is not None:
            post_stage(out)
    return out


def courant_dt(min_dx: float, courant: float = 0.25) -> float:
    """Global timestep from the finest grid spacing (global timestepping,
    paper §III-A)."""
    return courant * min_dx
