"""Per-phase RK4 step timing (the paper's Fig. 20 breakdown).

One RK4 step is the Alg.-1 pipeline unzip → derivatives → RHS algebra →
boundary → zip → AXPY.  :class:`StepProfiler` times each phase with
``perf_counter`` context managers the solvers enter around the matching
code regions, and accumulates totals per phase and per step.

Since the telemetry PR the profiler is a thin adapter over
:mod:`repro.telemetry`: wired to a :class:`repro.telemetry.Tracer` it
emits every step / RK4 stage / phase as a nested span on the trace
timeline, wired to a :class:`repro.telemetry.MetricsRegistry` it feeds
per-phase latency *histograms* (``phase_seconds{phase}`` /
``step_seconds``).  ``summary()`` and ``report()`` read the running
totals and are byte-compatible with the pre-telemetry profiler.

The profiler is opt-in and designed to cost nothing when disabled: the
``phase``/``step``/``stage`` methods then return a single shared no-op
context manager, so the hot path pays one attribute check and no
allocation.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

# Alg. 1 phases, in pipeline order (Fig. 20 of the paper).
PHASES = ("unzip", "deriv", "algebra", "boundary", "zip", "axpy")

#: span names of the four RK4 stages (pre-built: no f-string per call)
STAGE_NAMES = ("rk4.stage1", "rk4.stage2", "rk4.stage3", "rk4.stage4")

_NULL = nullcontext()


class _PhaseTimer:
    """Context manager accumulating wall time into one phase bucket.

    One instance is shared per phase, so re-entrant / nested use of the
    same phase (``with prof.phase("zip"): ... with prof.phase("zip")``)
    must not clobber the outer start time: starts live on a stack, and
    every enter/exit pair accumulates its own duration (a nested pair
    therefore counts its slice twice in the bucket — same-phase nesting
    is additive by design; see the regression test).
    """

    __slots__ = ("profiler", "phase", "_t0s")

    def __init__(self, profiler: "StepProfiler", phase: str):
        self.profiler = profiler
        self.phase = phase
        self._t0s: list[float] = []

    def __enter__(self):
        tracer = self.profiler.tracer
        if tracer is not None:
            tracer.begin(self.phase, "phase")
        self._t0s.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0s.pop()
        prof = self.profiler
        prof.totals[self.phase] += dt
        acc = prof._step_acc
        if acc is not None:
            acc[self.phase] += dt
        if prof.tracer is not None:
            prof.tracer.end()
        return False


class StepProfiler:
    """Opt-in per-phase timer for the RK4 hot path.

    Parameters
    ----------
    enabled:
        When ``False`` every ``phase``/``step``/``stage`` call returns a
        shared no-op context manager (sub-2% overhead on a full step).
    tracer:
        Optional :class:`repro.telemetry.Tracer`; steps, RK4 stages and
        phases are then recorded as nested spans.
    metrics:
        Optional :class:`repro.telemetry.MetricsRegistry`; per-step
        phase times feed ``phase_seconds{phase}`` histograms and
        ``step_seconds`` at every ``end_step``.
    """

    def __init__(self, enabled: bool = True, *, tracer=None, metrics=None):
        self.enabled = enabled
        self.tracer = tracer if (enabled and tracer is not None
                                 and tracer.enabled) else None
        self.metrics = metrics if enabled else None
        self.totals: dict[str, float] = {p: 0.0 for p in PHASES}
        self.steps = 0
        self.step_time = 0.0
        self._timers = {p: _PhaseTimer(self, p) for p in PHASES}
        self._step_t0 = 0.0
        #: per-step phase accumulator feeding the histograms (None
        #: without metrics — the phase exit path then skips it)
        self._step_acc: dict[str, float] | None = None
        if self.metrics is not None:
            self._step_acc = {p: 0.0 for p in PHASES}
            self._hists = {p: metrics.histogram("phase_seconds", phase=p)
                           for p in PHASES}
            self._step_hist = metrics.histogram("step_seconds")

    # -- recording -----------------------------------------------------
    def phase(self, name: str):
        """Context manager timing one Alg.-1 phase (``name`` in PHASES)."""
        if not self.enabled:
            return _NULL
        return self._timers[name]

    def stage(self, i: int):
        """Context manager spanning RK4 stage ``i`` (1-based) on the
        trace timeline; a no-op without a tracer."""
        if self.tracer is None:
            return _NULL
        return self.tracer.span(STAGE_NAMES[i - 1], "stage")

    def region(self, name: str, args: dict | None = None):
        """Context manager spanning a non-phase region (regrid, halo
        exchange, checkpoint...) on the trace timeline."""
        if self.tracer is None:
            return _NULL
        return self.tracer.span(name, "region", args)

    def begin_step(self) -> None:
        if self.enabled:
            if self.tracer is not None:
                self.tracer.begin("step", "step")
            self._step_t0 = time.perf_counter()

    def end_step(self) -> None:
        if not self.enabled:
            return
        dt = time.perf_counter() - self._step_t0
        self.step_time += dt
        self.steps += 1
        if self.tracer is not None:
            self.tracer.end()
        acc = self._step_acc
        if acc is not None:
            for p in PHASES:
                self._hists[p].observe(acc[p])
                acc[p] = 0.0
            self._step_hist.observe(dt)
            self.metrics.counter("steps_total").inc()

    def reset(self) -> None:
        for p in PHASES:
            self.totals[p] = 0.0
        self.steps = 0
        self.step_time = 0.0
        if self._step_acc is not None:
            self._step_acc = {p: 0.0 for p in PHASES}

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict:
        """Totals, per-step means, and phase fractions as a plain dict."""
        phase_total = sum(self.totals.values())
        steps = max(self.steps, 1)
        return {
            "steps": self.steps,
            "step_time": self.step_time,
            "phase_total": phase_total,
            "phases": {
                p: {
                    "total": self.totals[p],
                    "per_step": self.totals[p] / steps,
                    "fraction": (self.totals[p] / phase_total) if phase_total else 0.0,
                }
                for p in PHASES
            },
        }

    def report(self) -> str:
        """Fig.-20-style text table of the per-phase breakdown."""
        s = self.summary()
        lines = [
            f"StepProfiler: {self.steps} steps, "
            f"{self.step_time:.3f} s total "
            f"({self.step_time / max(self.steps, 1):.3f} s/step)",
            f"{'phase':<10} {'total [s]':>10} {'per-step [s]':>13} {'share':>7}",
        ]
        for p in PHASES:
            ph = s["phases"][p]
            lines.append(
                f"{p:<10} {ph['total']:>10.4f} {ph['per_step']:>13.5f} "
                f"{ph['fraction'] * 100:>6.1f}%"
            )
        return "\n".join(lines)


#: the shared disabled profiler: code on the step path always goes
#: through ``prof.phase(...)`` / ``prof.region(...)``, which here return
#: one cached no-op context manager
NO_PROFILER = StepProfiler(enabled=False)
