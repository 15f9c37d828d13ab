"""Per-phase RK4 step timing (the paper's Fig. 20 breakdown).

One RK4 step is the Alg.-1 pipeline unzip → derivatives → RHS algebra →
boundary → zip → AXPY.  The solvers enter :class:`StepProfiler` context
managers around the matching code regions; the profiler keeps no
numbers of its own and routes each phase's time to telemetry instead:
wired to a :class:`repro.telemetry.Tracer` every step / RK4 stage /
phase is a nested span on the trace timeline, wired to a
:class:`repro.telemetry.MetricsRegistry` each step's phase times feed
the ``phase_seconds{phase}`` and ``step_seconds`` histograms and the
``steps_total`` counter.  The Fig.-20 table is
:func:`repro.telemetry.cli.phase_table` over a registry snapshot.

A profiler with neither costs nothing: ``phase``/``stage``/``region``
then return a single shared no-op context manager, so the hot path
pays one lookup, no allocation and no clock read.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

# Alg. 1 phases, in pipeline order (Fig. 20 of the paper).
PHASES = ("unzip", "deriv", "algebra", "boundary", "zip", "axpy")

#: span names of the four RK4 stages (pre-built: no f-string per call)
STAGE_NAMES = ("rk4.stage1", "rk4.stage2", "rk4.stage3", "rk4.stage4")

_NULL = nullcontext()


def span(tracer, name: str, cat: str = "region", args: dict | None = None):
    """``tracer.span(name, cat, args)``; the shared no-op context
    manager when ``tracer`` is None."""
    return _NULL if tracer is None else tracer.span(name, cat, args)


class _PhaseTimer:
    """Context manager timing one phase into the profiler's per-step
    accumulator and onto the trace timeline.

    One instance is shared per phase, so re-entrant / nested use of the
    same phase (``with prof.phase("zip"): ... with prof.phase("zip")``)
    must not clobber the outer start time: starts live on a stack, and
    every enter/exit pair accumulates its own duration (a nested pair
    therefore counts its slice twice — same-phase nesting is additive by
    design; see the regression test).
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
        if prof._acc is not None:
            prof._acc[self.phase] += dt
        if prof.tracer is not None:
            prof.tracer.end()
        return False


class StepProfiler:
    """Per-phase timer for the RK4 hot path, live when it has an enabled
    tracer or a registry.

    Parameters
    ----------
    tracer:
        Optional :class:`repro.telemetry.Tracer`; steps, RK4 stages and
        phases are then recorded as nested spans (a disabled tracer is
        not attached).
    metrics:
        Optional :class:`repro.telemetry.MetricsRegistry`; per-step
        phase times feed ``phase_seconds{phase}`` histograms,
        ``step_seconds`` and ``steps_total`` at every ``end_step``.
    """

    def __init__(self, *, tracer=None, metrics=None):
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.metrics = metrics
        #: the phase times of the step in progress (None without metrics)
        self._acc: dict[str, float] | None = None
        if metrics is not None:
            self._acc = dict.fromkeys(PHASES, 0.0)
            self._hists = {p: metrics.histogram("phase_seconds", phase=p)
                           for p in PHASES}
            self._step_hist = metrics.histogram("step_seconds")
        self._timers = ({p: _PhaseTimer(self, p) for p in PHASES}
                        if self.enabled else dict.fromkeys(PHASES, _NULL))
        self._step_t0 = 0.0

    @property
    def enabled(self) -> bool:
        """Whether anything records this profiler's phases."""
        return self.tracer is not None or self.metrics is not None

    def phase(self, name: str):
        """Context manager timing one Alg.-1 phase (``name`` in PHASES)."""
        return self._timers[name]

    def stage(self, i: int):
        """Context manager spanning RK4 stage ``i`` (1-based) on the
        trace timeline."""
        return span(self.tracer, STAGE_NAMES[i - 1], "stage")

    def region(self, name: str, args: dict | None = None):
        """Context manager spanning a non-phase region (regrid, halo
        exchange, checkpoint...) on the trace timeline."""
        return span(self.tracer, name, "region", args)

    def begin_step(self) -> None:
        if self.tracer is not None:
            self.tracer.begin("step", "step")
        if self._acc is not None:
            self._step_t0 = time.perf_counter()

    def end_step(self) -> None:
        if self.tracer is not None:
            self.tracer.end()
        acc = self._acc
        if acc is not None:
            self._step_hist.observe(time.perf_counter() - self._step_t0)
            for p in PHASES:
                self._hists[p].observe(acc[p])
                acc[p] = 0.0
            self.metrics.counter("steps_total").inc()


#: the shared null profiler: code on the step path always goes through
#: ``prof.phase(...)`` / ``prof.region(...)``, which here return one
#: cached no-op context manager
NO_PROFILER = StepProfiler()
