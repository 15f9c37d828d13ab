"""Guarded evolution driver: rollback, retry, degrade, checkpoint, resume.

:class:`SupervisedRun` wraps any solver exposing the stepping protocol
(``state``, ``t``, ``step_count``, ``courant``, ``dt``, ``step()``) — the
BSSN and wave solvers, and the rank-parallel
:class:`repro.parallel.DistributedSolver` around either, which reads
all of these through to the solver it wraps.  Around every step it:

1. snapshots the last-good state into pool-backed buffers
   (:meth:`repro.solver.BSSNSolver.snapshot_state` reuses the solver's
   own :class:`repro.perf.BufferPool`);
2. steps, then runs the :class:`repro.resilience.HealthMonitor` scan;
3. on a failed scan — or a :class:`RankDeadError` /
   :class:`HaloExchangeError` / ``FloatingPointError`` escaping the
   step — rolls back to the snapshot and drains in-flight messages.
   Health failures (NaN, constraint blowup) retry at halved dt — retry
   *k* runs at ``courant · dt_factor^k``, a bounded exponential backoff;
   transient communication failures (rank death, lost halo) retry at
   the same dt, since the fault is external to the integration;
4. after ``max_retries`` failures degrades per policy: ``abort``
   (structured :class:`EvolutionAborted`), ``coarsen`` (the reduced dt
   becomes permanent and retries restart), or ``flag`` (the step is
   accepted as-is and recorded);
5. heals: after ``heal_after`` consecutive healthy steps a temporarily
   reduced Courant factor doubles back toward its original value.

Every decision lands in the JSONL :class:`repro.resilience.RunJournal`;
checkpoints are written atomically on a step cadence with ``keep=N``
rotation, and :meth:`SupervisedRun.resume` restarts from the newest
*valid* checkpoint in a directory (corrupt files are skipped with
warnings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.comm import RankDeadError
from repro.parallel.halo import HaloExchangeError
from .health import HealthMonitor
from .journal import RunJournal, summarize

#: naming convention for supervisor-written checkpoints
CHECKPOINT_FMT = "chk_{step:08d}.npz"
CHECKPOINT_GLOB = "chk_*.npz"

#: exceptions treated as recoverable step failures
RECOVERABLE = (FloatingPointError, RankDeadError, HaloExchangeError)

#: recoverable failures that are *transient* (external, not dt-related):
#: the retry reruns the step at the same dt instead of halving it
TRANSIENT = (RankDeadError, HaloExchangeError)


@dataclass
class RetryPolicy:
    """How a supervised run responds to failed steps.

    ``dt_factor`` multiplies the Courant factor on every rollback (0.5 =
    halve dt); ``max_retries`` bounds the rollback/retry attempts per
    step; ``min_courant_factor`` is the absolute floor (relative to the
    initial Courant factor) below which the run aborts regardless of the
    degrade mode; ``heal_after`` healthy steps restore one halving.
    ``degrade`` is the policy once retries are exhausted:
    ``'abort'`` | ``'coarsen'`` | ``'flag'``.
    """

    max_retries: int = 4
    dt_factor: float = 0.5
    min_courant_factor: float = 2.0**-6
    heal_after: int = 8
    degrade: str = "abort"

    def __post_init__(self):
        if self.degrade not in ("abort", "coarsen", "flag"):
            raise ValueError("degrade must be 'abort', 'coarsen', or 'flag'")
        if not 0.0 < self.dt_factor < 1.0:
            raise ValueError("dt_factor must be in (0, 1)")


class EvolutionAborted(RuntimeError):
    """A supervised run gave up; carries the structured final report."""

    def __init__(self, report: dict):
        super().__init__(
            f"evolution aborted at t={report.get('t')}, "
            f"step {report.get('step_count')}: {report.get('reason')}"
        )
        self.report = report


class _Snapshot:
    """Value snapshot of a solver's restorable state (pool-backed)."""

    __slots__ = ("state", "t", "step_count")

    def __init__(self):
        self.state: np.ndarray | None = None
        self.t = 0.0
        self.step_count = 0


class SupervisedRun:
    """Run a solver to completion under health guards and checkpoints.

    Parameters
    ----------
    solver:
        Any stepping solver (see module docstring for the protocol).
    monitor / policy / journal:
        Defaults: a stock :class:`HealthMonitor`, a stock
        :class:`RetryPolicy`, and an in-memory journal.  Pass a
        ``RunJournal(path)`` to persist the JSONL log.
    checkpoint_dir / checkpoint_every / keep:
        When set, an atomic validated checkpoint is written every
        ``checkpoint_every`` steps (and at the end of :meth:`run`),
        keeping the newest ``keep`` files.
    injector:
        Optional :class:`repro.resilience.FaultInjector`; fired after
        every step, before the health scan (test/CI harness hook).
    preempt_check:
        Optional zero-argument callable polled before every step of
        :meth:`run`.  When it returns truthy the run checkpoints (if a
        ``checkpoint_dir`` is configured), journals a ``preempted``
        event, and returns its report early with ``preempted=True`` and
        the checkpoint path — the campaign scheduler
        (:mod:`repro.jobs`) uses this to yield a worker to a
        higher-priority job and later resume from the checkpoint.
    telemetry:
        Optional :class:`repro.telemetry.TelemetrySink`.  The journal's
        recovery events are mirrored into its unified event stream
        (rollbacks land on the Perfetto timeline), solvers carrying a
        ``telemetry`` attribute (the distributed driver) are pointed at
        the sink, a solver without a live profiler gets one wired to the
        sink's tracer/metrics, and :meth:`run` samples the solver on the
        sink's cadence.
    """

    def __init__(
        self,
        solver,
        *,
        monitor: HealthMonitor | None = None,
        policy: RetryPolicy | None = None,
        journal: RunJournal | None = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        keep: int = 3,
        injector=None,
        telemetry=None,
        preempt_check=None,
    ):
        self.solver = solver
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self.policy = policy if policy is not None else RetryPolicy()
        self.journal = journal if journal is not None else RunJournal()
        self.telemetry = telemetry
        if telemetry is not None:
            if self.journal.sink is None:
                self.journal.sink = telemetry
            if hasattr(solver, "telemetry") and solver.telemetry is None:
                solver.telemetry = telemetry
            prof = getattr(solver, "profiler", None)
            if prof is None or not getattr(prof, "enabled", False):
                if hasattr(solver, "profiler"):
                    solver.profiler = telemetry.profiler()
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.keep = int(keep)
        self.injector = injector
        self.preempt_check = preempt_check
        self._snap = _Snapshot()
        self._base_courant = float(solver.courant)
        self._good_streak = 0
        self.rollbacks = 0
        self.flagged_steps: list[int] = []

    # -- solver state plumbing -----------------------------------------
    def _pool(self):
        ws = getattr(self.solver, "_workspace", None)
        return ws.pool if ws is not None else None

    def _take_snapshot(self) -> None:
        solver, snap = self.solver, self._snap
        if hasattr(solver, "snapshot_state"):
            snap.state = solver.snapshot_state()
        else:
            if snap.state is None or snap.state.shape != solver.state.shape:
                snap.state = np.empty_like(solver.state)
            np.copyto(snap.state, solver.state)
        snap.t = solver.t
        snap.step_count = solver.step_count

    def _rollback(self) -> None:
        if hasattr(self.solver, "restore_state"):
            self.solver.restore_state(self._snap.state)
        else:
            np.copyto(self.solver.state, self._snap.state)
        self.solver.t = self._snap.t
        self.solver.step_count = self._snap.step_count
        comm = getattr(self.solver, "comm", None)
        if comm is not None and hasattr(comm, "drain"):
            comm.drain()  # discard in-flight messages of the failed step

    # -- guarded stepping ----------------------------------------------
    def _attempt(self) -> tuple[bool, list[str], bool]:
        """One step + injection + scan.

        Returns ``(healthy, failure reasons, transient)``; transient
        failures (rank death, lost halo) retry at the same dt, while
        health failures (NaN, constraint blowup) halve dt on retry.
        """
        try:
            self.solver.step()
            if self.injector is not None:
                event = self.injector.maybe_corrupt(
                    self.solver.state, self.solver.step_count
                )
                if event is not None:
                    self.journal.event("fault-injected", **event)
        except TRANSIENT as exc:
            return False, [f"{type(exc).__name__}: {exc}"], True
        except RECOVERABLE as exc:
            return False, [f"{type(exc).__name__}: {exc}"], False
        report = self.monitor.scan(
            self.solver.state,
            step=self.solver.step_count,
            pool=self._pool(),
            solver=self.solver,
        )
        return report.ok, list(report.failures), False

    def step(self) -> None:
        """Advance one supervised step (rollback/retry on failure)."""
        solver, policy = self.solver, self.policy
        self._take_snapshot()
        attempt = 0
        while True:
            ok, reasons, transient = self._attempt()
            if ok:
                break
            attempt += 1
            self.rollbacks += 1
            self._rollback()
            if attempt > policy.max_retries:
                if policy.degrade == "flag":
                    # accept the failed step as-is, visibly marked
                    self.journal.event(
                        "flagged-step", step=solver.step_count + 1,
                        reasons=reasons,
                    )
                    self.flagged_steps.append(solver.step_count + 1)
                    ok, _ = self._attempt_unchecked()
                    break
                if (
                    policy.degrade == "coarsen"
                    and solver.courant
                    > self._base_courant * policy.min_courant_factor
                ):
                    # the current (reduced) dt becomes the new baseline
                    self._base_courant = float(solver.courant)
                    attempt = 0
                    self.journal.event(
                        "degrade-coarsen", courant=solver.courant,
                        reasons=reasons,
                    )
                    continue
                report = self._abort_report(reasons)
                self.journal.event("abort", **report)
                raise EvolutionAborted(report)
            if not transient:
                new_courant = solver.courant * policy.dt_factor
                if new_courant < self._base_courant * policy.min_courant_factor:
                    report = self._abort_report(
                        reasons + ["courant below min_courant_factor floor"]
                    )
                    self.journal.event("abort", **report)
                    raise EvolutionAborted(report)
                solver.courant = new_courant
                self._good_streak = 0
            self.journal.event(
                "rollback", step=solver.step_count, t=solver.t,
                attempt=attempt, reasons=reasons, transient=transient,
                courant=solver.courant,
            )
        self._heal()

    def _attempt_unchecked(self) -> tuple[bool, list[str]]:
        """Re-run the step without guards (the 'flag' degrade path)."""
        self.solver.step()
        return True, []

    def _heal(self) -> None:
        """Walk a temporarily reduced Courant factor back up."""
        self._good_streak += 1
        if (
            self.solver.courant < self._base_courant
            and self._good_streak >= self.policy.heal_after
        ):
            self.solver.courant = min(
                self._base_courant,
                self.solver.courant / self.policy.dt_factor,
            )
            self._good_streak = 0
            self.journal.event("dt-restored", courant=self.solver.courant,
                               step=self.solver.step_count)

    def _abort_report(self, reasons: list[str]) -> dict:
        return {
            "reason": "; ".join(reasons),
            "t": float(self.solver.t),
            "step_count": int(self.solver.step_count),
            "courant": float(self.solver.courant),
            "rollbacks": int(self.rollbacks),
        }

    # -- checkpointing --------------------------------------------------
    def write_checkpoint(self) -> "str | None":
        """Write one rotated atomic checkpoint (if a dir is configured)."""
        if self.checkpoint_dir is None:
            return None
        import pathlib

        from repro.io.checkpoint import save_checkpoint

        d = pathlib.Path(self.checkpoint_dir)
        d.mkdir(parents=True, exist_ok=True)
        path = d / CHECKPOINT_FMT.format(step=self.solver.step_count)
        save_checkpoint(path, self.solver, keep=self.keep,
                        pattern=CHECKPOINT_GLOB)
        self.journal.event("checkpoint", path=path,
                           step=self.solver.step_count, t=self.solver.t)
        return str(path)

    @classmethod
    def resume(cls, checkpoint_dir, *, params=None, backend: str = "numpy",
               **kwargs) -> "SupervisedRun":
        """Auto-resume from the newest *valid* checkpoint in a directory.

        Corrupt or truncated files are skipped (with warnings) by
        :func:`repro.io.checkpoint.find_latest_valid`; raises
        ``FileNotFoundError`` when nothing valid remains.  ``backend``
        is the original run's (checkpoints persist state, not how it is
        executed).
        """
        from repro.io.checkpoint import find_latest_valid, restore_solver

        path = find_latest_valid(checkpoint_dir)
        if path is None:
            raise FileNotFoundError(
                f"no valid checkpoint found in {checkpoint_dir}"
            )
        solver = restore_solver(path, params, backend=backend)
        run = cls(solver, checkpoint_dir=checkpoint_dir, **kwargs)
        run.journal.event("resume", path=path, step=solver.step_count,
                          t=solver.t)
        return run

    # -- driving ---------------------------------------------------------
    def run(self, t_end: float, *, regrid_every: int = 0,
            regrid_eps: float | None = None, max_level: int | None = None,
            on_step=None) -> dict:
        """March to ``t_end`` under supervision; returns the run report.

        Regridding follows :meth:`repro.solver.base.Solver.evolve`
        (``regrid_eps=None`` is the solver's ``default_regrid_eps``).
        ``on_step(solver)`` is invoked after every *accepted* step —
        i.e. after any rollback/retry inside :meth:`step` has resolved —
        which is where waveform extraction samplers hook in (a sample is
        never taken from a state that is later rolled back).
        """
        solver = self.solver
        if regrid_every and regrid_eps is None:
            regrid_eps = solver.default_regrid_eps
        while solver.t < t_end - 1e-12:
            if self.preempt_check is not None and self.preempt_check():
                path = self.write_checkpoint()
                self.journal.event("preempted", step=solver.step_count,
                                   t=solver.t, path=path)
                report = self.report()
                report["preempted"] = True
                report["checkpoint"] = path
                return report
            if (
                regrid_every
                and solver.step_count
                and solver.step_count % regrid_every == 0
                and hasattr(solver, "regrid")
            ):
                if solver.regrid(regrid_eps, max_level=max_level):
                    self.journal.event("regrid", step=solver.step_count,
                                       octants=solver.mesh.num_octants)
            self.step()
            if on_step is not None:
                on_step(solver)
            if self.telemetry is not None:
                self.telemetry.on_step(solver)
            if (
                self.checkpoint_every
                and solver.step_count % self.checkpoint_every == 0
            ):
                self.write_checkpoint()
        if self.checkpoint_dir is not None:
            self.write_checkpoint()
        if self.telemetry is not None:
            from repro.telemetry.instrument import sample_supervisor

            sample_supervisor(self.telemetry.metrics, self)
        report = self.report()
        self.journal.event("complete", **{
            k: report[k] for k in ("t", "step_count", "rollbacks")
        })
        return report

    def report(self) -> dict:
        """Structured summary of the run so far."""
        return {
            "t": float(self.solver.t),
            "step_count": int(self.solver.step_count),
            "courant": float(self.solver.courant),
            "rollbacks": int(self.rollbacks),
            "flagged_steps": list(self.flagged_steps),
            "preempted": False,
            "journal": summarize(self.journal.events),
        }
