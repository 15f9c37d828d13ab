"""Buffer-aliasing race detection for the pooled RK4 hot path.

PR 1's zero-allocation step path hands out long-lived views of pooled
memory (:class:`repro.perf.BufferPool`) and writes through ``out=``
everywhere — which is exactly the setting where an aliasing bug corrupts
results silently instead of crashing.  This module audits one RK4 step
at runtime:

* every :meth:`BufferPool.get` is recorded as a :class:`LeaseEvent`
  (sequence number, Alg.-1 phase, pool key, byte range);
* every ``full_rhs(u, t, out=...)`` call is recorded with its input and
  output arrays;
* the RK4 workspace arrays and the state array are registered as
  externals.

Hazards flagged:

* ``buffer-overlap``   — two distinct pool keys (or a pool buffer and a
  workspace/state array) share bytes: the arena invariant is broken and
  one consumer's data is another's scratch;
* ``double-lease``     — the same pool key is acquired from two
  different pipeline phases within one step (write-after-read: the
  second phase's writes clobber data the first phase's consumer may
  still read);
* ``write-after-read`` — an RHS evaluation whose ``out=`` target shares
  memory with its input state;
* ``pingpong-alias``   — the state returned by the step aliases the
  input state (the workspace ping-pong failed).

The audit is exact for the step it observes (it sees every lease), and
restores the solver to its pre-step state afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perf import BufferPool, StepProfiler
from .dataflow import SEVERITY_ERROR, Finding

try:  # numpy >= 2
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - numpy < 2
    from numpy import byte_bounds as _byte_bounds


def _bounds(arr: np.ndarray) -> tuple[int, int]:
    """Half-open byte range spanned by an array."""
    lo, hi = _byte_bounds(arr)
    return int(lo), int(hi)


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


@dataclass(frozen=True)
class LeaseEvent:
    """One recorded ``BufferPool.get``."""

    seq: int
    phase: str
    name: str
    shape: tuple
    nbytes: int
    fresh: bool  # True when the pool allocated (cold miss)


@dataclass
class AliasReport:
    """Audit result of one RK4 step."""

    label: str
    events: list[LeaseEvent] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    num_rhs_calls: int = 0
    num_buffers: int = 0
    pool_nbytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def phases_seen(self) -> list[str]:
        out: list[str] = []
        for ev in self.events:
            if ev.phase not in out:
                out.append(ev.phase)
        return out

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "num_lease_events": len(self.events),
            "num_rhs_calls": self.num_rhs_calls,
            "num_buffers": self.num_buffers,
            "pool_nbytes": self.pool_nbytes,
            "phases": self.phases_seen(),
            "findings": [f.to_dict() for f in self.findings],
        }


class AliasAuditor:
    """Collects lease/phase/RHS events and derives hazard findings."""

    def __init__(self, label: str = "step"):
        self.label = label
        self.events: list[LeaseEvent] = []
        self.findings: list[Finding] = []
        self._seq = 0
        self._phase_stack: list[str] = []
        #: pool key -> (byte range, name)
        self._ranges: dict[tuple, tuple[tuple[int, int], str]] = {}
        #: pool key -> phases it was leased from this step
        self._lease_phases: dict[tuple, set[str]] = {}
        #: registered non-pool arrays: (name, byte range)
        self._externals: list[tuple[str, tuple[int, int]]] = []
        self.num_rhs_calls = 0

    # -- phases ----------------------------------------------------------
    @property
    def phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else "-"

    def push_phase(self, name: str) -> None:
        self._phase_stack.append(name)

    def pop_phase(self) -> None:
        if self._phase_stack:
            self._phase_stack.pop()

    # -- recording -------------------------------------------------------
    def _add(self, kind: str, message: str) -> None:
        self.findings.append(
            Finding(kind, SEVERITY_ERROR, message, self.label, None)
        )

    def register_external(self, name: str, arr: np.ndarray,
                          *, check_overlap: bool = True) -> None:
        """Track a non-pool hot-path array (state, RK4 stage buffers)."""
        rng = _bounds(arr)
        if check_overlap:
            for other_name, other_rng in self._externals:
                if rng == other_rng:
                    continue  # same array registered twice is benign
                if _overlaps(rng, other_rng):
                    self._add(
                        "buffer-overlap",
                        f"workspace arrays '{name}' and '{other_name}' "
                        "share memory",
                    )
        self._externals.append((name, rng))

    def record_lease(self, key: tuple, buf: np.ndarray, *, fresh: bool) -> None:
        name = key[0]
        rng = _bounds(buf)
        known = self._ranges.get(key)
        if known is None:
            for other_key, (other_rng, other_name) in self._ranges.items():
                if other_key != key and _overlaps(rng, other_rng):
                    self._add(
                        "buffer-overlap",
                        f"pool buffers '{name}' {key[1]} and "
                        f"'{other_name}' {other_key[1]} share memory",
                    )
            for ext_name, ext_rng in self._externals:
                if _overlaps(rng, ext_rng):
                    self._add(
                        "buffer-overlap",
                        f"pool buffer '{name}' {key[1]} shares memory with "
                        f"workspace array '{ext_name}'",
                    )
            self._ranges[key] = (rng, name)
        phases = self._lease_phases.setdefault(key, set())
        if phases and self.phase not in phases:
            self._add(
                "double-lease",
                f"buffer '{name}' {key[1]} leased from phase "
                f"'{self.phase}' after phase(s) "
                f"{sorted(phases)}: a second writer may clobber live data "
                "(write-after-read)",
            )
        phases.add(self.phase)
        self.events.append(
            LeaseEvent(self._seq, self.phase, name, key[1], buf.nbytes, fresh)
        )
        self._seq += 1

    def record_rhs_call(self, u: np.ndarray, out: np.ndarray | None) -> None:
        self.num_rhs_calls += 1
        if out is not None and np.shares_memory(u, out):
            self._add(
                "write-after-read",
                f"RHS call #{self.num_rhs_calls}: out= target aliases the "
                "input state it reads",
            )

    def record_step_result(self, pre: np.ndarray, post: np.ndarray) -> None:
        if np.shares_memory(pre, post):
            self._add(
                "pingpong-alias",
                "state returned by the step aliases the input state "
                "(ping-pong buffer selection failed)",
            )


class AuditedPool(BufferPool):
    """A :class:`BufferPool` that reports every lease to an auditor.

    ``adopt`` shares the underlying buffer dict with an existing pool so
    a warm arena keeps its buffers (the audit then observes the steady
    state rather than first-touch misses).
    """

    def __init__(self, auditor: AliasAuditor):
        super().__init__()
        self._auditor = auditor

    def adopt(self, pool: BufferPool) -> "AuditedPool":
        self._bufs = pool._bufs
        return self

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        key = (name, tuple(int(s) for s in shape), np.dtype(dtype))
        fresh = key not in self._bufs
        buf = super().get(name, shape, dtype)
        self._auditor.record_lease(key, buf, fresh=fresh)
        return buf


class _AuditPhase:
    """Context manager marking one phase entry in the auditor."""

    __slots__ = ("auditor", "name")

    def __init__(self, auditor: AliasAuditor, name: str):
        self.auditor = auditor
        self.name = name

    def __enter__(self):
        self.auditor.push_phase(self.name)
        return self

    def __exit__(self, *exc):
        self.auditor.pop_phase()
        return False


class AuditingProfiler(StepProfiler):
    """A :class:`StepProfiler` whose phase markers scope the auditor's
    lease events."""

    def __init__(self, auditor: AliasAuditor):
        super().__init__()
        self.auditor = auditor

    def phase(self, name: str):
        return _AuditPhase(self.auditor, name)


def audit_solver_step(solver, *, label: str | None = None) -> AliasReport:
    """Audit one RK4 step of a solver for aliasing hazards.

    The solver must have initial data installed.  Its state, time and
    step count are restored afterwards, so the audit is side-effect free
    apart from warming the workspace arena.
    """
    state = getattr(solver, "state", None)
    if state is None:
        raise ValueError("solver has no state (set initial data first)")

    label = label or type(solver).__name__
    auditor = AliasAuditor(label=label)
    ws = solver.workspace()

    # swap in the audited pool (adopting any warm buffers)
    orig_pool = ws.pool
    audited = AuditedPool(auditor).adopt(orig_pool)
    ws.pool = audited

    # register workspace + state arrays (ping-pong slots legitimately
    # alternate with the state, so the state is checked separately)
    rk4 = ws.rk4(state.shape, state.dtype)
    for nm in ("k", "ksum", "stage", "scratch"):
        auditor.register_external(f"rk4.{nm}", getattr(rk4, nm))
    out_a, out_b = rk4._out
    auditor.register_external("rk4.out_a", out_a)
    auditor.register_external("rk4.out_b", out_b)
    # after a previous step the state *is* one ping-pong slot; identical
    # ranges are skipped by register_external, partial overlaps flagged
    auditor.register_external("state", state)

    orig_profiler = solver.profiler
    solver.profiler = AuditingProfiler(auditor)

    orig_full_rhs = solver.full_rhs

    def audited_rhs(u, t, out=None):
        auditor.record_rhs_call(u, out)
        return orig_full_rhs(u, t, out=out)

    pre_state, pre_t, pre_count = solver.state, solver.t, solver.step_count
    solver.full_rhs = audited_rhs  # type: ignore[method-assign]
    try:
        solver.step()
        auditor.record_step_result(pre_state, solver.state)
    finally:
        del solver.full_rhs  # restore the bound method
        solver.profiler = orig_profiler
        ws.pool = orig_pool
        solver.state, solver.t, solver.step_count = pre_state, pre_t, pre_count

    report = AliasReport(
        label=label,
        events=auditor.events,
        findings=auditor.findings,
        num_rhs_calls=auditor.num_rhs_calls,
        num_buffers=audited.num_buffers,
        pool_nbytes=audited.nbytes,
    )
    return report
