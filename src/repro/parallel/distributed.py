"""The rank-parallel driver: a halo exchange around the one ``full_rhs``.

Executes Algorithm 1's per-stage communication pattern for real: each
rank owns an SFC chunk of octants, receives the ghost blocks it needs
through a :class:`SimComm` before every unzip (Alg. 1 line 6), and runs
the *same* unzip and chunk kernels as the single-address-space solver,
restricted to its own octant range — a rank is a chunk.  Because the
communicator copies payloads, no rank ever reads another rank's blocks;
the result still equals the wrapped solver's bit for bit, for every
contiguous partition and both backends (tested), which is the
correctness property behind the paper's multi-GPU runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.octree import Partition
from .comm import SimComm
from .halo import (
    HaloPlan,
    build_halo_plan,
    contiguous_offsets,
    exchange_ghosts,
    rank_view,
)

#: what the driver holds itself; every other attribute is the solver's
_OWN = frozenset({"solver", "partition", "ranges", "comm", "halo",
                  "halo_retries", "journal", "telemetry", "rank_seconds"})


class DistributedSolver:
    """Step a :class:`repro.solver.WaveSolver` or ``BSSNSolver`` rank by
    rank over a contiguous SFC ``partition`` of its mesh.

    Kernel, backend, parameters, workspace, profiler, ``state``, ``t``,
    ``step_count``, ``courant``, ``dt`` and the snapshot hooks are the
    wrapped solver's and read (and assign) through; the driver adds the
    halo plan, the communicator and one exchange per RK4 stage.
    """

    def __init__(self, solver, partition: Partition, *,
                 comm: SimComm | None = None):
        offsets = contiguous_offsets(partition).tolist()
        self.solver = solver
        self.partition = partition
        #: the octant range ``(lo, hi)`` each rank owns
        self.ranges = list(zip(offsets[:-1], offsets[1:]))
        self.comm = comm if comm is not None else SimComm(partition.num_parts)
        self.halo: HaloPlan = build_halo_plan(solver.mesh, partition)
        #: measured unzip + RHS seconds of each rank, summed over stages
        #: (the per-rank compute beside the halo bytes of Figs. 17/18)
        self.rank_seconds = np.zeros(partition.num_parts)
        #: halo-exchange re-request budget (0 disables the resilient path)
        self.halo_retries = 2
        #: optional repro.resilience.RunJournal receiving recovery events
        self.journal = None
        #: optional repro.telemetry.TelemetrySink: halo exchanges are then
        #: spanned on the trace timeline with per-edge traffic counters
        self.telemetry = None

    def __getattr__(self, name: str):
        if name == "solver":  # not constructed yet (copy, pickle)
            raise AttributeError(name)
        return getattr(self.solver, name)

    def __setattr__(self, name: str, value) -> None:
        if name in _OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self.solver, name, value)

    def regrid(self, *args, **kwargs):
        """Refused: ``partition``, ``ranges`` and ``halo`` describe the
        mesh the driver was built on, and the wrapped solver's ``regrid``
        (which ``__getattr__`` would otherwise reach) replaces it."""
        raise ValueError(
            "regrid on a distributed run is not supported; regrid the "
            "wrapped solver and build a new driver"
        )

    def bytes_communicated(self) -> int:
        """Total halo traffic so far."""
        return self.comm.total_bytes()

    def stage_rhs(self, u: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
        """``full_rhs`` as the ranks evaluate it: one halo exchange, then
        per rank the solver's :meth:`~repro.solver.base.Solver.rhs_range`
        of the owned octant range on that rank's view, which unzips the
        owned octants only.  Lost or corrupted ghost messages are
        re-requested (``halo_retries``); a dead rank propagates
        :class:`repro.parallel.RankDeadError` to the caller, which owns
        restart policy — ``solver.state`` is untouched until the step
        completes."""
        solver, tel, ranges = self.solver, self.telemetry, self.ranges
        ghosts = exchange_ghosts(
            self.halo, [u[:, lo:hi] for lo, hi in ranges], self.comm,
            dof=u.shape[0], max_retries=self.halo_retries,
            validate=self.halo_retries > 0, journal=self.journal,
            tracer=tel.tracer if tel is not None else None,
            metrics=tel.metrics if tel is not None else None,
        )
        view = solver.workspace().pool.get("distributed.view", u.shape)
        for rank, (lo, hi) in enumerate(ranges):
            t0 = time.perf_counter()
            rank_view(view, u, lo, hi, ghosts[rank])
            solver.rhs_range(view, t, out, lo, hi)
            self.rank_seconds[rank] += time.perf_counter() - t0
        return out

    def step(self) -> None:
        """One RK4 step of the wrapped solver with 4 halo exchanges (one
        per stage)."""
        self.solver.advance(self.stage_rhs)
