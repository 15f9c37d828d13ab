"""Samplers turning live solver objects into registry metrics.

These are the glue between the subsystems and the
:class:`~repro.telemetry.MetricsRegistry`: each function reads one layer
(mesh structure, buffer pool, communicator, load balance, physics
diagnostics) and publishes gauges/counters under stable metric names.
:meth:`repro.telemetry.TelemetrySink.on_step` calls them on its
configured cadences; tests and ad-hoc scripts call them directly.

Metric name conventions (all seconds/bytes are SI, labels in braces):

===========================  ========  =================================
``phase_seconds{phase}``      histogram  per-step time in one Alg.-1 phase
``step_seconds``              histogram  wall time of one full RK4 step
``steps_total``               counter    steps sampled so far
``octants_total``             gauge      octants in the current mesh
``octants{level}``            gauge      octants per refinement level
``pool_bytes`` / ``pool_buffers``  gauge  arena footprint
``halo_bytes|messages{src,dst}``  counter  per-edge halo traffic
``halo_retries{src,dst}``     counter    re-requested ghost messages
``comm_bytes_total``          gauge      communicator lifetime traffic
``load_imbalance``            gauge      max/mean predicted rank work
``constraint{name}``          gauge      latest constraint norm
``psi4_amplitude{radius}``    gauge      |Ψ₄ (2,2)| at an extraction radius
``rollbacks_total`` etc.      counter    supervisor recovery events
``gpu_flops|bytes|seconds{kernel}``  counter  virtual-GPU launch totals
===========================  ========  =================================
"""

from __future__ import annotations

import numpy as np

from .metrics import MetricsRegistry


def sample_mesh(metrics: MetricsRegistry, mesh) -> None:
    """Mesh structure: total octants, octants per level, finest dx."""
    metrics.gauge("octants_total").set(mesh.num_octants)
    levels = mesh.tree.levels
    for lv in np.unique(levels):
        metrics.gauge("octants", level=int(lv)).set(
            int((levels == lv).sum())
        )
    metrics.gauge("min_dx").set(mesh.min_dx)


def sample_pool(metrics: MetricsRegistry, solver) -> None:
    """Workspace arena footprint (solvers that own a workspace)."""
    ws = getattr(solver, "_workspace", None)
    pool = getattr(ws, "pool", None)
    if pool is None:
        return
    metrics.gauge("pool_bytes").set(pool.nbytes)
    metrics.gauge("pool_buffers").set(pool.num_buffers)


def sample_comm(metrics: MetricsRegistry, solver) -> None:
    """Communicator traffic and predicted load imbalance (distributed
    drivers only; single-rank solvers are a no-op)."""
    comm = getattr(solver, "comm", None)
    if comm is not None and hasattr(comm, "total_bytes"):
        metrics.gauge("comm_bytes_total").set(comm.total_bytes())
    partition = getattr(solver, "partition", None)
    if partition is not None:
        from repro.parallel.loadbalance import predicted_imbalance

        metrics.gauge("load_imbalance").set(
            predicted_imbalance(solver.mesh, partition)
        )
        for rank in range(partition.num_parts):
            metrics.gauge("octants_owned", rank=rank).set(
                int(partition.offsets[rank + 1] - partition.offsets[rank])
            )


def sample_physics(metrics: MetricsRegistry, solver) -> None:
    """Physics diagnostics: constraint norms (BSSN) and the newest
    |Ψ₄|/|φ| (2,2)-mode amplitude of an attached extractor.

    This costs a constraint evaluation over the whole mesh — run it on
    its own (coarser) cadence, never every step.
    """
    if hasattr(solver, "constraints"):
        for name, value in solver.constraints().items():
            metrics.gauge("constraint", name=name).set(value)
    extractor = getattr(solver, "extractor", None)
    if extractor is not None:
        for radius, rec in extractor.records.items():
            try:
                _, coeffs = rec.series(2, 2)
            except (KeyError, ValueError):
                continue
            if len(coeffs):
                metrics.gauge("psi4_amplitude", radius=float(radius)).set(
                    float(np.abs(coeffs[-1]))
                )


def sample_solver(metrics: MetricsRegistry, solver) -> None:
    """The cheap per-cadence sample: mesh + pool + comm (physics has its
    own cadence — see :func:`sample_physics`)."""
    mesh = getattr(solver, "mesh", None)
    if mesh is not None:
        sample_mesh(metrics, mesh)
    sample_pool(metrics, solver)
    sample_comm(metrics, solver)


def sample_supervisor(metrics: MetricsRegistry, run) -> None:
    """Recovery statistics of a :class:`repro.resilience.SupervisedRun`."""
    metrics.gauge("rollbacks_total").set(run.rollbacks)
    metrics.gauge("flagged_steps_total").set(len(run.flagged_steps))
    metrics.gauge("courant").set(float(run.solver.courant))
