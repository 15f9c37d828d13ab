"""Static analysis of the reproduction's hot path — plus resolution and
cost estimators (Tables I and IV) and catalog tools.

The static-analysis side (``python -m repro.analysis``) has two legs:

* :mod:`.dataflow`  — exact dataflow verification of generated kernel
  schedules, cross-checked against the register-allocation model;
* :mod:`.aliasing`  — runtime buffer-aliasing audit of one RK4
  step (arena leases, phases, RHS in/out overlap).

That a warm compiled step allocates no array temporaries is measured
directly, with ``tracemalloc``, in ``tests/test_backends.py``.
"""

from .aliasing import AliasReport, AuditedPool, AliasAuditor, audit_solver_step
from .catalog import CatalogEntry, WaveformCatalog, build_model_catalog
from .dataflow import (
    DataflowReport,
    Finding,
    live_intervals,
    peak_live,
    verify_schedule,
    verify_spec,
)

from .convergence import (
    ConvergenceResult,
    analyze_triplet,
    observed_order,
    richardson_extrapolate,
    scaled_difference_overlap,
)
from .cost_model import (
    PAPER_TABLE4,
    JobCost,
    ProductionEstimate,
    estimate_octants,
    estimate_production_run,
    estimate_run_cost,
    table4,
)
from .resolution import PAPER_TABLE1, Table1Row, table1, table1_row

__all__ = [
    "AliasAuditor",
    "AliasReport",
    "AuditedPool",
    "CatalogEntry",
    "DataflowReport",
    "Finding",
    "PAPER_TABLE1",
    "audit_solver_step",
    "live_intervals",
    "peak_live",
    "verify_schedule",
    "verify_spec",
    "WaveformCatalog",
    "build_model_catalog",
    "ConvergenceResult",
    "analyze_triplet",
    "observed_order",
    "richardson_extrapolate",
    "scaled_difference_overlap",
    "PAPER_TABLE4",
    "JobCost",
    "ProductionEstimate",
    "Table1Row",
    "estimate_octants",
    "estimate_production_run",
    "estimate_run_cost",
    "table1",
    "table1_row",
    "table4",
]
