"""BSSN formulation of the Einstein equations (paper §III-A)."""

from . import state
from .constraints import compute_constraints, constraint_norms
from .horizon import Horizon, find_apparent_horizon, schwarzschild_horizon_radius
from .initial_data import (
    Puncture,
    binary_punctures,
    bowen_york_Aij,
    conformal_factor,
    mesh_puncture_state,
    puncture_state,
)
from .psi4 import compute_psi4
from .rhs import (
    BSSNParams,
    Derivs,
    add_ko_dissipation,
    bssn_rhs,
    compute_derivatives,
    evaluate_algebraic,
)
from .sommerfeld import sommerfeld_faces
from .testdata import (
    gauge_wave_state,
    linear_wave_state,
    robust_stability_state,
)
from .state import NUM_VARS, VAR_NAMES, flat_metric_state

__all__ = [
    "BSSNParams",
    "Derivs",
    "NUM_VARS",
    "Puncture",
    "VAR_NAMES",
    "add_ko_dissipation",
    "binary_punctures",
    "bowen_york_Aij",
    "bssn_rhs",
    "compute_constraints",
    "compute_derivatives",
    "compute_psi4",
    "conformal_factor",
    "constraint_norms",
    "evaluate_algebraic",
    "Horizon",
    "find_apparent_horizon",
    "schwarzschild_horizon_radius",
    "flat_metric_state",
    "gauge_wave_state",
    "linear_wave_state",
    "robust_stability_state",
    "mesh_puncture_state",
    "puncture_state",
    "sommerfeld_faces",
    "state",
]
