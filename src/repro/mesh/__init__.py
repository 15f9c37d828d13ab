"""Adaptive mesh on linear octrees: blocks, patches, unzip/zip, regrid."""

from .consistency import (
    SharedPointMap,
    build_shared_point_map,
    repair_shared_points,
    shared_point_divergence,
)
from .slices import ascii_level_map, field_slice, level_profile, level_slice

from .grid import Mesh
from .interp import (
    child_block,
    extrapolation_matrix_1d,
    paper_interp_ops,
    parent_from_children,
    prolong_blocks,
    prolong_flops,
    prolongation_matrix_1d,
)
from .maps import (
    CASE_COARSE,
    CASE_FINE,
    CASE_SAME,
    PlanStats,
    TransferGroup,
    TransferPlan,
)
from .octant_to_patch import (
    allocate_patches,
    extrapolate_boundary,
    gather_to_patches,
    prolong_sources,
    scatter_to_patches,
)
from .patch_to_octant import zip_patches
from .regrid import regrid_flags, remesh, transfer_fields
from .wavelet import field_wavelets, wavelet_coefficients

__all__ = [
    "CASE_COARSE",
    "SharedPointMap",
    "ascii_level_map",
    "build_shared_point_map",
    "field_slice",
    "level_profile",
    "level_slice",
    "repair_shared_points",
    "shared_point_divergence",
    "CASE_FINE",
    "CASE_SAME",
    "Mesh",
    "PlanStats",
    "TransferGroup",
    "TransferPlan",
    "allocate_patches",
    "child_block",
    "extrapolate_boundary",
    "extrapolation_matrix_1d",
    "field_wavelets",
    "gather_to_patches",
    "paper_interp_ops",
    "parent_from_children",
    "prolong_blocks",
    "prolong_flops",
    "prolong_sources",
    "prolongation_matrix_1d",
    "regrid_flags",
    "remesh",
    "scatter_to_patches",
    "transfer_fields",
    "wavelet_coefficients",
    "zip_patches",
]
