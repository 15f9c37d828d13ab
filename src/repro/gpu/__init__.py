"""The virtual GPU substrate: machine models, the §III-D performance
model, structural kernel counters, roofline placement, and the launch
timeline (see DESIGN.md for the substitution rationale)."""

from .counters import (
    algebraic_stats,
    derivative_flops_per_point,
    octant_to_patch_stats,
    patch_to_octant_stats,
    publish_kernel_stats,
    rhs_stats,
)
from .device import (
    A100,
    EPYC_7763_NODE,
    EPYC_7763_SOCKET,
    FRONTERA_IB,
    FRONTERA_NODE,
    LONESTAR6_IB,
    Interconnect,
    MachineSpec,
)
from .executor import KernelLaunch, VirtualGPU
from .occupancy import (
    A100_SM,
    Occupancy,
    SMResources,
    occupancy_for,
    paper_rhs_occupancy,
    registers_per_thread_cap,
)
from .memory import (
    CacheConfig,
    LRUCache,
    effective_reuse_factor,
    repeated_pass_miss_rate,
)
from .perfmodel import (
    KernelStats,
    achieved_gflops,
    is_bandwidth_bound,
    kernel_time,
    paper_o_a,
    qa_algebraic,
    ql_rhs,
    qu_octant_to_patch,
    time_finite_cache,
    time_infinite_cache,
)
from .roofline import RooflinePoint, attainable_gflops, place_kernel, roofline_curve

__all__ = [
    "A100",
    "EPYC_7763_NODE",
    "EPYC_7763_SOCKET",
    "FRONTERA_IB",
    "FRONTERA_NODE",
    "Interconnect",
    "KernelLaunch",
    "KernelStats",
    "LONESTAR6_IB",
    "MachineSpec",
    "RooflinePoint",
    "VirtualGPU",
    "achieved_gflops",
    "algebraic_stats",
    "attainable_gflops",
    "A100_SM",
    "CacheConfig",
    "Occupancy",
    "SMResources",
    "occupancy_for",
    "paper_rhs_occupancy",
    "registers_per_thread_cap",
    "LRUCache",
    "effective_reuse_factor",
    "repeated_pass_miss_rate",
    "derivative_flops_per_point",
    "is_bandwidth_bound",
    "kernel_time",
    "octant_to_patch_stats",
    "paper_o_a",
    "patch_to_octant_stats",
    "place_kernel",
    "publish_kernel_stats",
    "roofline_curve",
    "qa_algebraic",
    "ql_rhs",
    "qu_octant_to_patch",
    "rhs_stats",
    "time_finite_cache",
    "time_infinite_cache",
]
