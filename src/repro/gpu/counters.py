"""Structural flop/byte counters for the paper's kernels.

These feed the §III-D performance model with the same quantities the
paper's roofline analysis measures with ``nv-compute``: work and slow
memory traffic of *octant-to-patch*, *patch-to-octant*, and the (fused)
BSSN RHS evaluation (Table III, Fig. 14).
"""

from __future__ import annotations


from repro.mesh import TransferPlan, paper_interp_ops
from .perfmodel import KernelStats

BYTES = 8  # double precision


def publish_kernel_stats(metrics, stats: KernelStats,
                         predicted_time: float | None = None) -> None:
    """Accumulate one kernel launch into a telemetry
    :class:`~repro.telemetry.MetricsRegistry`.

    Counters labelled by kernel name: ``gpu_flops``, ``gpu_bytes``,
    ``gpu_launches``, and — when the §III-D model-predicted time is given
    — ``gpu_seconds``.  This is the bridge from the virtual GPU's
    roofline accounting to the unified run report.
    """
    metrics.counter("gpu_flops", kernel=stats.name).inc(stats.flops)
    metrics.counter("gpu_bytes", kernel=stats.name).inc(stats.bytes_moved)
    metrics.counter("gpu_launches", kernel=stats.name).inc()
    if predicted_time is not None:
        metrics.counter("gpu_seconds", kernel=stats.name).inc(predicted_time)


def octant_to_patch_stats(
    plan: TransferPlan, dof: int = 24, mode: str = "scatter"
) -> KernelStats:
    """Work/traffic of the unzip kernel (paper §IV-A "Performance bounds").

    Per octant and per variable the kernel reads the interpolation
    operators (2r²) and the octant block (r³), and writes the block plus
    the padding zones (faces 6r²k, edges 12rk², corners 8k³).  Flops are
    ``3 (2r-1) r³`` per interpolation; the scatter does one interpolation
    per coarse source octant while the gather re-interpolates per
    destination pair.
    """
    st = plan.stats
    r, k = plan.r, plan.k
    n = st.n_octants
    reads = n * dof * (r**3) * BYTES + n * dof * (2 * r**2) * BYTES
    pad_writes = (st.copy_points + st.inject_points + st.prolong_points) * dof * BYTES
    interior_writes = n * dof * r**3 * BYTES
    writes = pad_writes + interior_writes
    # Algorithm 2 interpolates once per finer destination (Eq. 20 assumes
    # up to 8 interpolations per octant), so flops scale with coarse->fine
    # pairs in both modes ...
    n_interp = st.prolong_pairs_gather
    flops = n_interp * dof * paper_interp_ops(r)
    if mode == "gather":
        # ... but the gather re-reads every coarse source block from
        # global memory once per destination pair (poor locality), which
        # is the traffic the loop-over-octants scatter eliminates
        reads += st.prolong_pairs_gather * dof * (r**3 + 2 * r**2) * BYTES
    elif mode != "scatter":
        raise ValueError("mode must be 'scatter' or 'gather'")
    return KernelStats(
        name=f"octant-to-patch[{mode}]", flops=flops, bytes_moved=reads + writes
    )


def patch_to_octant_stats(plan: TransferPlan, dof: int = 24) -> KernelStats:
    """Pure data movement: zero arithmetic intensity (Table III)."""
    n = plan.stats.n_octants
    r = plan.r
    moved = 2 * n * dof * r**3 * BYTES  # read interior + write blocks
    return KernelStats(name="patch-to-octant", flops=0.0, bytes_moved=moved)


#: flops of one 7-point stencil application per output point (6 fused
#: multiply-adds + scale ~ 13 flops)
STENCIL_FLOPS = 13


def derivative_flops_per_point(use_upwind: bool = True) -> int:
    """D-component flops per grid point: 72 first + 66 second (diagonal
    7-point, cross composed) + 72 KO + optional 72 advective."""
    first = 72 * STENCIL_FLOPS
    # 33 diagonal second derivatives would be 7-point; the 33 mixed ones
    # are composed first derivatives (2 passes)
    second = (11 * 3) * STENCIL_FLOPS + (11 * 3) * 2 * STENCIL_FLOPS
    ko = 72 * STENCIL_FLOPS
    adv = 72 * STENCIL_FLOPS if use_upwind else 0
    return first + second + ko + adv


def rhs_stats(
    n_octants: int,
    *,
    o_a: int,
    r: int = 7,
    k: int = 3,
    dof: int = 24,
    spill_bytes_per_point: float = 0.0,
    use_upwind: bool = True,
) -> KernelStats:
    """Fused RHS kernel: reads 24 padded patches, writes 24 blocks
    (Eq. 21a denominator); spill traffic rides on top as extra slow-memory
    bytes."""
    P = r + 2 * k
    pts = n_octants * r**3
    flops = pts * (derivative_flops_per_point(use_upwind) + o_a)
    moved = n_octants * dof * (P**3 + r**3) * BYTES
    return KernelStats(
        name="bssn-rhs",
        flops=flops,
        bytes_moved=moved,
        extra_slow_bytes=pts * spill_bytes_per_point,
    )


def algebraic_stats(
    n_octants: int, *, o_a: int, r: int = 7,
    spill_bytes_per_point: float = 0.0,
) -> KernelStats:
    """The A component alone (Eq. 21b): 24 + 210 inputs, 24 outputs per
    point."""
    pts = n_octants * r**3
    moved = pts * (24 * 2 + 210) * BYTES
    return KernelStats(
        name="bssn-A",
        flops=pts * o_a,
        bytes_moved=moved,
        extra_slow_bytes=pts * spill_bytes_per_point,
    )
