"""E2 — Fig. 7: loop-over-octants (scatter) vs loop-over-patches (gather).

This is a *real wall-clock* comparison (single core, like the paper's
Fig. 7): the gather baseline re-interpolates each coarse source once per
destination pair and reads sources in destination order; the scatter
shares one interpolation per source with sequential reads.  A third
column times the scatter as the ``compiled`` backend runs it — the
native prolongation of only the upsample rows the patches read, then
the native copy by the plan's last-writer gather map (one whole-mesh
range here; the solver runs it per cache-sized chunk) —
with its achieved GB/s against the bytes of Table III's model (skipped
with a notice on hosts without a native toolchain).
"""

import time

import numpy as np
from conftest import write_table

from repro.codegen.backends import NativeWaveRHS, native_impl
from repro.gpu import octant_to_patch_stats
from repro.mesh import Mesh, prolong_sources
from repro.octree import bbh_grid


def _grids():
    params = [(5, 2), (6, 2), (6, 3), (7, 3)]
    return [
        Mesh(bbh_grid(mass_ratio=2.0, max_level=ml, base_level=bl, theta=0.8))
        for ml, bl in params
    ]


def _time(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fig7_scatter_vs_gather_unzip(benchmark):
    meshes = _grids()
    dof = 4  # representative variable batch
    kernel = NativeWaveRHS() if native_impl() is not None else None
    lines = [
        "Fig. 7: octant-to-patch wall-clock, gather (loop-over-patches) vs",
        "scatter (loop-over-octants).  Paper: scatter ~3x faster.",
        "native = the scatter as backend='compiled' runs it; GB/s over the",
        "bytes of Table III's model.",
        f"{'octants':>8} {'gather (s)':>12} {'scatter (s)':>12} {'speedup':>9}"
        f" {'native (s)':>12} {'native GB/s':>12}",
    ]
    if kernel is None:
        lines.append("NOTICE: no cffi or C compiler on this host — "
                     "native column skipped")
    speedups = []
    for mesh in meshes:
        rng = np.random.default_rng(0)
        u = rng.normal(size=(dof, mesh.num_octants, 7, 7, 7))
        out = mesh.allocate_patches(dof)
        tg = _time(lambda: mesh.unzip(u, out=out, method="gather"))
        ts = _time(lambda: mesh.unzip(u, out=out, method="scatter"))
        speedups.append(tg / ts)
        row = f"{mesh.num_octants:>8} {tg:>12.4f} {ts:>12.4f} {tg / ts:>8.2f}x"
        if kernel is not None:
            tn = _time(lambda: mesh.unzip(
                u, out=out, executor=kernel.unzip_gather,
                up=prolong_sources(mesh.plan, u, executor=kernel.prolong)))
            assert np.array_equal(out, mesh.unzip(u))
            gbs = octant_to_patch_stats(mesh.plan, dof).bytes_moved / tn / 1e9
            row += f" {tn:>12.4f} {gbs:>12.2f}"
        lines.append(row)
    lines.append(f"mean speedup: {np.mean(speedups):.2f}x (paper: ~3x)")
    print("\n" + write_table("fig7_unzip_variants", lines))

    # the scatter wins on average; individual grids may tie within
    # measurement noise when the prolongation fraction is small
    assert np.mean(speedups) > 1.0
    assert all(s > 0.85 for s in speedups)

    mesh = meshes[1]
    u = np.random.default_rng(1).normal(size=(dof, mesh.num_octants, 7, 7, 7))
    out = mesh.allocate_patches(dof)
    benchmark(lambda: mesh.unzip(u, out=out, method="scatter"))
