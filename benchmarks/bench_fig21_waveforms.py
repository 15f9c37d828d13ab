"""E13 — Fig. 21: CPU-path vs GPU-path waveforms for q = 1 and q = 2.

The paper overlays waveforms computed by the CPU code and the GPU
extension and shows they coincide.  Our two execution paths are the two
chunk kernels of the one step pipeline — ``backend="numpy"`` (operator
sweeps) and ``backend="compiled"`` (the native single-pass kernel) —
plus, for BSSN, the reference vs the generated staged+CSE A kernel
(different floating-point association); they must produce overlapping
waveforms.  (Gather vs scatter unzip, the other CPU/GPU difference, is
compared per unzip in ``bench_fig7_unzip_variants.py``.)
"""

import numpy as np
import pytest
from conftest import write_table

from repro.codegen.backends import native_impl
from repro.gw import IMRWaveform, WaveExtractor, gauss_legendre_rule
from repro.gw.swsh import ylm
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree
from repro.solver import WaveSolver

R_EXTRACT = 5.0
T_END = 7.0


def _propagate(q: float, backend: str):
    wf = IMRWaveform(mass_ratio=q, t_merge=3.0, amplitude=1.0)

    def source(coords, t):
        x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
        r = np.sqrt(x * x + y * y + z * z)
        safe = np.maximum(r, 1e-12)
        th = np.arccos(np.clip(z / safe, -1.0, 1.0))
        ph = np.arctan2(y, x)
        a = np.real(wf.h(np.array([t])))[0]
        return a * np.exp(-((r / 1.2) ** 2)) * np.real(ylm(2, 2, th, ph))

    mesh = Mesh(LinearOctree.uniform(3, domain=Domain(-12.0, 12.0)))
    ws = WaveSolver(mesh, source=source, ko_sigma=0.02, backend=backend)
    ex = WaveExtractor([R_EXTRACT], l_max=2, s=0, rule=gauss_legendre_rule(8))
    ws.evolve(T_END, on_step=lambda s: ex.sample(s.mesh, s.state[0], s.t))
    return ex.series(R_EXTRACT, 2, 2)


def test_fig21_waveform_overlay(benchmark):
    if native_impl() is None:
        pytest.skip("NOTICE: no cffi or C compiler on this host — "
                    "nothing to overlay the numpy waveform against")
    lines = [
        "Fig. 21: (2,2) waveforms, CPU path (numpy kernel) vs GPU path",
        "(compiled kernel); peak amplitudes and max deviation per q",
    ]
    for q in (1.0, 2.0):
        t_cpu, c_cpu = _propagate(q, "numpy")
        t_gpu, c_gpu = _propagate(q, "compiled")
        assert np.array_equal(t_cpu, t_gpu)
        dev = np.abs(np.real(c_cpu) - np.real(c_gpu)).max()
        peak = np.abs(np.real(c_gpu)).max()
        lines.append(
            f"q={q:.0f}: peak |C22| = {peak:.3e}, CPU-GPU max deviation = "
            f"{dev:.3e} ({dev / peak:.1e} relative)"
        )
        assert peak > 1e-6
        assert dev < 1e-8 * max(peak, 1.0)
        # print a coarse overlay series
        idx = np.linspace(0, len(t_gpu) - 1, 12).astype(int)
        for i in idx:
            lines.append(
                f"  t={t_gpu[i]:5.2f}  gpu={np.real(c_gpu[i]):+.4e}  "
                f"cpu={np.real(c_cpu[i]):+.4e}"
            )
    print("\n" + write_table("fig21_waveforms", lines))

    benchmark.pedantic(lambda: _propagate(1.0, "compiled"), rounds=1,
                       iterations=1)


def test_fig21_bssn_rhs_paths_agree(benchmark):
    """Single BSSN RHS through the reference and the generated staged+CSE
    kernel (the GPU code path) on puncture data: roundoff-level agreement."""
    from repro.bssn import Puncture, bssn_rhs, mesh_puncture_state
    from repro.codegen import get_algebra_kernel

    mesh = Mesh(LinearOctree.uniform(2))
    u = mesh_puncture_state(
        mesh, [Puncture(1.0, [0.2, 0.1, 0.0], momentum=[0.0, 0.1, 0.0])]
    )
    patches = mesh.unzip(u)
    ref = bssn_rhs(patches, mesh.dx)
    alg = get_algebra_kernel("staged-cse")
    gpu = benchmark.pedantic(
        lambda: bssn_rhs(patches, mesh.dx, algebra=alg), rounds=1, iterations=1
    )
    assert np.abs(gpu - ref).max() < 1e-12 * np.abs(ref).max()
