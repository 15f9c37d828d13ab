"""Tests for the virtual-GPU substrate: performance model, counters,
roofline, launch timeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    A100,
    EPYC_7763_NODE,
    KernelStats,
    VirtualGPU,
    achieved_gflops,
    attainable_gflops,
    derivative_flops_per_point,
    is_bandwidth_bound,
    kernel_time,
    octant_to_patch_stats,
    paper_o_a,
    patch_to_octant_stats,
    place_kernel,
    qa_algebraic,
    ql_rhs,
    qu_octant_to_patch,
    rhs_stats,
    roofline_curve,
    time_finite_cache,
    time_infinite_cache,
)
from repro.mesh import Mesh
from repro.octree import LinearOctree, adaptivity_family, bbh_grid


class TestMachineModel:
    def test_a100_paper_parameters(self):
        """§III-D: τ_f = 1e-13, τ_m = 6.4e-13, ξ ≈ 4e-8, balance ≈ 6.25."""
        assert A100.tau_f == 1.0e-13
        assert A100.tau_m == 6.4e-13
        assert 5.5 < A100.balance < 7.0
        assert 2e-8 < A100.xi < 6e-8

    def test_peaks(self):
        assert np.isclose(A100.peak_gflops, 1e4)  # 10 TF/s fp64
        assert np.isclose(A100.peak_bandwidth_gbs, 1562.5)
        # EPYC node: slower memory, comparable-ish flops
        assert EPYC_7763_NODE.peak_bandwidth_gbs < A100.peak_bandwidth_gbs

    def test_infinite_cache_model(self):
        s = KernelStats("k", flops=1e9, bytes_moved=1e9)
        t = time_infinite_cache(s, A100)
        assert np.isclose(t, 1e9 * 1e-13 + 1e9 * 6.4e-13)

    def test_finite_cache_model_penalises_large_m(self):
        small = KernelStats("k", flops=0, bytes_moved=1e6)
        large = KernelStats("k", flops=0, bytes_moved=1e9)
        # m*xi < 1 for 1 MB: finite == infinite
        assert np.isclose(time_finite_cache(small), time_infinite_cache(small))
        # m*xi > 1 for 1 GB: finite model slower
        assert time_finite_cache(large) > time_infinite_cache(large)

    def test_invalid_model_name(self):
        with pytest.raises(ValueError):
            kernel_time(KernelStats("k", 1, 1), A100, model="quantum")


class TestPaperBounds:
    def test_qu_eq20(self):
        assert abs(qu_octant_to_patch() - 5.07) < 0.01

    def test_ql_eq21a(self):
        o_a = paper_o_a()
        assert abs(ql_rhs(o_a) - 6.68) < 0.01

    def test_qa_eq21b(self):
        # Eq. 21b's O_A (for the A kernel alone): Q_A = O_A/(8*258)
        o_a_alg = int(round(1.94 * 8 * 258))
        assert abs(qa_algebraic(o_a_alg) - 1.94) < 0.01

    def test_rhs_observed_ai_with_spills_matches_paper(self):
        """The paper observes overall RHS AI ≈ 0.62 ≪ 6.68 once spill and
        miss traffic is included (§V-A).  Adding the baseline variant's
        spill traffic to the ideal kernel lands in the same regime."""
        ideal = rhs_stats(1000, o_a=paper_o_a())
        assert 5.0 < ideal.ai < 10.0  # near the Q_L bound
        spilled = rhs_stats(1000, o_a=paper_o_a(), spill_bytes_per_point=19136.0)
        observed = spilled.flops / (spilled.bytes_moved + spilled.extra_slow_bytes)
        assert 0.3 < observed < 1.2
        assert is_bandwidth_bound(
            KernelStats("rhs-observed", spilled.flops,
                        spilled.bytes_moved + spilled.extra_slow_bytes),
            A100,
        )


class TestCounters:
    def test_unzip_ai_below_bound(self):
        mesh = Mesh(bbh_grid(mass_ratio=2.0, max_level=6, base_level=2))
        s = octant_to_patch_stats(mesh.plan)
        assert 0.0 < s.ai <= qu_octant_to_patch() + 1e-9

    def test_uniform_grid_zero_interp_flops(self):
        mesh = Mesh(LinearOctree.uniform(2))
        s = octant_to_patch_stats(mesh.plan)
        assert s.flops == 0.0

    def test_gather_moves_more_bytes(self):
        mesh = Mesh(bbh_grid(mass_ratio=2.0, max_level=6, base_level=2))
        sc = octant_to_patch_stats(mesh.plan, mode="scatter")
        ga = octant_to_patch_stats(mesh.plan, mode="gather")
        assert ga.bytes_moved > sc.bytes_moved
        assert ga.flops == sc.flops
        with pytest.raises(ValueError):
            octant_to_patch_stats(mesh.plan, mode="sideways")

    def test_p2o_zero_ai(self):
        mesh = Mesh(LinearOctree.uniform(2))
        s = patch_to_octant_stats(mesh.plan)
        assert s.flops == 0.0
        assert s.bytes_moved > 0

    def test_table3_ai_decreases_with_uniformity(self):
        ais = []
        for i in range(1, 6):
            mesh = Mesh(adaptivity_family(i))
            ais.append(octant_to_patch_stats(mesh.plan).ai)
        assert all(a >= b for a, b in zip(ais, ais[1:]))

    def test_derivative_flops(self):
        assert derivative_flops_per_point(False) < derivative_flops_per_point(True)

    def test_spill_bytes_slow_down_rhs(self):
        clean = rhs_stats(100, o_a=4000)
        spilled = rhs_stats(100, o_a=4000, spill_bytes_per_point=2500.0)
        assert kernel_time(spilled) > kernel_time(clean)


class TestRoofline:
    def test_curve_monotone_then_flat(self):
        q, g = roofline_curve(A100)
        assert np.all(np.diff(g) >= -1e-9)
        assert np.isclose(g[-1], A100.peak_gflops)

    def test_ceiling(self):
        assert np.isclose(attainable_gflops(1.0), A100.peak_bandwidth_gbs)
        assert np.isclose(attainable_gflops(1e3), A100.peak_gflops)

    def test_placed_kernel_below_ceiling(self):
        mesh = Mesh(bbh_grid(mass_ratio=2.0, max_level=6, base_level=2))
        s = octant_to_patch_stats(mesh.plan)
        p = place_kernel(s)
        assert p.gflops <= p.ceiling * (1.0 + 1e-9)
        assert 0.0 < p.efficiency <= 1.0


class TestVirtualGPU:
    def test_timeline(self):
        gpu = VirtualGPU()
        t1 = gpu.launch(KernelStats("a", 1e9, 1e8))
        t2 = gpu.launch(KernelStats("b", 0, 1e8))
        assert gpu.total_time() == pytest.approx(t1 + t2)
        assert set(gpu.time_by_kernel()) == {"a", "b"}
        gpu.reset()
        assert gpu.total_time() == 0.0


@given(f=st.floats(1e3, 1e12), m=st.floats(1e3, 1e12))
@settings(max_examples=30, deadline=None)
def test_model_monotonicity(f, m):
    """More work or more traffic never makes a kernel faster."""
    base = kernel_time(KernelStats("k", f, m))
    assert kernel_time(KernelStats("k", 2 * f, m)) >= base
    assert kernel_time(KernelStats("k", f, 2 * m)) >= base


class TestOccupancy:
    def test_launch_bounds_register_cap_near_paper(self):
        """__launch_bounds__(343, 3) caps registers near the paper's
        'maximum 56 registers per thread' (ptxas reserves a few more)."""
        from repro.gpu import registers_per_thread_cap

        cap = registers_per_thread_cap(343, 3)
        assert 50 <= cap <= 64

    def test_paper_rhs_config_is_register_limited(self):
        from repro.gpu import paper_rhs_occupancy

        occ = paper_rhs_occupancy()
        assert occ.blocks_per_sm == 3  # the launch bounds' promise
        assert occ.limited_by == "registers"
        assert 0.3 < occ.occupancy < 0.8

    def test_more_registers_fewer_blocks(self):
        from repro.gpu import occupancy_for

        a = occupancy_for(343, 32)
        b = occupancy_for(343, 128)
        assert a.blocks_per_sm > b.blocks_per_sm

    def test_shared_memory_can_limit(self):
        from repro.gpu import occupancy_for

        occ = occupancy_for(128, 16, shared_bytes_per_block=100_000)
        assert occ.limited_by == "shared"
        assert occ.blocks_per_sm == 1

    def test_validation(self):
        from repro.gpu import occupancy_for, registers_per_thread_cap

        with pytest.raises(ValueError):
            occupancy_for(5000, 32)
        with pytest.raises(ValueError):
            registers_per_thread_cap(0, 1)
