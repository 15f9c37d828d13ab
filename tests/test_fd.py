"""Tests for FD stencils and patch derivatives: consistency and order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import (
    D1_CENTERED_6,
    D2_CENTERED_6,
    KO_DISS_6,
    PatchDerivatives,
    Stencil,
    apply_stencil,
    fd_weights,
    one_sided_first,
)

R, K = 7, 3
P = R + 2 * K


def _patch(fn):
    """Evaluate fn(x, y, z) on a padded patch lattice with h = 0.1."""
    h = 0.1
    c = (np.arange(P) - K) * h
    z, y, x = np.meshgrid(c, c, c, indexing="ij")
    return fn(x, y, z)[None, ...], h


class TestFornberg:
    def test_centered_first_matches_table(self):
        w = fd_weights(np.arange(-3, 4, dtype=float), 0.0, 1)
        assert np.allclose(w, D1_CENTERED_6.weights)

    def test_centered_second_matches_table(self):
        w = fd_weights(np.arange(-3, 4, dtype=float), 0.0, 2)
        assert np.allclose(w, D2_CENTERED_6.weights)

    def test_interpolation_weights(self):
        # m = 0 gives interpolation weights; at a node they are a delta
        w = fd_weights(np.arange(-3, 4, dtype=float), 1.0, 0)
        assert np.allclose(w, [0, 0, 0, 0, 1, 0, 0], atol=1e-12)

    def test_exact_on_polynomials(self):
        nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        w = fd_weights(nodes, 0.3, 1)
        for p in range(6):
            val = np.sum(w * nodes**p)
            expect = p * 0.3 ** (p - 1) if p >= 1 else 0.0
            assert np.isclose(val, expect, atol=1e-10)

    def test_rejects_high_order(self):
        with pytest.raises(ValueError):
            fd_weights(np.array([0.0, 1.0]), 0.0, 2)


class TestStencilObject:
    def test_width_and_sides(self):
        assert D1_CENTERED_6.width == 6
        assert D1_CENTERED_6.left == 3
        assert D1_CENTERED_6.right == 3

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Stencil([0, 1], [1.0], 1)

    def test_one_sided(self):
        sl = one_sided_first("left")
        sr = one_sided_first("right")
        assert sl.left == 0 and sr.right == 0
        with pytest.raises(ValueError):
            one_sided_first("middle")


class TestApplyStencil:
    def test_linear_exact(self):
        u = np.arange(20.0).reshape(1, 1, 1, 20)
        d = apply_stencil(u, D1_CENTERED_6, 1.0, axis=3)
        assert d.shape == (1, 1, 1, 14)
        assert np.allclose(d, 1.0)

    def test_too_short_axis(self):
        u = np.zeros((1, 1, 1, 5))
        with pytest.raises(ValueError):
            apply_stencil(u, D1_CENTERED_6, 1.0, axis=3)

    def test_out_buffer(self):
        u = np.arange(20.0).reshape(1, 1, 1, 20)
        out = np.empty((1, 1, 1, 14))
        d = apply_stencil(u, D1_CENTERED_6, 1.0, axis=3, out=out)
        assert d is out
        with pytest.raises(ValueError):
            apply_stencil(u, D1_CENTERED_6, 1.0, axis=3, out=np.empty((1, 1, 1, 3)))


class TestPatchDerivatives:
    pd = PatchDerivatives(k=K)

    def test_polynomial_exact_d1(self):
        """6th-order stencils are exact for degree-6 polynomials, along
        every direction (x runs einsum's unit-stride tap loop, y and z
        its strided one)."""
        ci = np.arange(R) * 0.1
        interior = np.meshgrid(ci, ci, ci, indexing="ij")[::-1]  # x, y, z
        for direction in range(3):
            def poly(*xyz):
                a, b, c = np.roll(xyz, -direction, axis=0)
                return a**6 + b**3 * a**2 + c

            u, h = _patch(poly)
            a, b, _ = np.roll(interior, -direction, axis=0)
            da = self.pd.d1(u, h, direction)
            assert np.allclose(da[0], 6 * a**5 + 2 * b**3 * a, atol=1e-9)

    def test_polynomial_exact_d2(self):
        u, h = _patch(lambda x, y, z: x**6 + z**4)
        dzz = self.pd.d2(u, h, 2)
        c = (np.arange(R)) * h
        z, _, _ = np.meshgrid(c, c, c, indexing="ij")
        assert np.allclose(dzz[0], 12 * z**2, atol=1e-8)

    def test_mixed_derivative(self):
        u, h = _patch(lambda x, y, z: x**3 * y**2)
        dxy = self.pd.d2_mixed(u, h, 0, 1)
        c = (np.arange(R)) * h
        _, y, x = np.meshgrid(c, c, c, indexing="ij")
        assert np.allclose(dxy[0], 6 * x**2 * y, atol=1e-9)

    def test_mixed_same_direction_falls_back(self):
        u, h = _patch(lambda x, y, z: x**4)
        assert np.allclose(self.pd.d2_mixed(u, h, 0, 0), self.pd.d2(u, h, 0))

    def test_convergence_order_six(self):
        """Error in d1 of sin(x) drops ~64x when h halves."""
        errs = []
        for n in (1, 2):
            h = 0.2 / n
            c = (np.arange(R + 2 * K) - K) * h
            z, y, x = np.meshgrid(c, c, c, indexing="ij")
            u = np.sin(x)[None]
            dx = self.pd.d1(u, h, 0)
            ci = np.arange(R) * h
            zi, yi, xi = np.meshgrid(ci, ci, ci, indexing="ij")
            errs.append(np.abs(dx[0] - np.cos(xi)).max())
        rate = np.log2(errs[0] / errs[1])
        assert 5.5 < rate < 6.8

    def test_ko_kills_nyquist(self):
        """KO dissipation is maximally negative on the Nyquist mode of
        each direction."""
        h = 0.1
        c, ci = np.arange(P), np.arange(R)
        patch = np.meshgrid(c, c, c, indexing="ij")[::-1]  # x, y, z
        interior = np.meshgrid(ci, ci, ci, indexing="ij")[::-1]
        for direction in range(3):
            u = ((-1.0) ** patch[direction])[None]
            ko = self.pd.ko(u, h, direction)
            # interior starts K points into the patch
            sign = (-1.0) ** (interior[direction] + K)
            assert np.allclose(ko[0], -sign / h, atol=1e-12)

    def test_ko_vanishes_on_smooth(self):
        u, h = _patch(lambda x, y, z: 1.0 + x + x**2 + y**3 + z**4 + x**5)
        ko = self.pd.ko_all(u, h)
        assert np.abs(ko).max() < 1e-8

    def test_upwind_matches_centered_on_smooth(self):
        u, h = _patch(lambda x, y, z: np.sin(x + 0.5 * y))
        beta = np.ones((1, R, R, R))
        dup = self.pd.d1_upwind(u, h, 0, beta)
        dc = self.pd.d1(u, h, 0)
        assert np.allclose(dup, dc, atol=1e-5)

    def test_upwind_sign_selection(self):
        u, h = _patch(lambda x, y, z: x**5)  # degree 5: both biased exact
        beta = np.ones((1, R, R, R))
        dpos = self.pd.d1_upwind(u, h, 0, beta)
        dneg = self.pd.d1_upwind(u, h, 0, -beta)
        c = np.arange(R) * h
        z, y, x = np.meshgrid(c, c, c, indexing="ij")
        assert np.allclose(dpos[0], 5 * x**4, atol=1e-8)
        assert np.allclose(dneg[0], 5 * x**4, atol=1e-8)

    def test_axis_convention(self):
        """direction 0 differentiates the fastest (last) array axis."""
        u, h = _patch(lambda x, y, z: x)
        assert np.allclose(self.pd.d1(u, h, 0), 1.0)
        assert np.allclose(self.pd.d1(u, h, 1), 0.0, atol=1e-12)
        u, h = _patch(lambda x, y, z: z)
        assert np.allclose(self.pd.d1(u, h, 2), 1.0)

    def test_all_first_and_second(self):
        u, h = _patch(lambda x, y, z: x * y + z * z)
        firsts = self.pd.all_first(u, h)
        assert len(firsts) == 3
        seconds = self.pd.all_second(u, h)
        assert set(seconds) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
        assert np.allclose(seconds[(2, 2)], 2.0)
        assert np.allclose(seconds[(0, 1)], 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            self.pd.d1(np.zeros((5, 5, 5)), 0.1, 0)
        with pytest.raises(ValueError):
            self.pd.d1(np.zeros((1, 5, 5, 5)), 0.1, 0)


@given(
    amp=st.floats(0.1, 2.0),
    k1=st.integers(1, 3),
    direction=st.integers(0, 2),
)
@settings(max_examples=25, deadline=None)
def test_derivative_linearity(amp, k1, direction):
    """Property: D(a u + v) = a D(u) + D(v)."""
    pd = PatchDerivatives(k=K)
    h = 0.07
    c = (np.arange(P) - K) * h
    z, y, x = np.meshgrid(c, c, c, indexing="ij")
    u = np.sin(k1 * x + y)[None]
    v = np.cos(z - 2 * x)[None]
    left = pd.d1(amp * u + v, h, direction)
    right = amp * pd.d1(u, h, direction) + pd.d1(v, h, direction)
    assert np.allclose(left, right, rtol=1e-10, atol=1e-12)


class TestFourthOrder:
    """The 'deriv644' fallback order (4th-order stencils, 5-point KO)."""

    pd4 = PatchDerivatives(k=K, order=4)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PatchDerivatives(k=3, order=5)

    def test_shapes_match_order6(self):
        u, h = _patch(lambda x, y, z: x**2)
        assert self.pd4.d1(u, h, 0).shape == (1, R, R, R)
        assert self.pd4.d2(u, h, 1).shape == (1, R, R, R)
        assert self.pd4.d2_mixed(u, h, 0, 2).shape == (1, R, R, R)
        assert self.pd4.ko(u, h, 2).shape == (1, R, R, R)

    def test_exact_on_degree4(self):
        u, h = _patch(lambda x, y, z: x**4 + y**3)
        c = np.arange(R) * h
        z, y, x = np.meshgrid(c, c, c, indexing="ij")
        assert np.allclose(self.pd4.d1(u, h, 0)[0], 4 * x**3, atol=1e-9)
        assert np.allclose(self.pd4.d2(u, h, 0)[0], 12 * x**2, atol=1e-8)

    def test_convergence_rate_four(self):
        errs = []
        for n in (1, 2):
            h = 0.2 / n
            c = (np.arange(P) - K) * h
            z, y, x = np.meshgrid(c, c, c, indexing="ij")
            dx = self.pd4.d1(np.sin(x)[None], h, 0)
            ci = np.arange(R) * h
            zi, yi, xi = np.meshgrid(ci, ci, ci, indexing="ij")
            errs.append(np.abs(dx[0] - np.cos(xi)).max())
        rate = np.log2(errs[0] / errs[1])
        assert 3.5 < rate < 4.6

    def test_ko5_damps_nyquist(self):
        h = 0.1
        c = np.arange(P)
        z, y, x = np.meshgrid(c, c, c, indexing="ij")
        u = ((-1.0) ** x)[None]
        ko = self.pd4.ko(u, h, 0)
        ci = np.arange(R)
        zi, yi, xi = np.meshgrid(ci, ci, ci, indexing="ij")
        sign = (-1.0) ** (xi + K)
        assert np.allclose(ko[0], -sign / h, atol=1e-12)
