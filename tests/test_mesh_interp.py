"""Tests for inter-level transfer operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    child_block,
    extrapolation_matrix_1d,
    paper_interp_ops,
    parent_from_children,
    prolong_blocks,
    prolong_flops,
    prolongation_matrix_1d,
)

R = 7


def tensordot_chain(u, P):
    """The BLAS prolongation: one ``tensordot`` per axis."""
    v = np.tensordot(u, P, axes=([-3], [1]))  # (..., y, x, Z)
    v = np.tensordot(v, P, axes=([-3], [1]))  # (..., x, Z, Y)
    return np.tensordot(v, P, axes=([-3], [1]))  # (..., Z, Y, X)


def _block(fn, origin=(0.0, 0.0, 0.0), h=1.0, n=R):
    c = np.arange(n) * h
    z, y, x = np.meshgrid(c + origin[2], c + origin[1], c + origin[0], indexing="ij")
    return fn(x, y, z)


class TestProlongationMatrix:
    def test_shape_and_partition_of_unity(self):
        P = prolongation_matrix_1d(R)
        assert P.shape == (13, 7)
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_even_rows_identity(self):
        P = prolongation_matrix_1d(R)
        assert np.allclose(P[::2], np.eye(7))

    def test_exact_on_degree6(self):
        P = prolongation_matrix_1d(R)
        x = np.arange(7.0)
        xf = np.arange(13.0) / 2.0
        for p in range(7):
            assert np.allclose(P @ x**p, xf**p, atol=1e-9)


class TestProlongBlocks:
    def test_polynomial_exact(self):
        u = _block(lambda x, y, z: x**4 + x * y * z + z**6)
        up = prolong_blocks(u)
        assert up.shape == (13, 13, 13)
        expect = _block(lambda x, y, z: x**4 + x * y * z + z**6, h=0.5, n=13)
        assert np.allclose(up, expect, atol=1e-7)

    def test_leading_axes(self):
        u = np.random.default_rng(0).normal(size=(2, 3, R, R, R))
        up = prolong_blocks(u)
        assert up.shape == (2, 3, 13, 13, 13)
        assert np.allclose(up[1, 2], prolong_blocks(u[1, 2]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            prolong_blocks(np.zeros((5, 5, 5)))

    @pytest.mark.parametrize("lead", [(), (5,), (24, 5)], ids=str)
    @pytest.mark.parametrize("r", [R, 4])
    def test_bound_against_tensordot_chain(self, lead, r):
        """The tap-order prolongation against the three-``tensordot``
        (BLAS) chain it replaced, point by point: each of the two runs
        three passes of length-``r`` dot products, so each is within
        ``γ_{3r} M`` of the exact result, ``M = (|P| ⊗ |P| ⊗ |P|) |u|``,
        and the two within ``2 γ_{3r} M`` of each other, ``γ_n = n ε /
        (1 - n ε)``, ``ε = 2^-53``.  Injected points are the source
        itself in both.  With and without ``out=``, and on a strided
        input (the wavelet's)."""
        eps = 2.0**-53
        gamma = 3 * r * eps / (1 - 3 * r * eps)
        P = prolongation_matrix_1d(r)
        rng = np.random.default_rng(len(lead) * 10 + r)
        big = rng.normal(size=lead + (2 * r - 1,) * 3) * 10.0 ** rng.uniform(
            -6, 6, size=lead + (1, 1, 1)
        )
        for u in (np.ascontiguousarray(big[..., :r, :r, :r]),
                  big[..., ::2, ::2, ::2]):
            ref = tensordot_chain(u, P)
            bound = 2 * gamma * tensordot_chain(np.abs(u), np.abs(P))
            got = prolong_blocks(u, r)
            assert (np.abs(got - ref) <= bound).all()
            assert not np.array_equal(got, ref)  # two orders, not one
            assert np.array_equal(got[..., ::2, ::2, ::2], u)
            out = np.full(ref.shape, np.nan)
            assert prolong_blocks(u, r, out=out) is out
            assert np.array_equal(out, got)

    def test_inf_source_leaves_injected_points_exact(self):
        """Even fine points are copies, not ``1·u + 0·(neighbours)``: an
        inf in a coarse point must not turn the injected points beside it
        into NaN (0·inf), and the inf itself lands where it was."""
        u = np.random.default_rng(2).normal(size=(2, R, R, R))
        u[0, 3, 2, 4] = np.inf
        u[1, 0, 6, 0] = -np.inf
        with np.errstate(invalid="ignore"):
            up = prolong_blocks(u)
            blas = tensordot_chain(u, prolongation_matrix_1d(R))
        assert np.array_equal(up[..., ::2, ::2, ::2], u)
        assert np.isinf(up).sum() > 2  # the odd points beside it
        assert np.isnan(blas[..., ::2, ::2, ::2]).any()  # what BLAS did

    def test_out_must_be_contiguous(self):
        u = np.zeros((2, R, R, R))
        with pytest.raises(ValueError):
            prolong_blocks(u, out=np.zeros((2, 13, 13, 26))[..., ::2])
        with pytest.raises(ValueError):
            prolong_blocks(u, out=np.zeros((3, 13, 13, 13)))

    def test_flop_counts_positive(self):
        # the odd points' taps of the x, y and z passes: 6 (49 + 91 + 169)
        # points of 7 multiply-adds
        assert prolong_flops(7) == 2 * 7 * 6 * (49 + 91 + 169) == 25_956
        assert paper_interp_ops(7) == 3 * 13 * 343


class TestChildParent:
    def test_child_block_exact_on_poly(self):
        u = _block(lambda x, y, z: x**3 - 2 * y**2 + z)
        for ci in range(8):
            cb = child_block(u, ci)
            cx, cy, cz = ci & 1, (ci >> 1) & 1, (ci >> 2) & 1
            expect = _block(
                lambda x, y, z: x**3 - 2 * y**2 + z,
                origin=(cx * 3.0, cy * 3.0, cz * 3.0),
                h=0.5,
            )
            assert np.allclose(cb, expect, atol=1e-9), f"child {ci}"

    def test_parent_from_children_inverts_child_block(self):
        u = _block(lambda x, y, z: np.sin(x) + np.cos(y * z / 5.0))
        kids = np.stack([child_block(u, ci) for ci in range(8)], axis=-4)
        back = parent_from_children(kids)
        # injection picks exactly the coarse points: exact roundtrip
        assert np.allclose(back, u, atol=1e-12)

    def test_parent_shape_validation(self):
        with pytest.raises(ValueError):
            parent_from_children(np.zeros((7, 7, 7)))


class TestExtrapolation:
    def test_exact_on_cubic(self):
        for side in ("low", "high"):
            E = extrapolation_matrix_1d(7, 3, side)
            x = np.arange(7.0)
            xe = np.array([-3.0, -2.0, -1.0]) if side == "low" else np.array([7.0, 8.0, 9.0])
            for p in range(5):  # degree-4 extrapolation
                assert np.allclose(E @ x**p, xe**p, atol=1e-9), (side, p)

    def test_row_count(self):
        E = extrapolation_matrix_1d(7, 3, "low")
        assert E.shape == (3, 7)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_prolong_then_inject_is_identity(seed):
    """Property: injection (even-sample) of a prolongation recovers the
    original block exactly."""
    u = np.random.default_rng(seed).normal(size=(R, R, R))
    up = prolong_blocks(u)
    assert np.allclose(up[::2, ::2, ::2], u, atol=1e-12)
