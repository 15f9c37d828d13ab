"""Vectorised application of FD stencils to octant patches.

Patches are arrays of shape ``(..., n_oct, P, P, P)`` with ``P = r + 2k``
(paper §III-C: r = 7, k = 3).  Applying a 7-point stencil along one axis
consumes the padding on that axis; the helpers below return derivatives on
the ``r^3`` interior, matching what the GPU RHS kernel computes into
thread-local storage (Fig. 9).

A stencil is one contraction over a sliding-window view (``np.einsum``
over the tap axis): the input is read once per tap but the output is
written exactly once and *no* per-tap temporary is materialised — the
Python analogue of the paper's single-pass GPU derivative kernels.  A
stencil whose offsets are not contiguous has no dense tap vector and
falls back to the accumulation loop :func:`_apply_taps`, which doubles
as the independent oracle for the einsum kernel in the tests.

All entry points accept ``out=`` to write a derivative into a given
buffer; internal scratch is allocated per call.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stencils import (
    D1_CENTERED_4,
    D1_CENTERED_6,
    D1_UPWIND_NEG,
    D1_UPWIND_POS,
    D2_CENTERED_4,
    D2_CENTERED_6,
    KO_DISS_4,
    KO_DISS_6,
    Stencil,
)


def _h_factor(h, h_power: int):
    """Scale factor 1/h^p for scalar h, or a broadcastable per-octant
    array for h of shape (n,) against arrays of shape (..., n, X, Y, Z)
    (the octant axis is -4)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 0:
        return float(h) ** (-h_power)
    return h.reshape((-1,) + (1,) * 3) ** (-h_power)


def _is_dense(stencil: Stencil) -> bool:
    """True when the offsets are contiguous and ascending, i.e. the
    weights already are the dense tap vector of a sliding window."""
    off = stencil.offsets
    return np.array_equal(off, np.arange(off.min(), off.max() + 1))


def _apply_taps(u: np.ndarray, stencil: Stencil, w: np.ndarray, axis: int,
                out: np.ndarray) -> None:
    """``out = Σ_j w_j · u[shifted by offset_j]`` — one shifted view and
    one temporary per tap (the fallback for non-contiguous stencils)."""
    m = out.shape[axis]
    out[...] = 0.0
    src = [slice(None)] * u.ndim
    for off, wj in zip(stencil.offsets, w):
        if wj == 0.0:
            continue
        s = int(off) + stencil.left
        src[axis] = slice(s, s + m)
        out += wj * u[tuple(src)]


def apply_stencil(
    u: np.ndarray,
    stencil: Stencil,
    h,
    axis: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a 1-D stencil along ``axis``; the output is shorter by the
    stencil width along that axis (other axes unchanged).

    ``h`` may be a scalar or a per-octant array of shape ``(n,)`` when
    ``u`` has an octant axis at position -4 (mixed-level batches).
    """
    n = u.shape[axis]
    left, right = stencil.left, stencil.right
    m = n - left - right
    if m <= 0:
        raise ValueError(f"axis {axis} too short ({n}) for stencil width {left + right}")
    h_arr = np.asarray(h, dtype=np.float64)
    if h_arr.ndim == 0:
        w = stencil.scale(float(h_arr))
        hf = None
    else:
        w = stencil.weights
        hf = _h_factor(h_arr, stencil.h_power)
    out_shape = list(u.shape)
    out_shape[axis] = m
    if out is not None and list(out.shape) != out_shape:
        raise ValueError("out has wrong shape")

    if out is None:
        out = np.empty(out_shape, dtype=u.dtype)
    if _is_dense(stencil):
        # one contraction over the tap axis of a sliding window — output
        # written once, no per-tap temporaries
        win = sliding_window_view(u, left + right + 1, axis=axis)
        # Deterministic accumulation orders, mirrored exactly by the
        # compiled backend (repro.codegen.cbackend) and pinned by its
        # bitwise tests: a unit-stride tap axis hits einsum's contiguous
        # inner loop, which keeps two alternating accumulators (even
        # taps, odd taps) and adds them once at the end; a strided tap
        # axis reduces across outer iterations, i.e. sequentially in
        # forward offset order.
        np.einsum("...w,w->...", win, w, out=out)
    else:
        _apply_taps(u, stencil, w, axis, out)
    if hf is not None:
        out *= hf
    return out


def _interior(u: np.ndarray, k: int, axes: tuple[int, ...]) -> np.ndarray:
    """Strip ``k`` points of padding from the given axes (view, no copy)."""
    sl = [slice(None)] * u.ndim
    for ax in axes:
        sl[ax] = slice(k, u.shape[ax] - k)
    return u[tuple(sl)]


class PatchDerivatives:
    """Derivative operators for padded patches ``(..., n, P, P, P)``.

    Axis convention: array index order is ``[..., oct, z, y, x]``
    (C order, x fastest) — derivative direction 0/1/2 = x/y/z maps to
    array axes -1/-2/-3.  Any number of leading batch axes is allowed
    (e.g. the 24 BSSN variables), so a whole chunk's derivatives run as
    one stencil sweep without flattening copies.  Every public method
    takes ``out=``.
    """

    def __init__(self, k: int = 3, order: int = 6):
        if order == 6:
            self._d1s, self._d2s, self._kos = (
                D1_CENTERED_6, D2_CENTERED_6, KO_DISS_6,
            )
        elif order == 4:
            self._d1s, self._d2s, self._kos = (
                D1_CENTERED_4, D2_CENTERED_4, KO_DISS_4,
            )
        else:
            raise ValueError("order must be 4 or 6")
        self.order = order
        self.k = k

    # -- helpers ---------------------------------------------------------
    def _axis(self, u: np.ndarray, direction: int) -> int:
        return u.ndim - 1 - direction

    def _spatial(self, u: np.ndarray) -> tuple[int, int, int]:
        return (u.ndim - 3, u.ndim - 2, u.ndim - 1)

    def _check(self, u: np.ndarray) -> None:
        if u.ndim < 4:
            raise ValueError("patches must have shape (..., n, P, P, P)")
        if min(u.shape[-3:]) <= 2 * self.k:
            raise ValueError("patch too small for padding width")

    def _crop(self, d: np.ndarray, left: int, n_in: int, ax: int) -> np.ndarray:
        """Crop a stencil output to the r-point interior window when the
        stencil is narrower than the padding (e.g. order 4 with k = 3)."""
        m_int = n_in - 2 * self.k
        if d.shape[ax] == m_int:
            return d
        start = self.k - left
        sl = [slice(None)] * d.ndim
        sl[ax] = slice(start, start + m_int)
        return d[tuple(sl)]

    def _sweep(self, u, stencil, h, direction, out):
        """One stencil sweep on the interior, handling the narrow-stencil
        crop; writes into ``out`` when given."""
        ax = self._axis(u, direction)
        other = tuple(a for a in self._spatial(u) if a != ax)
        v = _interior(u, self.k, other)
        m_sten = v.shape[ax] - stencil.left - stencil.right
        m_int = u.shape[ax] - 2 * self.k
        if m_sten == m_int:
            return apply_stencil(v, stencil, h, ax, out=out)
        d = apply_stencil(v, stencil, h, ax)
        c = self._crop(d, stencil.left, u.shape[ax], ax)
        if out is None:
            return c
        np.copyto(out, c)
        return out

    # -- operators -------------------------------------------------------
    def d1(self, u: np.ndarray, h, direction: int,
           out: np.ndarray | None = None) -> np.ndarray:
        """First derivative on the r^3 interior (order 6 or 4)."""
        self._check(u)
        return self._sweep(u, self._d1s, h, direction, out)

    def d2(self, u: np.ndarray, h, direction: int,
           out: np.ndarray | None = None) -> np.ndarray:
        """Second derivative ∂_ii on the interior."""
        self._check(u)
        return self._sweep(u, self._d2s, h, direction, out)

    def d2_mixed(self, u: np.ndarray, h, dir_a: int, dir_b: int,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Mixed second derivative ∂_a∂_b (a != b) as composed first
        derivatives."""
        if dir_a == dir_b:
            return self.d2(u, h, dir_a, out=out)
        self._check(u)
        ax_a, ax_b = self._axis(u, dir_a), self._axis(u, dir_b)
        other = tuple(a for a in self._spatial(u) if a not in (ax_a, ax_b))
        v = _interior(u, self.k, other)
        d = apply_stencil(v, self._d1s, h, ax_a)
        d = self._crop(d, self._d1s.left, u.shape[ax_a], ax_a)
        m_sten = d.shape[ax_b] - self._d1s.left - self._d1s.right
        m_int = u.shape[ax_b] - 2 * self.k
        if m_sten == m_int:
            return apply_stencil(d, self._d1s, h, ax_b, out=out)
        d2 = apply_stencil(d, self._d1s, h, ax_b)
        c = self._crop(d2, self._d1s.left, u.shape[ax_b], ax_b)
        if out is None:
            return c
        np.copyto(out, c)
        return out

    def ko(self, u: np.ndarray, h, direction: int,
           out: np.ndarray | None = None) -> np.ndarray:
        """Kreiss–Oliger dissipation contribution along one direction."""
        self._check(u)
        return self._sweep(u, self._kos, h, direction, out)

    def ko_all(self, u: np.ndarray, h,
               out: np.ndarray | None = None) -> np.ndarray:
        """Sum of KO dissipation along all three directions."""
        out = self.ko(u, h, 0, out=out)
        tmp = np.empty(out.shape)
        for d in (1, 2):
            out += self.ko(u, h, d, out=tmp)
        return out

    def d1_upwind(
        self, u: np.ndarray, h, direction: int, beta: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Upwind-biased first derivative chosen pointwise by sign(beta).

        ``beta`` must broadcast against the interior shape
        ``(..., n, r, r, r)`` (e.g. ``(n, r, r, r)`` for a whole-variable
        batch).
        """
        self._check(u)
        ax = self._axis(u, direction)
        other = tuple(a for a in self._spatial(u) if a != ax)
        v = _interior(u, self.k, other)
        m_int = u.shape[ax] - 2 * self.k

        def biased(stencil):
            d = apply_stencil(v, stencil, h, ax)
            # valid output index j corresponds to input index j + left;
            # the interior starts at input index k
            start = self.k - stencil.left
            sl = [slice(None)] * v.ndim
            sl[ax] = slice(start, start + m_int)
            return d[tuple(sl)]

        dpos = biased(D1_UPWIND_POS)
        dneg = biased(D1_UPWIND_NEG)
        cond = np.asarray(beta) >= 0.0
        if out is None:
            return np.where(cond, dpos, dneg)
        np.copyto(out, dneg)
        np.copyto(out, dpos, where=cond)
        return out

    def all_first(self, u: np.ndarray, h) -> list[np.ndarray]:
        """[d/dx, d/dy, d/dz] on the interior."""
        return [self.d1(u, h, d) for d in range(3)]

    def all_second(self, u: np.ndarray, h) -> dict[tuple[int, int], np.ndarray]:
        """All 6 distinct second derivatives keyed by (a, b) with a <= b."""
        out: dict[tuple[int, int], np.ndarray] = {}
        for a in range(3):
            for b in range(a, 3):
                out[(a, b)] = self.d2_mixed(u, h, a, b)
        return out
