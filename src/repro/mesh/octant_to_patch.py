"""Executors for the octant-to-patch (unzip) operation — Algorithm 2.

Two variants, mirroring the paper's Fig. 7 comparison:

* :func:`scatter_to_patches` — *loop-over-octants*: each coarse source is
  prolonged exactly once and its data is scattered to all neighbouring
  patches; reads are sequential over octants.  This is the proposed
  GPU-friendly algorithm.
* :func:`gather_to_patches` — *loop-over-patches*: the legacy algorithm;
  each destination patch gathers from its neighbours, re-interpolating
  every coarse source once per destination pair (redundant work) with
  scattered reads.

Both produce identical patches (asserted in the tests); only the work and
access pattern differ.  The scatter itself has three byte-identical
executions: one fancy assignment per plan group (the reference), the
coalesced two-gather form the NumPy chunk kernels use, and the native
box copies a compiled chunk kernel hands in as ``scatter=`` — which also
fills the out-of-domain padding natively, bit for bit as
:func:`extrapolate_boundary` does after the other two.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.perf import hot_path

from .interp import extrapolation_matrix_1d, prolong_blocks, scratch
from .maps import CASE_COARSE, TransferPlan


_NO_SPAN = nullcontext()


def _flat_views(plan: TransferPlan, u: np.ndarray, patches: np.ndarray):
    r, P = plan.r, plan.P
    n = len(plan.tree)
    if u.shape[-4:] != (n, r, r, r):
        raise ValueError(f"fields must have shape (..., {n}, {r}, {r}, {r})")
    lead = u.shape[:-4]
    if patches.shape != lead + (n, P, P, P):
        raise ValueError("patch buffer has wrong shape")
    return u.reshape(lead + (n, r**3)), patches.reshape(lead + (n, P**3))


def allocate_patches(plan: TransferPlan, lead: tuple[int, ...] = (), *,
                     dtype=np.float64) -> np.ndarray:
    """Zero-filled patch buffer for a plan (with leading axes)."""
    P = plan.P
    return np.zeros(lead + (len(plan.tree), P, P, P), dtype=dtype)


@hot_path
def _pooled_take(flat: np.ndarray, idx: np.ndarray, pool, name: str) -> np.ndarray:
    """Gather ``flat[..., idx]``, routed through a pooled buffer when given."""
    if pool is None:
        return flat[..., idx]
    buf = pool.get(name, flat.shape[:-1] + (len(idx),), flat.dtype)
    np.take(flat, idx, axis=-1, out=buf)
    return buf


def _span(tracer, name: str):
    """``tracer.span`` on the mesh timeline; a no-op without a tracer."""
    return _NO_SPAN if tracer is None else tracer.span(name, "mesh")


@hot_path
def scatter_to_patches(
    plan: TransferPlan,
    u: np.ndarray,
    out: np.ndarray,
    *,
    coalesce: bool = False,
    pool=None,
    tracer=None,
    scatter=None,
) -> np.ndarray:
    """Loop-over-octants unzip: fill padded patches for every octant.

    The reference execution is one fancy assignment per plan group.
    ``coalesce=True`` replaces them with (at most) two concatenated
    gather/scatter pairs over the plan's cached
    :class:`~repro.mesh.maps.CoalescedScatter` indices; ``scatter`` — a
    compiled chunk kernel's ``unzip_scatter(plan, u, up, out)`` —
    replaces them, the interior copy and the padding extrapolation with
    native kernels over :meth:`~repro.mesh.maps.TransferPlan.box_table`
    and :meth:`~repro.mesh.maps.TransferPlan.face_table`, and returns
    False for what it cannot take (then the NumPy execution runs).  All
    three are byte-identical.  ``pool`` (duck-typed
    ``get(name, shape, dtype)``) supplies the prolongation buffers and
    gather staging so the hot path allocates nothing.  ``tracer``
    (a :class:`repro.telemetry.Tracer`) spans the prolongation and
    scatter sub-phases on the trace timeline.
    """
    uf, pf = _flat_views(plan, u, out)
    lead = u.shape[:-4]

    # prolong every coarse source exactly once
    n_pro = len(plan.prolong_octs)
    up = None
    with _span(tracer, "unzip.prolong"):
        if n_pro:
            r, f = plan.r, 2 * plan.r - 1
            src = scratch(pool, "unzip.prolong_src", lead + (n_pro, r, r, r),
                          u.dtype)
            np.take(u, plan.prolong_octs, axis=-4, out=src)
            up = prolong_blocks(
                src, r, pool=pool,
                out=scratch(pool, "unzip.prolong", lead + (n_pro, f, f, f),
                            u.dtype),
            )

    with _span(tracer, "unzip.scatter"):
        if scatter is None or not scatter(plan, u, up, out):
            if coalesce:
                co = plan.coalesced()
                pflat = pf.reshape(lead + (-1,))
                if len(co.coarse_src):
                    uplat = up.reshape(lead + (-1,))
                    pflat[..., co.coarse_dst] = _pooled_take(
                        uplat, co.coarse_src, pool, "unzip.coarse_vals"
                    )
                if len(co.direct_src):
                    uflat = uf.reshape(lead + (-1,))
                    pflat[..., co.direct_dst] = _pooled_take(
                        uflat, co.direct_src, pool, "unzip.direct_vals"
                    )
            else:
                upf = None if up is None else up.reshape(lead + (n_pro, -1))
                for grp in plan.groups:  # already ordered coarse -> same -> fine
                    if grp.case == CASE_COARSE:
                        rows = plan.prolong_row[grp.src]
                        src_vals = upf[..., rows[:, None], grp.src_template[None, :]]
                    else:
                        src_vals = uf[..., grp.src[:, None], grp.src_template[None, :]]
                    pf[..., grp.dst[:, None], grp.dst_template[None, :]] = src_vals
            _copy_interior(plan, u, out)
            extrapolate_boundary(plan, out)
    return out


def gather_to_patches(
    plan: TransferPlan,
    u: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Loop-over-patches unzip (legacy baseline of Fig. 7).

    Functionally identical to :func:`scatter_to_patches`, but coarse
    sources are prolonged once *per destination pair* and source reads are
    gathered in destination order — the redundancy and poor locality the
    paper measures a ~3x penalty for.
    """
    if out is None:
        out = allocate_patches(plan, u.shape[:-4], dtype=u.dtype)
    uf, pf = _flat_views(plan, u, out)

    for grp in plan.groups:
        if grp.case == CASE_COARSE:
            # redundant per-pair prolongation: no reuse across destinations
            up = prolong_blocks(u[..., grp.src, :, :, :], plan.r)
            upf = up.reshape(u.shape[:-4] + (grp.num_pairs, (2 * plan.r - 1) ** 3))
            src_vals = upf[..., np.arange(grp.num_pairs)[:, None], grp.src_template[None, :]]
        else:
            src_vals = uf[..., grp.src[:, None], grp.src_template[None, :]]
        pf[..., grp.dst[:, None], grp.dst_template[None, :]] = src_vals

    _copy_interior(plan, u, out)
    extrapolate_boundary(plan, out)
    return out


def _copy_interior(plan: TransferPlan, u: np.ndarray, patches: np.ndarray) -> None:
    k, r = plan.k, plan.r
    patches[..., k : k + r, k : k + r, k : k + r] = u


@hot_path
def extrapolate_boundary(plan: TransferPlan, patches: np.ndarray) -> None:
    """Fill out-of-domain padding by degree-4 extrapolation
    (:func:`~repro.mesh.interp.extrapolation_matrix_1d`).

    Processed axis-by-axis (x, then y, then z) so that edge/corner regions
    outside the domain in several directions are completed progressively.
    The Sommerfeld condition overrides the RHS on the boundary face
    itself, but the points one and two in from a face read this padding
    through their stencils and are kept — so the values are part of the
    solution, and the native fill (``extrapolate_faces`` in
    :mod:`repro.codegen.cbackend`) must reproduce each einsum below tap
    for tap, not merely be smooth.  This is the ``backend="numpy"``
    execution and that kernel's oracle; it allocates a copy of the
    boundary patches per face.
    """
    r, k, P = plan.r, plan.k, plan.P
    lo, hi = k, k + r
    for axis, side, octs in plan.boundary:
        E = extrapolation_matrix_1d(r, k, side)
        sub = patches[..., octs, :, :, :]
        if axis == 0:  # x: last array axis
            vals = np.einsum("kr,...r->...k", E, sub[..., :, :, lo:hi])  # alloc-ok
            if side == "low":
                patches[..., octs, :, :, 0:k] = vals
            else:
                patches[..., octs, :, :, hi:P] = vals
        elif axis == 1:  # y
            vals = np.einsum("kr,...rx->...kx", E, sub[..., :, lo:hi, :])  # alloc-ok
            if side == "low":
                patches[..., octs, :, 0:k, :] = vals
            else:
                patches[..., octs, :, hi:P, :] = vals
        else:  # z
            vals = np.einsum("kr,...ryx->...kyx", E, sub[..., lo:hi, :, :])  # alloc-ok
            if side == "low":
                patches[..., octs, 0:k, :, :] = vals
            else:
                patches[..., octs, hi:P, :, :] = vals
