"""Executors for the octant-to-patch (unzip) operation — Algorithm 2.

Two variants, mirroring the paper's Fig. 7 comparison:

* :func:`scatter_to_patches` — *loop-over-octants*: each coarse source is
  prolonged exactly once (:func:`prolong_sources`) and its data is
  scattered to all neighbouring patches; reads are sequential over
  octants.  This is the proposed GPU-friendly algorithm.
* :func:`gather_to_patches` — *loop-over-patches*: the legacy algorithm;
  each destination patch gathers from its neighbours, re-interpolating
  every coarse source once per destination pair (redundant work) with
  scattered reads.

Both produce identical patches (asserted in the tests); only the work and
access pattern differ.  The scatter has three byte-identical executions:
one fancy assignment per plan group off whole-block upsamples (the
reference), two ``np.take`` off the plan's last-writer gather map (the
NumPy chunk kernels), and the native ``unzip_gather`` a compiled chunk
kernel hands in as ``executor=`` — which also fills the out-of-domain
padding natively, bit for bit as :func:`extrapolate_boundary` does after
the other two.  The last two read the compact upsample of
:func:`prolong_sources`: only the fine rows the map reads, computed
natively (``prolong``) or by NumPy.  Each can fill the patches of an
octant range only.
"""

from __future__ import annotations

import numpy as np

from repro.perf import span

from .interp import extrapolation_matrix_1d, prolong_blocks, scratch
from .maps import CASE_COARSE, TransferPlan


def _flat_views(plan: TransferPlan, u: np.ndarray, patches: np.ndarray,
                m: int):
    """``u`` and the patches of ``m`` octants, flattened per octant."""
    r, P = plan.r, plan.P
    n = len(plan.tree)
    if u.shape[-4:] != (n, r, r, r):
        raise ValueError(f"fields must have shape (..., {n}, {r}, {r}, {r})")
    lead = u.shape[:-4]
    if patches.shape != lead + (m, P, P, P):
        raise ValueError("patch buffer has wrong shape")
    return u.reshape(lead + (n, r**3)), patches.reshape(lead + (m, P**3))


def allocate_patches(plan: TransferPlan, lead: tuple[int, ...] = (), *,
                     dtype=np.float64) -> np.ndarray:
    """Zero-filled patch buffer for a plan (with leading axes)."""
    P = plan.P
    return np.zeros(lead + (len(plan.tree), P, P, P), dtype=dtype)


def prolong_sources(plan: TransferPlan, u: np.ndarray, lo: int = 0,
                    hi: int | None = None, *, pool=None, tracer=None,
                    executor=None) -> np.ndarray:
    """Alg. 2's prolongation: every fine x row the patches of octants
    ``lo:hi`` (default all) read — :meth:`~repro.mesh.maps.TransferPlan.
    prolong_rows`, each coarse source prolonged once — at its row of the
    returned compact ``(..., n_up, 2r-1)`` upsample; rows the range does
    not read are left as they are.  ``executor`` — a compiled chunk
    kernel's ``prolong(plan, u, up, lo, hi)`` — computes only those rows,
    straight from ``u``, and returns False for what it cannot take; then
    the NumPy execution runs: :func:`~repro.mesh.interp.prolong_blocks`
    of the sources, the rows picked out.  The two are bitwise equal.
    ``pool`` (duck-typed ``get(name, shape, dtype)``) supplies the
    result buffer."""
    if u.ndim < 4 or u.shape[-4] != len(plan.tree):
        raise ValueError(f"fields must hold the plan's {len(plan.tree)} "
                         f"octants on axis -4, not shape {u.shape}")
    lead, f = u.shape[:-4], 2 * plan.r - 1
    with span(tracer, "unzip.prolong", "mesh"):
        up = scratch(pool, "unzip.prolong",
                     lead + (len(plan.upsample_rows), f), u.dtype)
        table = plan.prolong_rows(lo, hi)
        if len(table) and (executor is None
                           or not executor(plan, u, up, lo, hi)):
            octs, src = np.unique(table[:, 1], return_inverse=True)
            blocks = prolong_blocks(u[..., octs, :, :, :], plan.r)
            up[..., table[:, 0], :] = blocks.reshape(lead + (-1, f))[
                ..., src * f * f + table[:, 2], :]
    return up


def scatter_to_patches(
    plan: TransferPlan,
    u: np.ndarray,
    out: np.ndarray,
    *,
    coalesce: bool = False,
    tracer=None,
    executor=None,
    up: np.ndarray | None = None,
    lo: int = 0,
    hi: int | None = None,
) -> np.ndarray:
    """Loop-over-octants unzip: fill the padded patches of octants
    ``lo:hi`` (default every octant) into ``out`` ``(..., hi - lo, P, P,
    P)``, whose octant 0 is ``lo``.

    The reference execution prolongs every coarse source once
    (:func:`~repro.mesh.interp.prolong_blocks`), then runs one fancy
    assignment per plan group and the interior copy.
    ``coalesce=True`` replaces them with two ``np.take`` off the plan's
    :meth:`~repro.mesh.maps.TransferPlan.gather_map`; ``executor`` — a
    compiled chunk kernel's ``unzip_gather(plan, u, up, out, lo, hi)`` —
    replaces them and the padding extrapolation with native kernels over
    the map and :meth:`~repro.mesh.maps.TransferPlan.face_table`, and
    returns False for what it cannot take (then the NumPy execution
    runs).  Both read the compact upsample ``up`` of
    :func:`prolong_sources` covering the range — prolonged here when
    None.  All three are byte-identical.  ``tracer``
    (a :class:`repro.telemetry.Tracer`) spans the prolongation and
    copy sub-phases on the trace timeline.
    """
    hi = len(plan.tree) if hi is None else hi
    if not 0 <= lo <= hi <= len(plan.tree):
        raise ValueError(f"octant range {lo}:{hi} outside the mesh")
    uf, pf = _flat_views(plan, u, out, hi - lo)
    lead, f = u.shape[:-4], 2 * plan.r - 1
    if up is None and (coalesce or executor is not None):
        up = prolong_sources(plan, u, lo, hi, tracer=tracer)
    elif up is not None and up.shape != lead + (len(plan.upsample_rows), f):
        raise ValueError("upsample buffer has wrong shape")

    with span(tracer, "unzip.scatter", "mesh"):
        if executor is None or not executor(plan, u, up, out, lo, hi):
            if coalesce:
                direct, dsrc, coarse, csrc = plan.gather_split(lo, hi)
                pflat = pf.reshape(lead + (-1,))
                pflat[..., direct] = np.take(uf.reshape(lead + (-1,)), dsrc,
                                             axis=-1)
                pflat[..., coarse] = np.take(up.reshape(lead + (-1,)), csrc,
                                             axis=-1)
            else:
                upf = prolong_blocks(u[..., plan.prolong_octs, :, :, :],
                                     plan.r).reshape(lead + (-1, f**3))
                for grp in plan.groups:  # already ordered coarse -> same -> fine
                    sel = (grp.dst >= lo) & (grp.dst < hi)
                    src, dst = grp.src[sel][:, None], grp.dst[sel][:, None] - lo
                    if grp.case == CASE_COARSE:
                        src_vals = upf[..., plan.prolong_row[src], grp.src_template]
                    else:
                        src_vals = uf[..., src, grp.src_template]
                    pf[..., dst, grp.dst_template] = src_vals
                _copy_interior(plan, u[..., lo:hi, :, :, :], out)
            extrapolate_boundary(plan, out, lo, hi)
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
    uf, pf = _flat_views(plan, u, out, len(plan.tree))

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


def extrapolate_boundary(plan: TransferPlan, patches: np.ndarray,
                         lo: int = 0, hi: int | None = None) -> None:
    """Fill out-of-domain padding by degree-4 extrapolation
    (:func:`~repro.mesh.interp.extrapolation_matrix_1d`) in the patches
    of octants ``lo:hi`` (default all), whose octant 0 is ``lo``.

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
    a, b = k, k + r
    for axis, side, octs in plan.boundary_range(lo, hi):
        octs = octs - lo  # the chunk's own octant numbers
        E = extrapolation_matrix_1d(r, k, side)
        sub = patches[..., octs, :, :, :]
        if axis == 0:  # x: last array axis
            vals = np.einsum("kr,...r->...k", E, sub[..., :, :, a:b])
            if side == "low":
                patches[..., octs, :, :, 0:k] = vals
            else:
                patches[..., octs, :, :, b:P] = vals
        elif axis == 1:  # y
            vals = np.einsum("kr,...rx->...kx", E, sub[..., :, a:b, :])
            if side == "low":
                patches[..., octs, :, 0:k, :] = vals
            else:
                patches[..., octs, :, b:P, :] = vals
        else:  # z
            vals = np.einsum("kr,...ryx->...kyx", E, sub[..., a:b, :, :])
            if side == "low":
                patches[..., octs, 0:k, :, :] = vals
            else:
                patches[..., octs, b:P, :, :] = vals
