"""Re-gridding: wavelet-driven remeshing and inter-grid field transfer.

In Algorithm 1 the re-grid is the only host/device-synchronous operation:
every ``f_r`` timesteps the octree is rebuilt to track the evolving
solution and the state is transferred to the new grid.  The transfer
handles arbitrary level changes by recursive prolongation (old coarser
than new) and injection/assembly (old finer than new).
"""

from __future__ import annotations

import numpy as np

from repro.octree import LinearOctree, balance
from repro.perf import span
from .grid import Mesh
from .interp import child_window, parent_from_children, prolong_blocks
from .wavelet import field_wavelets


def regrid_flags(
    mesh: Mesh,
    fields: np.ndarray,
    eps: float,
    *,
    coarsen_factor: float = 0.1,
    max_level: int | None = None,
    min_level: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Wavelet-based (refine, coarsen) flags for the current state."""
    w = field_wavelets(fields, mesh.r)
    lv = mesh.tree.levels.astype(int)
    refine = w > eps
    if max_level is not None:
        refine &= lv < max_level
    coarsen = (w < eps * coarsen_factor) & (lv > min_level)
    coarsen &= ~refine
    return refine, coarsen


def remesh(mesh: Mesh, refine: np.ndarray, coarsen: np.ndarray,
           *, tracer=None) -> Mesh:
    """Apply flags, re-balance, and build the new mesh — or return
    ``mesh`` itself when the balanced tree has the old keys and levels,
    so callers test ``new is mesh`` before any transfer and an unchanged
    grid costs no adjacency or transfer-plan build.

    Refinement is applied first; the coarsen flags (given on the old
    tree) are then re-mapped onto the surviving leaves by key so both can
    act in a single regrid cycle.  ``tracer`` (a
    :class:`repro.telemetry.Tracer`) spans the rebuild on the timeline
    — the regrid is Alg. 1's only host/device-synchronous operation, so
    its cost is worth seeing next to the steps it interrupts.
    """
    with span(tracer, "remesh", "mesh", {"octants_before": mesh.num_octants}):
        old = mesh.tree
        tree = old.refine(refine)
        if np.asarray(coarsen, dtype=bool).any():
            # a surviving leaf has the same (key, level) as in the old tree
            pos = np.searchsorted(old.keys, tree.keys)
            pos = np.clip(pos, 0, len(old) - 1)
            survived = (old.keys[pos] == tree.keys) & (
                old.levels[pos] == tree.levels
            )
            new_coarsen = np.zeros(len(tree), dtype=bool)
            new_coarsen[survived] = np.asarray(coarsen, dtype=bool)[pos[survived]]
            tree = tree.coarsen(new_coarsen)
        tree = balance(tree)
        if (np.array_equal(tree.keys, old.keys)
                and np.array_equal(tree.levels, old.levels)):
            return mesh
        return Mesh(tree, r=mesh.r, k=mesh.k)


def transfer_fields(old: Mesh, new: Mesh, u: np.ndarray,
                    *, tracer=None) -> np.ndarray:
    """Transfer field data ``(..., n_old, r, r, r)`` onto the new mesh.

    Same-level octants are bulk-copied; refined regions are prolonged
    (exact for degree-6 polynomials), each refined block once however
    many of its children the new mesh holds; coarsened regions are
    assembled by injection from the old children.
    """
    with span(tracer, "regrid.transfer", "mesh",
              {"octants_old": old.num_octants,
               "octants_new": new.num_octants}):
        r = old.r
        if u.shape[-4:-3] != (old.num_octants,):
            raise ValueError("field does not match old mesh")
        lead = u.shape[:-4]
        out = np.empty(lead + (new.num_octants, r, r, r), dtype=u.dtype)

        old_tree, new_tree = old.tree, new.tree
        # bulk path: octants present in both trees (same anchor key and level)
        old_keys, new_keys = old_tree.keys, new_tree.keys
        pos = np.searchsorted(old_keys, new_keys)
        pos_c = np.clip(pos, 0, len(old_keys) - 1)
        same = (old_keys[pos_c] == new_keys) & (
            old_tree.levels[pos_c] == new_tree.levels
        )
        out[..., same, :, :, :] = u[..., pos_c[same], :, :, :]

        rest = np.flatnonzero(~same)
        oc_new = new_tree.octants
        # per level, the anchor and upsample of the block last refined:
        # the new octants come in Morton order, so a block's children
        # follow one another and share it
        ups: dict = {}
        for j in rest:
            out[..., j, :, :, :] = _block_for(
                old_tree,
                u,
                int(oc_new.x[j]),
                int(oc_new.y[j]),
                int(oc_new.z[j]),
                int(oc_new.level[j]),
                r,
                ups,
            )
        return out


def _block_for(
    old_tree: LinearOctree, u: np.ndarray, x: int, y: int, z: int, level: int,
    r: int, ups: dict,
) -> np.ndarray:
    """Field block for the octant (x, y, z, level) sampled from the old
    grid; ``ups`` holds, per level, the anchor and upsample of the block
    last prolonged there, so siblings share their parent's."""
    idx = int(
        old_tree.locate(
            np.array([x], dtype=np.uint64),
            np.array([y], dtype=np.uint64),
            np.array([z], dtype=np.uint64),
        )[0]
    )
    l_old = int(old_tree.levels[idx])
    if l_old == level:
        return u[..., idx, :, :, :]
    if l_old < level:
        # old octant is an ancestor: walk down, prolonging one level at a time
        blk = u[..., idx, :, :, :]
        oc = old_tree.octants
        ax, ay, az = int(oc.x[idx]), int(oc.y[idx]), int(oc.z[idx])
        for lv in range(l_old, level):
            from repro.octree.keys import MAX_DEPTH

            half = 1 << (MAX_DEPTH - lv - 1)
            cx = 1 if (x - ax) >= half else 0
            cy = 1 if (y - ay) >= half else 0
            cz = 1 if (z - az) >= half else 0
            key = (ax, ay, az)
            if ups.get(lv, (None,))[0] != key:
                ups[lv] = (key, prolong_blocks(blk, r))
            blk = child_window(ups[lv][1], cx + 2 * cy + 4 * cz, r)
            ax += cx * half
            ay += cy * half
            az += cz * half
        return blk
    # old grid is finer here: assemble from the 8 children recursively
    from repro.octree.keys import MAX_DEPTH

    half = 1 << (MAX_DEPTH - level - 1)
    children = []
    for ci in range(8):
        cx, cy, cz = ci & 1, (ci >> 1) & 1, (ci >> 2) & 1
        children.append(
            _block_for(old_tree, u, x + cx * half, y + cy * half, z + cz * half,
                       level + 1, r, ups)
        )
    stacked = np.stack(children, axis=-4)
    return parent_from_children(stacked, r)
