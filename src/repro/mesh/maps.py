"""The octant-to-patch transfer plan (O2P map of paper §III-C / §IV-A).

Geometry is done on the *node lattice*: node coordinate = 6 x binary
lattice coordinate, so that the i-th grid point of an octant with binary
anchor ``a`` and binary size ``s`` sits at integer node coordinate
``6 a + i s`` (r = 7 points, 6 intervals).  On this lattice all three 2:1
transfer cases reduce to integer strided copies:

* same level            -> direct copy (stride 1 from the source block);
* source one level coarser -> stride-1 copy from the source's 13^3
  upsample (tensor-product prolongation, done once per octant);
* source one level finer  -> stride-2 copy (injection).

Pairs with identical relative geometry are grouped by signature so the
whole scatter executes as a few dozen broadcast fancy-index assignments
instead of a Python loop over ~20 n pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.octree import Adjacency, LinearOctree, build_adjacency
from .interp import prolong_flops

CASE_COARSE, CASE_SAME, CASE_FINE = 0, 1, 2
CASE_NAMES = {CASE_COARSE: "coarse", CASE_SAME: "same", CASE_FINE: "fine"}


@dataclass
class TransferGroup:
    """One signature group: all (src, dst) pairs sharing a template."""

    case: int
    src: np.ndarray  # source octant indices, shape (m,)
    dst: np.ndarray  # destination octant indices, shape (m,)
    src_template: np.ndarray  # flat indices into the source lattice
    dst_template: np.ndarray  # flat indices into the P^3 patch
    #: the templates' box: one row per axis (x, y, z) of ``(j0, j1, i0)``
    #: — patch points ``j0..j1`` read source points ``i0, i0 + s, ...``
    box: np.ndarray

    @property
    def points_per_pair(self) -> int:
        """Patch points written per (src, dst) pair."""
        return len(self.dst_template)

    @property
    def num_pairs(self) -> int:
        """Number of (src, dst) pairs in this group."""
        return len(self.src)


@dataclass
class CoalescedScatter:
    """All per-group fancy indices of one plan, concatenated into flat
    ``(octant * points)`` index arrays so the whole scatter executes as
    (at most) two gather/scatter pairs: one from the prolongation buffer
    (coarse sources) and one from the field itself (same + fine).

    Concatenation preserves the plan's group order (coarse → same →
    fine), so overlapping destinations resolve exactly as the sequential
    per-group scatter does (later writes win).
    """

    coarse_src: np.ndarray  # flat indices into the (n_pro, (2r-1)^3) upsample
    coarse_dst: np.ndarray  # flat indices into the (n, P^3) patch buffer
    direct_src: np.ndarray  # flat indices into the (n, r^3) field
    direct_dst: np.ndarray  # flat indices into the (n, P^3) patch buffer


#: columns of :meth:`TransferPlan.box_table`: flat offset of the box's
#: first point in the source buffer and in the ``(n, P^3)`` patch buffer,
#: points per source row (``2r-1`` for the upsample, ``r`` for the field),
#: source stride (2 = injection), and the box extent in patch points
BOX_SRC, BOX_DST, BOX_SRC_N, BOX_STRIDE, BOX_NX, BOX_NY, BOX_NZ = range(7)


@dataclass
class PlanStats:
    """Structural counters for the performance model (Table III, Fig. 14)."""

    n_octants: int = 0
    copy_points: int = 0
    inject_points: int = 0
    prolong_points: int = 0
    prolong_blocks_scatter: int = 0  # unique coarse sources (scatter mode)
    prolong_pairs_gather: int = 0  # coarse pairs (gather mode redundancy)
    r: int = 7
    k: int = 3

    def interp_flops(self, mode: str = "scatter") -> int:
        """Prolongation flops for the given unzip mode."""
        per_block = prolong_flops(self.r)
        n = self.prolong_blocks_scatter if mode == "scatter" else self.prolong_pairs_gather
        return n * per_block


class TransferPlan:
    """Precomputed O2P plan for one mesh (rebuilt only on regrid)."""

    def __init__(self, tree: LinearOctree, adjacency: Adjacency | None = None,
                 r: int = 7, k: int = 3):
        if r % 2 == 0:
            raise ValueError("r must be odd (vertex-centred blocks)")
        self.tree = tree
        self.r = r
        self.k = k
        self.P = r + 2 * k
        self.adjacency = adjacency if adjacency is not None else build_adjacency(tree)
        self.groups: list[TransferGroup] = []
        self.stats = PlanStats(n_octants=len(tree), r=r, k=k)
        self._build()
        self._build_boundary()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        tree, adj = self.tree, self.adjacency
        n = len(tree)
        r, k, P = self.r, self.k, self.P
        oc = tree.octants

        dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
        src = adj.indices.astype(np.int64)
        m = len(src)
        if m == 0:
            return

        # node-lattice geometry (int64; node coord = 6*binary coord)
        size = oc.size.astype(np.int64)
        ax = np.stack([oc.x, oc.y, oc.z]).astype(np.int64) * 6  # (3, n)
        lv = oc.level.astype(np.int64)

        g = size[dst]  # dst point spacing (node units)
        ld = lv[src] - lv[dst]  # -1 coarse, 0 same, +1 fine
        if np.any(np.abs(ld) > 1):
            raise ValueError("tree is not 2:1 balanced")
        case = ld + 1  # 0 coarse, 1 same, 2 fine

        sig_cols = [case]
        # per-axis overlap window and source start index
        for axis in range(3):
            S = ax[axis, dst] - k * g  # patch node origin
            A = ax[axis, src]  # src node origin
            ext = 6 * size[src]
            j0 = -(-(A - S) // g)  # ceil division
            j1 = (A + ext - S) // g  # floor
            np.clip(j0, 0, P - 1, out=j0)
            np.clip(j1, 0, P - 1, out=j1)
            # source index of patch point j0; effective src spacing is g for
            # same/coarse-upsampled, g/2 for fine (stride 2)
            num = S + j0 * g - A
            s_eff = np.where(case == CASE_FINE, g // 2, g)
            if np.any(num % s_eff != 0):
                raise AssertionError("node lattice misalignment (internal bug)")
            i0 = num // s_eff
            sig_cols += [j0, j1, i0]

        sig = np.stack(sig_cols, axis=1)  # (m, 10)
        uniq, inverse = np.unique(sig, axis=0, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(len(uniq) + 1))

        coarse_srcs: list[np.ndarray] = []
        for u_idx in range(len(uniq)):
            rows = order[bounds[u_idx] : bounds[u_idx + 1]]
            c = int(uniq[u_idx, 0])
            jj = uniq[u_idx, 1:].reshape(3, 3)  # rows: x, y, z -> (j0, j1, i0)
            dst_t, src_t = self._templates(c, jj)
            grp = TransferGroup(
                case=c,
                src=np.ascontiguousarray(src[rows]),
                dst=np.ascontiguousarray(dst[rows]),
                src_template=src_t,
                dst_template=dst_t,
                box=jj,
            )
            self.groups.append(grp)
            pts = grp.num_pairs * grp.points_per_pair
            if c == CASE_SAME:
                self.stats.copy_points += pts
            elif c == CASE_FINE:
                self.stats.inject_points += pts
            else:
                self.stats.prolong_points += pts
                coarse_srcs.append(grp.src)
                self.stats.prolong_pairs_gather += grp.num_pairs

        # execution priority: coarse first, then same, then fine (finer data
        # overwrites coarser at shared source boundaries); self-copy of the
        # interior happens last in the executor.
        self.groups.sort(key=lambda grp: grp.case)

        if coarse_srcs:
            self.prolong_octs = np.unique(np.concatenate(coarse_srcs))
        else:
            self.prolong_octs = np.zeros(0, dtype=np.int64)
        self.stats.prolong_blocks_scatter = len(self.prolong_octs)
        self.prolong_row = np.full(n, -1, dtype=np.int64)
        self.prolong_row[self.prolong_octs] = np.arange(len(self.prolong_octs))

    def _templates(self, case: int, jj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flattened destination/source index templates for one signature."""
        P = self.P
        src_n = 2 * self.r - 1 if case == CASE_COARSE else self.r
        stride = 2 if case == CASE_FINE else 1
        dst_ax, src_ax = [], []
        for axis in range(3):  # x, y, z
            j0, j1, i0 = (int(v) for v in jj[axis])
            j = np.arange(j0, j1 + 1, dtype=np.int64)
            i = i0 + stride * (j - j0)
            if i.size and (i[0] < 0 or i[-1] >= src_n):
                raise AssertionError("source template out of range (internal bug)")
            dst_ax.append(j)
            src_ax.append(i)
        # flatten with C order [z, y, x]
        jx, jy, jz = dst_ax
        ix, iy, iz = src_ax
        dst_t = (
            (jz[:, None, None] * P + jy[None, :, None]) * P + jx[None, None, :]
        ).ravel()
        src_t = (
            (iz[:, None, None] * src_n + iy[None, :, None]) * src_n
            + ix[None, None, :]
        ).ravel()
        return dst_t, src_t

    # ------------------------------------------------------------------
    def coalesced(self) -> CoalescedScatter:
        """Cached concatenated index arrays for the coalesced scatter."""
        cached = getattr(self, "_coalesced", None)
        if cached is None:
            P3 = self.P**3
            r3 = self.r**3
            f3 = (2 * self.r - 1) ** 3
            cs: list[np.ndarray] = []
            cd: list[np.ndarray] = []
            ds: list[np.ndarray] = []
            dd: list[np.ndarray] = []
            for grp in self.groups:  # already ordered coarse -> same -> fine
                dflat = (
                    grp.dst[:, None] * P3 + grp.dst_template[None, :]
                ).ravel()
                if grp.case == CASE_COARSE:
                    rows = self.prolong_row[grp.src]
                    cs.append(
                        (rows[:, None] * f3 + grp.src_template[None, :]).ravel()
                    )
                    cd.append(dflat)
                else:
                    ds.append(
                        (grp.src[:, None] * r3 + grp.src_template[None, :]).ravel()
                    )
                    dd.append(dflat)

            def cat(parts):
                if not parts:
                    return np.zeros(0, dtype=np.int64)
                return np.concatenate(parts)

            cached = CoalescedScatter(
                coarse_src=cat(cs),
                coarse_dst=cat(cd),
                direct_src=cat(ds),
                direct_dst=cat(dd),
            )
            self._coalesced = cached
        return cached

    def box_table(self) -> tuple[np.ndarray, int]:
        """Cached ``(table, n_coarse)``: the groups lowered to one int64
        row per (src, dst) pair (columns ``BOX_*``), in group order, for
        the native box-copy kernels.

        Every template is a box, so a row replaces the pair's
        ``points_per_pair`` fancy indices by seven integers.  The first
        ``n_coarse`` rows read the ``(n_pro, (2r-1)^3)`` upsample, the
        rest the ``(n, r^3)`` field; copying row after row resolves
        overlapping destinations exactly as the sequential group loop.
        """
        cached = getattr(self, "_box_table", None)
        if cached is None:
            P, r = self.P, self.r
            parts: list[np.ndarray] = []
            n_coarse = 0
            for grp in self.groups:  # already ordered coarse -> same -> fine
                (j0x, j1x, i0x), (j0y, j1y, i0y), (j0z, j1z, i0z) = grp.box.tolist()
                if grp.case == CASE_COARSE:
                    block, sn = self.prolong_row[grp.src], 2 * r - 1
                    n_coarse += grp.num_pairs
                else:
                    block, sn = grp.src, r
                rows = np.empty((grp.num_pairs, 7), dtype=np.int64)
                rows[:, BOX_SRC] = block * sn**3 + (i0z * sn + i0y) * sn + i0x
                rows[:, BOX_DST] = grp.dst * P**3 + (j0z * P + j0y) * P + j0x
                rows[:, BOX_SRC_N:] = (
                    sn, 2 if grp.case == CASE_FINE else 1,
                    max(j1x - j0x + 1, 0), max(j1y - j0y + 1, 0),
                    max(j1z - j0z + 1, 0),
                )
                parts.append(rows)
            table = (np.concatenate(parts) if parts
                     else np.zeros((0, 7), dtype=np.int64))
            cached = self._box_table = (table, n_coarse)
        return cached

    # ------------------------------------------------------------------
    def _build_boundary(self) -> None:
        """Octants whose patches stick out of the physical domain, per
        (axis, side)."""
        from repro.octree.keys import LATTICE

        oc = self.tree.octants
        size = oc.size.astype(np.int64)
        lat = int(LATTICE)
        anchors = [oc.x.astype(np.int64), oc.y.astype(np.int64), oc.z.astype(np.int64)]
        self.boundary: list[tuple[int, str, np.ndarray]] = []
        for axis in range(3):
            low = np.flatnonzero(anchors[axis] == 0)
            high = np.flatnonzero(anchors[axis] + size == lat)
            if len(low):
                self.boundary.append((axis, "low", low))
            if len(high):
                self.boundary.append((axis, "high", high))

    def face_table(self) -> np.ndarray:
        """Cached int64 rows ``(octant, axis, side)`` — side 0 low, 1 high
        — one per physical-boundary face, in :attr:`boundary` order (x
        faces, then y, then z: the order the padding must be filled in),
        for the native boundary kernels."""
        cached = getattr(self, "_face_table", None)
        if cached is None:
            rows = [
                np.stack([octs, np.full_like(octs, axis),
                          np.full_like(octs, side == "high")], axis=1)
                for axis, side, octs in self.boundary
            ]
            cached = self._face_table = (
                np.concatenate(rows) if rows
                else np.zeros((0, 3), dtype=np.int64))
        return cached

    def boundary_octants(self) -> np.ndarray:
        """Unique indices of octants touching the physical boundary."""
        if not self.boundary:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate([b[2] for b in self.boundary]))
