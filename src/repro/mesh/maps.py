"""The octant-to-patch transfer plan (O2P map of paper §III-C / §IV-A).

Geometry is done on the *node lattice*: node coordinate = 6 x binary
lattice coordinate, so that the i-th grid point of an octant with binary
anchor ``a`` and binary size ``s`` sits at integer node coordinate
``6 a + i s`` (r = 7 points, 6 intervals).  On this lattice all three 2:1
transfer cases reduce to integer strided copies:

* same level            -> direct copy (stride 1 from the source block);
* source one level coarser -> stride-1 copy from the source's 13^3
  upsample (tensor-product prolongation, done once per octant, of only
  the fine rows some patch reads);
* source one level finer  -> stride-2 copy (injection).

Pairs with identical relative geometry are grouped by signature so the
whole scatter executes as a few dozen broadcast fancy-index assignments
instead of a Python loop over ~20 n pairs.  :meth:`TransferPlan.gather_map`
folds those writes into one source per patch point — the gather the
NumPy and native executions copy by, in destination order.
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

    @property
    def points_per_pair(self) -> int:
        """Patch points written per (src, dst) pair."""
        return len(self.dst_template)

    @property
    def num_pairs(self) -> int:
        """Number of (src, dst) pairs in this group."""
        return len(self.src)


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
        """Prolongation flops for the given unzip mode: the tap-order
        multiply-adds of one whole-block prolongation
        (:func:`~repro.mesh.interp.prolong_flops`) per coarse source
        (scatter) or per coarse pair (gather)."""
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
        #: per-range caches of :meth:`prolong_rows`, :meth:`gather_split`
        #: and :meth:`face_table`, keyed ``(name, lo, hi)``
        self._ranged: dict = {}
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
    def gather_map(self) -> np.ndarray:
        """Cached int32 ``(n, P^3)``: for every patch point the source of
        its *last* write in the group loop's order — coarse, same and fine
        groups, then the interior copy.  ``m >= 0`` indexes the ``(n,
        r^3)`` field, ``m <= -2`` the compact ``(n_up, 2r-1)`` upsample
        as ``-2 - m``, and ``-1`` marks out-of-domain padding, which the
        face fill writes.  Copying by it is the group loop, bit for bit.

        Built by that loop on source indices: each group is one fancy
        assignment whose destinations are distinct (a signature fixes
        the source of a destination octant; checked), so no assignment
        depends on NumPy's order for repeated indices, and statement
        order makes the last group win.  The upsample points it names
        are then renumbered into the compact layout: only the fine x
        rows ``(source, Z, Y)`` some point reads, in that order
        (:attr:`upsample_rows`).
        """
        cached = getattr(self, "_gather_map", None)
        if cached is None:
            n, r, P = len(self.tree), self.r, self.P
            f = 2 * r - 1
            if max(n * P**3, len(self.prolong_octs) * f**3) >= 2**31:
                raise ValueError("mesh too large for an int32 gather map")
            cached = np.full((n, P**3), -1, dtype=np.int32)
            for grp in self.groups:  # already ordered coarse -> same -> fine
                if len(np.unique(grp.dst)) != grp.num_pairs:
                    raise AssertionError(
                        "a group writes one patch twice (internal bug)")
                if grp.case == CASE_COARSE:
                    rows = self.prolong_row[grp.src][:, None] * f**3
                    src = -2 - (rows + grp.src_template)
                else:
                    src = grp.src[:, None] * r**3 + grp.src_template
                cached[grp.dst[:, None], grp.dst_template] = src
            inner = (slice(None),) + (slice(self.k, self.k + r),) * 3
            cached.reshape(n, P, P, P)[inner] = np.arange(n * r**3).reshape(
                n, r, r, r)
            up = cached <= -2
            point = -2 - cached[up]
            self._upsample_rows, row = np.unique(point // f,
                                                 return_inverse=True)
            cached[up] = -2 - (row * f + point % f)
            self._gather_map = cached
        return cached

    @property
    def upsample_rows(self) -> np.ndarray:
        """``prolong_row (2r-1)^2 + Z (2r-1) + Y`` of every row of the
        compact upsample :meth:`gather_map` indexes, ascending."""
        self.gather_map()
        return self._upsample_rows

    def _range(self, name: str, lo: int, hi: int | None, build):
        key = (name, lo, len(self.tree) if hi is None else hi)
        if key not in self._ranged:
            self._ranged[key] = build(*key[1:])
        return self._ranged[key]

    def prolong_rows(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Cached int64 ``(rows, 3)`` table of the compact upsample rows
        the patches of octants ``lo:hi`` read (every row for the whole
        mesh), ascending: compact row, source octant, ``Z (2r-1) + Y``."""
        def build(lo, hi):
            m = self.gather_map()[lo:hi]
            f = 2 * self.r - 1
            rows = np.unique((-2 - m[m <= -2]) // f)
            code = self.upsample_rows[rows]
            return np.stack([rows, self.prolong_octs[code // f**2],
                             code % f**2], axis=1)
        return self._range("rows", lo, hi, build)

    def gather_split(self, lo: int = 0, hi: int | None = None):
        """Cached :meth:`gather_map` rows ``lo:hi`` split by source for
        the NumPy execution: ``(points, sources)`` reading the field, then
        the upsample, points flat in the ``(hi - lo, P^3)`` patches."""
        def build(lo, hi):
            m = self.gather_map()[lo:hi].ravel()
            direct, coarse = np.flatnonzero(m >= 0), np.flatnonzero(m <= -2)
            return direct, m[direct], coarse, -2 - m[coarse]
        return self._range("split", lo, hi, build)

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

    def boundary_range(self, lo: int = 0, hi: int | None = None
                       ) -> list[tuple[int, str, np.ndarray]]:
        """Cached ``(axis, side, octants)`` faces of :attr:`boundary` whose
        octant is in ``lo:hi`` (default all)."""
        def build(lo, hi):
            ranged = [(axis, side, octs[(octs >= lo) & (octs < hi)])
                      for axis, side, octs in self.boundary]
            return [face for face in ranged if len(face[2])]
        return self._range("boundary", lo, hi, build)

    def face_table(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Cached int64 rows ``(octant, axis, side)`` — side 0 low, 1 high
        — one per physical-boundary face whose octant is in ``lo:hi``
        (default all), in :attr:`boundary` order (x faces, then y, then z:
        the order the padding must be filled in), for the native boundary
        kernels."""
        def build(lo, hi):
            rows = [np.stack([octs, np.full_like(octs, axis),
                              np.full_like(octs, side == "high")], axis=1)
                    for axis, side, octs in self.boundary_range(lo, hi)]
            return (np.concatenate(rows) if rows
                    else np.zeros((0, 3), dtype=np.int64))
        return self._range("faces", lo, hi, build)

    def boundary_octants(self) -> np.ndarray:
        """Unique indices of octants touching the physical boundary."""
        if not self.boundary:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate([b[2] for b in self.boundary]))
