"""Linear (leaf-only) octrees.

Only leaves are stored (paper §III-B); they are kept sorted by the Morton
key of their anchors, which is the depth-first / space-filling-curve order.
A *complete* linear octree is a set of leaves that tile the root cube with
no overlap — the invariant every operation here preserves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .domain import Domain
from .keys import LATTICE, MAX_DEPTH, key_range_size, morton_encode
from .octant import Octants


class LinearOctree:
    """A complete, sorted, duplicate-free linear octree.

    Parameters
    ----------
    octants:
        Leaf octants.  They are sorted and de-duplicated on construction.
    domain:
        Physical domain the lattice maps onto.
    """

    def __init__(self, octants: Octants, domain: Domain | None = None):
        self.domain = domain if domain is not None else Domain()
        keys = octants.keys()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        octants = octants[order]
        # drop exact duplicates (same anchor implies nesting; same anchor and
        # level is a duplicate)
        if len(octants) > 1:
            dup = (keys[1:] == keys[:-1]) & (octants.level[1:] == octants.level[:-1])
            if np.any(dup):
                keep = np.concatenate([[True], ~dup])
                octants = octants[keep]
                keys = keys[keep]
        self.octants = octants
        self._keys = keys

    # -- properties --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.octants)

    @property
    def keys(self) -> np.ndarray:
        """Morton keys of the sorted leaves."""
        return self._keys

    @property
    def levels(self) -> np.ndarray:
        """Refinement level per leaf."""
        return self.octants.level

    @property
    def max_level(self) -> int:
        """Deepest leaf level."""
        return int(self.levels.max()) if len(self) else 0

    @property
    def min_level(self) -> int:
        """Shallowest leaf level."""
        return int(self.levels.min()) if len(self) else 0

    def is_complete(self) -> bool:
        """True iff the leaves tile the root cube exactly (no gaps/overlaps).

        Uses the DFS property: in sorted order, each leaf's key range must
        begin exactly where the previous one ended, and the total must cover
        the full cube.
        """
        if len(self) == 0:
            return False
        sizes = key_range_size(self.octants.level)
        ends = np.cumsum(sizes.astype(np.float64))
        starts = self._keys.astype(np.float64)
        if starts[0] != 0.0:
            return False
        if not np.all(starts[1:] == ends[:-1]):
            return False
        return ends[-1] == float(8 ** MAX_DEPTH)

    # -- point location ----------------------------------------------------
    def locate(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Index of the leaf containing each lattice point.

        Points must lie inside the root cube ``[0, LATTICE)^3``.  Because the
        leaves are sorted by Morton key and tile the cube, the containing
        leaf is the predecessor of the point's finest-level key.
        """
        pk = morton_encode(
            np.asarray(x, dtype=np.uint64),
            np.asarray(y, dtype=np.uint64),
            np.asarray(z, dtype=np.uint64),
        )
        idx = np.searchsorted(self._keys, pk, side="right") - 1
        return idx

    def locate_checked(self, x, y, z) -> np.ndarray:
        """Like :meth:`locate` but returns -1 for points outside the cube."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        z = np.asarray(z, dtype=np.int64)
        lat = int(LATTICE)
        inside = (
            (x >= 0) & (x < lat) & (y >= 0) & (y < lat) & (z >= 0) & (z < lat)
        )
        out = np.full(x.shape, -1, dtype=np.int64)
        if np.any(inside):
            out[inside] = self.locate(
                x[inside].astype(np.uint64),
                y[inside].astype(np.uint64),
                z[inside].astype(np.uint64),
            )
        return out

    # -- refinement / coarsening --------------------------------------------
    def refine(self, flags: np.ndarray) -> "LinearOctree":
        """Replace flagged leaves by their 8 children."""
        flags = np.asarray(flags, dtype=bool)
        if flags.shape != (len(self),):
            raise ValueError("flags must have one entry per leaf")
        keep = self.octants[~flags]
        split = self.octants[flags]
        if len(split) == 0:
            return self
        kids = split.children()
        return LinearOctree(Octants.concatenate([keep, kids]), self.domain)

    def coarsen(self, flags: np.ndarray) -> "LinearOctree":
        """Merge families of 8 sibling leaves into their parent.

        A family is merged only when *all 8* siblings are leaves at the same
        level and all are flagged.  Leaves at level 0 are never coarsened.
        """
        flags = np.asarray(flags, dtype=bool)
        if flags.shape != (len(self),):
            raise ValueError("flags must have one entry per leaf")
        lv = self.octants.level
        cand = flags & (lv > 0)
        if not np.any(cand):
            return self
        # In sorted order, the 8 siblings of a family are contiguous and the
        # first sibling has child_index 0.
        ci = self.octants.child_index()
        n = len(self)
        first = np.flatnonzero(cand & (ci == 0))
        first = first[first + 7 < n]
        if len(first) == 0:
            return self
        block = first[:, None] + np.arange(8)[None, :]
        ok = np.all(cand[block], axis=1)
        ok &= np.all(lv[block] == lv[first][:, None], axis=1)
        ok &= np.all(ci[block] == np.arange(8)[None, :], axis=1)
        first = first[ok]
        if len(first) == 0:
            return self
        merged = self.octants[first].parents()
        drop = np.zeros(n, dtype=bool)
        drop[(first[:, None] + np.arange(8)[None, :]).ravel()] = True
        return LinearOctree(
            Octants.concatenate([self.octants[~drop], merged]), self.domain
        )

    # -- construction --------------------------------------------------------
    @classmethod
    def uniform(cls, level: int, domain: Domain | None = None) -> "LinearOctree":
        """A uniform octree with all leaves at the given level."""
        if not 0 <= level <= MAX_DEPTH:
            raise ValueError(f"level must be in [0, {MAX_DEPTH}]")
        n = 1 << level
        step = np.uint64(1) << np.uint64(MAX_DEPTH - level)
        c = (np.arange(n, dtype=np.uint64) * step)
        zz, yy, xx = np.meshgrid(c, c, c, indexing="ij")
        lv = np.full(n**3, level, dtype=np.uint8)
        return cls(Octants(xx.ravel(), yy.ravel(), zz.ravel(), lv), domain)

    @classmethod
    def from_refinement(
        cls,
        refine_fn: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
        *,
        domain: Domain | None = None,
        base_level: int = 2,
        max_level: int = 8,
    ) -> "LinearOctree":
        """Build a tree by repeatedly splitting octants flagged by a callable.

        ``refine_fn(centers_phys, sizes_phys, level_pass)`` receives octant
        centres ((n,3), physical units) and edge lengths ((n,), physical
        units) and returns a boolean flag array.  Splitting continues until
        nothing is flagged or ``max_level`` is reached.
        """
        tree = cls.uniform(base_level, domain)
        dom = tree.domain
        while True:
            oc = tree.octants
            can_split = oc.level < max_level
            if not np.any(can_split):
                break
            centers = dom.to_physical(oc.centers())
            sizes = oc.size.astype(np.float64) * dom.lattice_h
            flags = np.asarray(refine_fn(centers, sizes, tree.max_level), dtype=bool)
            flags &= can_split
            if not np.any(flags):
                break
            tree = tree.refine(flags)
        return tree

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        *,
        max_per_octant: int = 8,
        domain: Domain | None = None,
        base_level: int = 1,
        max_level: int = 12,
    ) -> "LinearOctree":
        """Bottom-up construction from a point cloud: split any leaf
        containing more than ``max_per_octant`` points (Dendro's
        particle-driven construction, ref. [47])."""
        dom = domain if domain is not None else Domain()
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (m, 3)")
        lat = np.floor(dom.to_lattice(pts)).astype(np.int64)
        lat_max = int(LATTICE)
        if np.any((lat < 0) | (lat >= lat_max)):
            raise ValueError("points outside the domain")
        tree = cls.uniform(base_level, dom)
        while tree.max_level < max_level:
            idx = tree.locate(
                lat[:, 0].astype(np.uint64),
                lat[:, 1].astype(np.uint64),
                lat[:, 2].astype(np.uint64),
            )
            counts = np.bincount(idx, minlength=len(tree))
            flags = (counts > max_per_octant) & (tree.levels < max_level)
            if not np.any(flags):
                break
            tree = tree.refine(flags)
        return tree

    def point_counts(self, points: np.ndarray) -> np.ndarray:
        """Number of the given physical points inside each leaf."""
        lat = np.floor(self.domain.to_lattice(np.asarray(points))).astype(np.int64)
        idx = self.locate_checked(lat[:, 0], lat[:, 1], lat[:, 2])
        counts = np.bincount(idx[idx >= 0], minlength=len(self))
        return counts

    # -- statistics ----------------------------------------------------------
    def num_grid_points(self, r: int = 7) -> int:
        """Total grid points ('unknowns' per field) with r^3 points/octant."""
        return len(self) * r**3
