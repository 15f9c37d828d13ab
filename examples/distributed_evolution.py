#!/usr/bin/env python3
"""Rank-parallel evolution over an SFC-partitioned octree.

Demonstrates Algorithm 1's multi-GPU pattern functionally: the octree is
cut along the space-filling curve, each rank reads only its own octant
blocks plus the ghost layers that travel through a message-passing
communicator before every unzip, and runs the same unzip and chunk
kernels as the single-address-space solver on its own octant range.
The script exits non-zero unless the distributed state equals the
single-address-space solver's bit for bit (``np.array_equal``).

Run:  python examples/distributed_evolution.py
"""

import sys
import time

import numpy as np

from repro.bssn import Puncture, mesh_puncture_state
from repro.mesh import Mesh
from repro.octree import (
    Domain,
    LinearOctree,
    partition_octree,
    partition_octree_hilbert,
)
from repro.parallel import DistributedSolver
from repro.solver import BSSNSolver


def main() -> int:
    mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-12.0, 12.0)))
    u0 = mesh_puncture_state(mesh, [Puncture(1.0, [0.0, 0.0, 0.0])])
    ranks, steps = 4, 2

    part = partition_octree(mesh.tree, ranks)
    ph = partition_octree_hilbert(mesh.tree, ranks)
    surf_m = part.boundary_surface(mesh.adjacency).sum()
    surf_h = ph.boundary_surface(mesh.adjacency).sum()
    print(f"{mesh.num_octants} octants over {ranks} ranks; partition "
          f"surface: Morton {surf_m} pairs, Hilbert {surf_h} pairs")

    # evolve both ways and compare
    ref = BSSNSolver(mesh, backend="auto")
    ref.set_state(u0.copy())
    solver = BSSNSolver(mesh, backend="auto")
    solver.set_state(u0.copy())
    dist = DistributedSolver(solver, part)
    seconds = {}
    for name, run in (("single", ref), ("distributed", dist)):
        run.step()  # warm the arena (and build the native kernels)
        dist.rank_seconds[:] = 0.0
        t0 = time.perf_counter()
        for _ in range(steps):
            run.step()
        seconds[name] = (time.perf_counter() - t0) / steps

    exchanges = 4 * (steps + 1)
    planned = dist.halo.bytes_per_exchange(r=mesh.r, dof=u0.shape[0])
    sent = np.asarray(dist.comm.bytes_sent) // exchanges
    print(f"\nbackend {dist.backend}: {seconds['distributed']:.3f} s per "
          f"{ranks}-rank step, {seconds['single']:.3f} s single-rank")
    print("rank  owned  ghosts  sent/exchange [MB]  RHS/stage [s]")
    for rank in range(ranks):
        print(f"{rank:4d}  {part.part_sizes()[rank]:5d}  "
              f"{len(dist.halo.ghost_lists[rank]):6d}  "
              f"{sent[rank] / 1e6:18.2f}  "
              f"{dist.rank_seconds[rank] / (4 * steps):13.4f}")
    print(f"{exchanges} halo exchanges, "
          f"{dist.bytes_communicated() / 1e6:.1f} MB moved")

    ok = np.array_equal(sent, planned) and np.array_equal(dist.state, ref.state)
    dev = np.abs(dist.state - ref.state).max()
    print(f"max |distributed - single-rank| = {dev:.1e}: "
          + ("bitwise equal — the distribution is invisible to the physics, "
             "the property behind the paper's multi-GPU runs."
             if ok else "MISMATCH"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
