"""Frozen reference implementations the suite compares the library with.

Each function is production code of an earlier commit, kept here
verbatim in its arithmetic after the library replaced it, so the
replacement stays pinned to the old results bit for bit.
"""

import numpy as np

from repro.bssn.sommerfeld import ASYMPTOTIC, sommerfeld_faces
from repro.fd import PatchDerivatives

PHI, PI = 0, 1


def bssn_apply_sommerfeld(rhs, values, derivs, coords, boundary_faces, *,
                          wave_speed=1.0):
    """``repro.bssn.apply_sommerfeld`` up to PR 16: whole-octant first
    derivatives ``derivs.d1[var, d]``, one Python pass per variable."""
    r_pts = np.linalg.norm(coords, axis=-1)
    r_pts = np.maximum(r_pts, 1e-12)
    rsz = rhs.shape[-1]
    for axis, side, octs in boundary_faces:
        sl = [slice(None)] * 4
        arr_axis = {0: 3, 1: 2, 2: 1}[axis]
        sl[arr_axis] = 0 if side == "low" else rsz - 1
        osel = (octs,) + tuple(sl[1:])
        rr = r_pts[osel]
        for var in range(rhs.shape[0]):
            advect = 0.0
            for d in range(3):
                xd = coords[osel + (d,)]
                advect = advect + xd * derivs.d1[var, d][osel]
            u = values[var][osel]
            rhs[var][osel] = -wave_speed * (advect + (u - ASYMPTOTIC[var])) / rr


def wave_apply_sommerfeld(rhs, u, patches, coords, mesh, speed):
    """``WaveSolver._apply_sommerfeld`` up to PR 16: first derivatives of
    the union of boundary octants, all ``r³`` points, sliced per face."""
    faces = mesh.boundary_faces()
    octs_all = mesh.boundary_octants()
    row = np.full(mesh.num_octants, -1, dtype=np.int64)
    row[octs_all] = np.arange(len(octs_all))
    rr = np.linalg.norm(coords, axis=-1)
    np.maximum(rr, 1e-12, out=rr)
    h2 = np.tile(mesh.dx[octs_all], 2)
    P, rsz, nb = mesh.P, mesh.r, len(octs_all)
    sub = np.take(patches, octs_all, axis=1).reshape(2 * nb, P, P, P)
    pd = PatchDerivatives(k=mesh.k)
    grads = np.empty((3, 2, nb, rsz, rsz, rsz))
    for d in range(3):
        pd.d1(sub, h2, d, out=grads[d].reshape(2 * nb, rsz, rsz, rsz))
    for axis, side, octs in faces:
        sl = [slice(None)] * 4
        arr_axis = {0: 3, 1: 2, 2: 1}[axis]
        sl[arr_axis] = 0 if side == "low" else rsz - 1
        osel = (octs,) + tuple(sl[1:])
        rsel = (row[octs],) + tuple(sl[1:])
        acc = np.empty((len(octs), rsz, rsz))
        tmp = np.empty_like(acc)
        for var in (0, 1):
            acc[...] = 0.0
            for d in range(3):
                np.multiply(coords[osel + (d,)], grads[d][var][rsel], out=tmp)
                np.add(acc, tmp, out=acc)
            np.add(acc, u[var][osel], out=acc)
            np.multiply(acc, -speed, out=acc)
            np.divide(acc, rr[osel], out=acc)
            rhs[var][osel] = acc


def wave_rank_rhs(mesh, u, t, *, speed=1.0, ko_sigma=0.1, source=None):
    """The rank-parallel wave driver's ``_rank_rhs`` up to PR 22, for one
    rank that owns every octant: the allocating reference of
    ``WaveSolver.full_rhs`` (unzip, ``PatchDerivatives`` Laplacian and
    KO, source, Sommerfeld faces)."""
    pd = PatchDerivatives(k=mesh.k)
    coords = mesh.coordinates()
    radii = np.maximum(np.linalg.norm(coords, axis=-1), 1e-12)
    patches = mesh.unzip(u)
    k, r = mesh.k, mesh.r
    h = mesh.dx
    lap = pd.d2(patches[PHI], h, 0)
    lap += pd.d2(patches[PHI], h, 1)
    lap += pd.d2(patches[PHI], h, 2)
    rhs = np.empty_like(u)
    rhs[PHI] = patches[PI, :, k : k + r, k : k + r, k : k + r]
    rhs[PI] = speed**2 * lap
    if source is not None:
        rhs[PI] += source(coords, t)
    rhs[PHI] += ko_sigma * pd.ko_all(patches[PHI], h)
    rhs[PI] += ko_sigma * pd.ko_all(patches[PI], h)
    sommerfeld_faces(rhs, patches, mesh.boundary_faces(), coords, radii,
                     mesh.dx, np.zeros(2), speed)
    return rhs
