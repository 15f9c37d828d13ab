"""Native lowering of the generated RHS schedules: one C translation unit.

This module turns one dataflow-verified :class:`KernelSpec` schedule into
a *fused* single-pass kernel over a chunk of octants, in a C
translation unit compiled with the host toolchain and loaded through
cffi's ABI mode.  The kernel is written in explicit row-vector form: one
x-run of an octant is one 8-double vector of the compiler's generic
``vector_size`` type, each lane running the scalar operation sequence.

The kernel performs the whole D + A + KO pipeline per octant — the
centred first derivatives the schedule reads (:func:`d1_need`: 45 of 72
with upwinding, when the advective ones are the 72 upwind
derivatives), 66 second derivatives, 24 summed Kreiss–Oliger terms,
then the scheduled A component and the dissipation add — writing the
24 RHS blocks in one pass.  Against the NumPy kernel this removes ~300
full-array traversals per chunk, which is where the speedup comes from
on a single core.

Bitwise contract
----------------
Every operation mirrors the NumPy execution order exactly:

* stencil sweeps mirror the einsum in
  :func:`repro.fd.derivatives.apply_stencil` tap-for-tap: on the
  unit-stride (x) axis its contiguous inner loop keeps two alternating
  accumulators (even taps, odd taps, added once at the end); on strided
  axes it reduces sequentially in forward offset order;
* the raw tap sum is scaled by the per-octant ``1/h^p`` factor *after*
  accumulation, with the factors computed in Python by the same
  ``_h_factor`` expression the NumPy path uses;
* mixed second derivatives are two composed first-derivative passes with
  the scale applied after each pass;
* the A component executes the schedule statement-for-statement — after
  ``_binarize`` it contains only ``+ - * /``, all exactly rounded — and
  χ is floored with NumPy's ``maximum`` semantics (NaN propagates);
* compilation disables FP contraction (``-ffp-contract=off``) so no FMA
  changes the rounding, and never enables ``-ffast-math``, so a vector
  operation is its lanes' IEEE operations in source order at any ISA
  ``-march=native`` (or its absence) splits the vectors for.

The same translation unit carries the hand-written unzip — ``prolong_rows``,
the prolongation of only the compact upsample rows a range reads, lane
for lane the tap order of :func:`repro.mesh.interp.prolong_blocks`, and
``unzip_gather``, the octant-to-patch copy by
:meth:`repro.mesh.maps.TransferPlan.gather_map`, bitwise by construction
— and the two physical-boundary kernels driven by
:meth:`~repro.mesh.maps.TransferPlan.face_table`: ``extrapolate_faces``
(the padding fill, tap for tap the einsums of
:func:`repro.mesh.octant_to_patch.extrapolate_boundary`) and
``sommerfeld_faces`` (the radiative condition on the ``r²`` face points,
operation for operation :func:`repro.bssn.sommerfeld.sommerfeld_faces`).
Every kernel reads the patches of its own octant range only — a chunk
buffer whose octant 0 is the range's first — and writes the mesh-wide
``rhs``.

Two more pieces of a step run here on whole states: ``rk4_combine``,
one pass per RK4 stage in :func:`repro.solver.rk4.combine_stage`'s
operation order, and ``enforce_det`` / ``enforce_apply``, the
algebraic-constraint enforcement of
:func:`repro.solver.bssn_solver.enforce_algebraic_constraints` around
its one ``np.power`` (NumPy's float64 power and glibc ``pow`` round
differently, so the cube root stays NumPy's).

Each of the nine entry points is checked bit for bit against its
NumPy execution (tests/test_backends.py, tests/test_mesh_unzip.py).
"""

from __future__ import annotations

import hashlib
import platform
import re
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.bssn import state as S
from repro.bssn.rhs import _S2, _S2_POS, _SYM_PAIRS
from repro.fd.stencils import (
    D1_CENTERED_6,
    D1_UPWIND_NEG,
    D1_UPWIND_POS,
    D2_CENTERED_6,
    KO_DISS_6,
)
from .generators import KernelSpec, schedule_digest
from .lowering import Dialect, a_stage, classify_inputs

#: layout of the ``params`` argument both kernels receive
PARAM_ORDER = (
    "p_eta", "p_gauge_f", "p_lambda1", "p_lambda2", "p_lambda3",
    "p_lambda4", "p_lapse_c1", "p_lapse_c2",
)
IDX_CHI_FLOOR = len(PARAM_ORDER)       # 8
IDX_KO_SIGMA = len(PARAM_ORDER) + 1    # 9
IDX_USE_UPWIND = len(PARAM_ORDER) + 2  # 10
NUM_PARAMS = len(PARAM_ORDER) + 3

_GRAD_RE = re.compile(r"^grad_(\d)_(\w+)$")
_AGRAD_RE = re.compile(r"^agrad_(\d)_(\w+)$")
_GRAD2_RE = re.compile(r"^grad2_(\d)_(\d)_(\w+)$")

#: doubles per row vector of the C kernels
LANES = 8

#: scratch layout, in blocks of r*r rows: 72 d1 + 72 adv + 66 d2 + 24 ko
#: blocks, then the mixed-derivative intermediate (P*r rows)
OFF_ADV = 72
OFF_D2 = 144
OFF_KO = 210
OFF_TMP = 234


def row_lanes(P: int, r: int) -> int:
    """Doubles per scratch row of the C kernels: ``r`` rounded up to
    whole vectors.

    The lanes past ``r`` of a patch row read the doubles that follow it;
    those stay inside the patch when ``k + W <= 2P``, which is refused
    here otherwise.
    """
    W = -(-r // LANES) * LANES
    k = (P - r) // 2
    if k + W > 2 * P:
        raise ValueError(
            f"r={r}, k={k}: a {W}-lane row vector would read past the "
            f"padded patch (needs k + {W} <= 2P = {2 * P})"
        )
    return W


def scratch_doubles(P: int, r: int) -> int:
    """Total scratch size (doubles) both kernels require per call."""
    return (OFF_TMP * r * r + P * r) * row_lanes(P, r)


def pack_params(params, out: np.ndarray) -> np.ndarray:
    """Fill the length-``NUM_PARAMS`` parameter vector from BSSNParams."""
    for j, name in enumerate(PARAM_ORDER):
        out[j] = getattr(params, name[2:])
    out[IDX_CHI_FLOOR] = params.chi_floor
    out[IDX_KO_SIGMA] = params.ko_sigma
    out[IDX_USE_UPWIND] = 1.0 if params.use_upwind else 0.0
    return out


def stencil_weights() -> dict[str, np.ndarray]:
    """The five weight vectors the kernels consume (raw, unscaled)."""
    return {
        "w1": np.ascontiguousarray(D1_CENTERED_6.weights),
        "w2": np.ascontiguousarray(D2_CENTERED_6.weights),
        "wko": np.ascontiguousarray(KO_DISS_6.weights),
        "wup": np.ascontiguousarray(D1_UPWIND_POS.weights),
        "wun": np.ascontiguousarray(D1_UPWIND_NEG.weights),
    }


def d1_need(spec: KernelSpec) -> list[int]:
    """Per centred first-derivative block ``var * 3 + d``: 1 when the
    schedule reads it as ``grad``, plus 2 when it reads ``agrad`` there
    (the upwind blocks, which alias the centred ones without upwinding).

    The emitted kernel sweeps a block only when it is read — under
    ``use_upwind`` the ``grad`` ones (45 of 72 for the compiled
    variant), else both — and :func:`deriv_flops_per_point` counts the
    same set."""
    need = [0] * (3 * S.NUM_VARS)
    for name in classify_inputs(spec)[1]:
        region, block = _deriv_block(name)
        if region != "d2s":
            need[block] |= 1 if region == "d1s" else 2
    return need


def deriv_flops_per_point(spec: KernelSpec, use_upwind: bool) -> int:
    """Structural flop count of the emitted kernel's D stage per interior
    point: 15 per centred 7-tap sweep it runs (:func:`d1_need`), 27 per
    upwind pair and select, 15 per diagonal and 32 per two-pass mixed
    second derivative, 15 per KO sweep."""
    mask = 1 if use_upwind else 3
    d1 = sum(1 for b in d1_need(spec) if b & mask)
    upwind = 3 * S.NUM_VARS if use_upwind else 0
    return (d1 * 15 + upwind * 27 + 3 * len(_S2) * 15 + 3 * len(_S2) * 32
            + 3 * S.NUM_VARS * 15)


def _deriv_block(name: str) -> tuple[str, int]:
    """Map a derivative symbol to its (scratch region, block index)."""
    m = _GRAD_RE.match(name)
    if m:
        d, var = int(m.group(1)), S.VAR_NAMES.index(m.group(2))
        return ("d1s", var * 3 + d)
    m = _AGRAD_RE.match(name)
    if m:
        d, var = int(m.group(1)), S.VAR_NAMES.index(m.group(2))
        return ("advs", var * 3 + d)
    m = _GRAD2_RE.match(name)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        var = S.VAR_NAMES.index(m.group(3))
        return ("d2s", _S2_POS[var] * 6 + _SYM_PAIRS.index((a, b)))
    raise ValueError(f"unrecognised derivative symbol {name!r}")


# ---------------------------------------------------------------------------
# C emission
# ---------------------------------------------------------------------------

_C_PRELUDE = r"""
/* generated by repro.codegen.cbackend -- do not edit */
#include <string.h>

/* One x-run of an octant is one row vector: LANES doubles in the
   compiler's generic vector form, which it splits into whatever the
   target has (one AVX-512 register, two AVX2, four SSE2 or NEON).  Each
   lane performs the scalar operation sequence of the NumPy execution,
   and without -ffast-math a vector operation is its lanes' IEEE
   operations and nothing else, so the bitwise contract holds lane for
   lane.  A row of r points takes ceil(r / LANES) vectors: the lanes
   past r read the in-bounds doubles that follow the row (the geometry
   is checked by cbackend.row_lanes), land in the padding of a
   scratch row -- scratch rows are W = LANES * ceil(r / LANES) doubles,
   so every scratch store is a full vector -- and are never stored to
   rhs, whose rows are compact. */
#define LANES 8
typedef double v8 __attribute__((vector_size(64)));
typedef long long m8 __attribute__((vector_size(64)));

static inline v8 ld(const double* p)
{
    v8 v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* the first n lanes of v */
static inline void st(double* p, v8 v, long n)
{
    memcpy(p, &v, n * sizeof(double));
}

static inline v8 bc(double s)
{
    return (v8){s, s, s, s, s, s, s, s};
}

/* lanes of a where m is set, of b elsewhere */
static inline v8 sel(m8 m, v8 a, v8 b)
{
    return (v8)((m & (m8)a) | (~m & (m8)b));
}

/* NumPy maximum semantics: NaN in the first operand propagates
   (C fmax would return the floor instead). */
static inline v8 np_maximum(v8 a, v8 b)
{
    return sel((a != a) | (a > b), a, b);
}

/* The raw tap sum of one stencil at the LANES points from c on -- the
   one implementation of the sweeps' accumulation order, which mirrors
   the einsum in repro.fd.derivatives.apply_stencil exactly: on the
   unit-stride x axis its contiguous inner loop keeps two alternating
   accumulators (even taps, odd taps, added once at the end); on strided
   axes the reduction runs across outer iterations, i.e. sequentially
   from 0.0 in forward offset order.  Callers scale by 1/h^p after the
   accumulation. */
static inline v8 taps(const double* c, const double* w, int nw, int left,
                      long stride)
{
    if (stride == 1) {
        v8 ev = bc(w[0]) * ld(c - left);
        v8 od = bc(w[1]) * ld(c + 1 - left);
        for (int t = 2; t < nw; t += 2)
            ev += bc(w[t]) * ld(c + t - left);
        for (int t = 3; t < nw; t += 2)
            od += bc(w[t]) * ld(c + t - left);
        return ev + od;
    }
    v8 acc = bc(0.0);
    for (int t = 0; t < nw; ++t)
        acc += bc(w[t]) * ld(c + (t - left) * stride);
    return acc;
}

/* A 7-point stencil along x, then y, then z of a padded P^3 cube, each
   pass scaled by f and accumulated into the one before it: the NumPy
   kernels' KO sum and the wave Laplacian. */
static inline v8 taps_xyz(const double* c, const double* w, long P, v8 f)
{
    v8 acc = taps(c, w, 7, 3, 1) * f;
    acc += taps(c, w, 7, 3, P) * f;
    acc += taps(c, w, 7, 3, P * P) * f;
    return acc;
}

/* One centred 7-point sweep: out[z][y] = taps(src + z * sz + y * sy)
   * hf for nz * ny rows of r points; out rows are W doubles.  Mixed second
   derivatives are two of these composed through an intermediate T that
   keeps the full padded extent along the second axis, with the 1/h
   factor applied after each pass (matching d2_mixed). */
static void sweep(const double* src, long sz, long sy, long nz, long ny,
                  long r, double* out, const double* w, long stride,
                  double hf)
{
    const long W = (r + LANES - 1) / LANES * LANES;
    const v8 f = bc(hf);
    for (long z = 0; z < nz; ++z)
    for (long y = 0; y < ny; ++y)
    for (long x = 0; x < r; x += LANES)
        st(out + (z * ny + y) * W + x,
           taps(src + z * sz + y * sy + x, w, 7, 3, stride) * f, LANES);
}

/* the row vectors of an r^3 octant: row (z, y) from point x on */
#define FOR_ROWS(r) \
    for (long z = 0; z < (r); ++z) \
    for (long y = 0; y < (r); ++y) \
    for (long x = 0; x < (r); x += LANES)

/* Linear wave RHS for one chunk of nc patches: laplacian * c^2 into
   rhs_pi, KO(phi) * sigma + pi into rhs_phi, KO(pi) * sigma into ko_pi
   (and added to rhs_pi when finalize_pi, i.e. no source term follows). */
void wave_rhs_chunk(const double* patches, long nc, long P, long r, long k,
                    const double* hf1, const double* hf2,
                    const double* w2, const double* wko,
                    double c2, double sigma, long finalize_pi,
                    double* rhs_phi, double* rhs_pi, double* ko_pi)
{
    const long PPP = P * P * P;
    const long NP = r * r * r;
    const v8 vc2 = bc(c2), vsigma = bc(sigma);
    for (long i = 0; i < nc; ++i) {
        const double* phi = patches + i * PPP;
        const double* pi = phi + nc * PPP;
        const v8 f1 = bc(hf1[i]), f2 = bc(hf2[i]);
        FOR_ROWS(r) {
            const long pc = (((z + k) * P) + (y + k)) * P + (x + k);
            const long pp = i * NP + ((z * r) + y) * r + x;
            const long n = r - x < LANES ? r - x : LANES;
            v8 rp = taps_xyz(phi + pc, w2, P, f2) * vc2;
            const v8 kp = taps_xyz(pi + pc, wko, P, f1) * vsigma;
            if (finalize_pi) rp += kp;
            st(rhs_phi + pp,
               taps_xyz(phi + pc, wko, P, f1) * vsigma + ld(pi + pc), n);
            st(rhs_pi + pp, rp, n);
            st(ko_pi + pp, kp, n);
        }
    }
}

/* Octant-to-patch copy (Alg. 2) in destination order: point q of the
   patch of octant lo + i becomes u[m] (m >= 0) or up[-2 - m] (m <= -2)
   for m = map[(lo + i) * PPP + q], the plan's last-writer gather map
   (repro.mesh.maps.TransferPlan.gather_map); the -1 points are the
   out-of-domain padding extrapolate_faces fills.  out holds octants
   lo..hi-1.  Octant outer, variable inner, so one octant's map row stays
   in L1 across the variables.  Pure copies: bitwise by construction. */
void unzip_gather(const double* u, long u_var, const double* up,
                  long up_var, const int* map, long lo, long hi,
                  long nvars, long PPP, double* out)
{
    for (long i = 0; i < hi - lo; ++i) {
        const int* m = map + (lo + i) * PPP;
        for (long v = 0; v < nvars; ++v) {
            const double* s = u + v * u_var;
            const double* c = up + v * up_var;
            double* d = out + (v * (hi - lo) + i) * PPP;
            for (long q = 0; q < PPP; ++q) {
                const long j = m[q];
                if (j >= 0) d[q] = s[j];
                else if (j < -1) d[q] = c[-2 - j];
            }
        }
    }
}

/* Alg. 2's prolongation of the fine x rows a range reads, in the one
   order of repro.mesh.interp.prolong_blocks: an x pass, a y pass, a z
   pass; even points copied, every odd one its r taps accumulated from
   0.0 in tap order.  table holds nrows rows (compact row, source
   octant, Z * f + Y), grouped by source; each becomes its compact row
   of up (nvars rows of up_var doubles, f = 2r - 1 per row), straight
   from u (nvars rows of u_var).  w holds the taps of the r - 1 odd
   points, (r - 1, r).  Per source and variable the x pass runs on all
   r^2 coarse rows -- one vector across the odd points per row, lane i
   running point i's sequence -- the y pass only on the (z, odd Y) rows
   the source's table rows read, and the z pass only on those rows, in
   row vectors along X (rows of A and B are padded to F doubles, zero
   past f).  The caller declines r > 7. */
void prolong_rows(const double* u, long u_var, const double* w, long r,
                  const long* table, long nrows, long nvars,
                  double* up, long up_var)
{
    enum { MR = 7, MF = 2 * MR - 1, F = 16 };
    const long f = 2 * r - 1, NP = r * r * r;
    double A[MR * MR][F], B[MR][MF][F];
    unsigned char need[MR][MF];
    v8 wcol[MR];
    memset(A, 0, sizeof A);
    for (long t = 0; t < r; ++t) {
        double c[LANES] = {0.0};
        for (long i = 0; i < r - 1; ++i) c[i] = w[i * r + t];
        wcol[t] = ld(c);
    }
    for (long j0 = 0, j1; j0 < nrows; j0 = j1) {
        const long oct = table[3 * j0 + 1];
        for (j1 = j0; j1 < nrows && table[3 * j1 + 1] == oct; ++j1) ;
        memset(need, 0, sizeof need);
        for (long j = j0; j < j1; ++j) {  /* odd Y: y-pass rows */
            const long Z = table[3 * j + 2] / f, Y = table[3 * j + 2] % f;
            for (long z = 0; z < r && Y % 2; ++z)
                need[z][Y] |= Z % 2 || z == Z / 2;
        }
        for (long v = 0; v < nvars; ++v) {
            const double* s = u + v * u_var + oct * NP;
            for (long q = 0; q < r * r; ++q) {
                const double* x = s + q * r;
                v8 acc = bc(0.0);
                for (long t = 0; t < r; ++t) acc += wcol[t] * bc(x[t]);
                for (long t = 0; t < r; ++t) A[q][2 * t] = x[t];
                for (long i = 0; i < r - 1; ++i) A[q][2 * i + 1] = acc[i];
            }
            for (long z = 0; z < r; ++z)
            for (long Y = 1; Y < f; Y += 2) {
                if (!need[z][Y]) continue;
                const double* wy = w + Y / 2 * r;
                for (long X = 0; X < f; X += LANES) {
                    v8 acc = bc(0.0);
                    for (long t = 0; t < r; ++t)
                        acc += bc(wy[t]) * ld(&A[z * r + t][X]);
                    st(&B[z][Y][X], acc, LANES);
                }
            }
            for (long j = j0; j < j1; ++j) {
                const long Z = table[3 * j + 2] / f, Y = table[3 * j + 2] % f;
                double* d = up + v * up_var + table[3 * j] * f;
#define ROW(z) (Y % 2 ? B[z][Y] : A[(z) * r + Y / 2])
                if (Z % 2 == 0) {
                    memcpy(d, ROW(Z / 2), f * sizeof(double));
                    continue;
                }
                const double* wz = w + Z / 2 * r;
                for (long X = 0; X < f; X += LANES) {
                    v8 acc = bc(0.0);
                    for (long t = 0; t < r; ++t)
                        acc += bc(wz[t]) * ld(ROW(t) + X);
                    st(d + X, acc, f - X < LANES ? f - X : LANES);
                }
#undef ROW
            }
        }
    }
}

/* One tap sum from 0.0 in einsum's order: along a unit-stride tap axis
   two alternating accumulators (the forward tail loop of its contiguous
   reduction -- all it runs below 8 taps), along a strided one a single
   sequential accumulator.  extrapolate_faces runs the same sequence
   in each lane of a row vector. */
static double tap_sum(const double* c, const double* w, long n, long stride)
{
    double acc = 0.0;
    if (stride == 1) {
        double od = 0.0;
        for (long t = 0; t < n; t += 2) acc += w[t] * c[t];
        for (long t = 1; t < n; t += 2) od += w[t] * c[t];
        return acc + od;
    }
    for (long t = 0; t < n; ++t) acc += w[t] * c[t * stride];
    return acc;
}

/* The LANES doubles p[0], p[s], ..., p[(LANES - 1) * s], and the store
   back: one tap of LANES x rows. */
static inline v8 lds(const double* p, long s)
{
    return (v8){p[0], p[s], p[2 * s], p[3 * s],
                p[4 * s], p[5 * s], p[6 * s], p[7 * s]};
}

static inline void sts(double* p, long s, v8 v)
{
    for (int l = 0; l < LANES; ++l) p[l * s] = v[l];
}

/* Out-of-domain padding of every physical-boundary face: one row
   (octant, axis, side) of the plan's face table
   (repro.mesh.maps.TransferPlan.face_table) at a time, x faces first,
   then y, then z, so edges and corners complete progressively; patches
   holds octants lo..lo+nc-1.  E holds the two (k, r) extrapolation
   matrices, low then high.  Tap for tap the einsums of
   repro.mesh.octant_to_patch.extrapolate_boundary, zero taps included
   (0 * inf is NaN there too).  One row vector runs across the face's
   in-plane axis o1 -- lanes P apart on x faces, contiguous on y and z
   faces -- each lane running tap_sum's sequence: from 0.0, two
   alternating accumulators along the unit-stride x taps, one
   sequential accumulator along y and z.  A line of P >= LANES points
   takes ceil(P / LANES) vectors, the last shifted back to end at P:
   the points it shares with the one before are computed again by the
   same operations from the same interior values, and no load or store
   leaves the line (unzip_gather declines P < LANES). */
void extrapolate_faces(double* patches, long lo, long nc, long nvars,
                       const long* table, long nrows, const double* E,
                       long P, long r, long k)
{
    const long sp[3] = {1, P, P * P};
    for (long v = 0; v < nvars; ++v)
    for (long row = 0; row < nrows; ++row) {
        const long* t = table + 3 * row;
        double* p = patches + (v * nc + t[0] - lo) * sp[2] * P;
        const double* e = E + t[2] * k * r;
        const long j0 = t[2] ? k + r : 0;
        const long ax = t[1], ts = sp[ax];
        const long s1 = sp[ax == 0], s2 = sp[ax == 2 ? 1 : 2];
        for (long o2 = 0; o2 < P; ++o2)
        for (long o1 = 0; o1 < P; o1 += LANES) {
            double* c = p + o2 * s2 + (o1 + LANES > P ? P - LANES : o1) * s1;
            for (long j = 0; j < k; ++j) {
                const double* w = e + j * r;
                v8 acc = bc(0.0);
                if (ax == 0) {
                    v8 od = bc(0.0);
                    for (long q = 0; q < r; q += 2)
                        acc += bc(w[q]) * lds(c + k + q, s1);
                    for (long q = 1; q < r; q += 2)
                        od += bc(w[q]) * lds(c + k + q, s1);
                    sts(c + j0 + j, s1, acc + od);
                } else {
                    for (long q = 0; q < r; ++q)
                        acc += bc(w[q]) * ld(c + (k + q) * ts);
                    st(c + (j0 + j) * ts, acc, LANES);
                }
            }
        }
    }
}

/* Sommerfeld condition on every physical-boundary face: for each row
   (octant, axis, side) of the face table and each variable, the r^2
   face points of rhs become
       (-c * (sum_d x_d d_d u + (u - uinf))) / rr
   with the three centred d1 -- the chunk kernels' tap order and hf1
   scaling -- taken straight from the padded patch.  Operation for
   operation the NumPy twin repro.bssn.sommerfeld.sommerfeld_faces;
   points shared by two faces are rewritten with the same value.  patches
   holds octants lo..lo+nc-1, rhs all ntot. */
void sommerfeld_faces(const double* patches, long lo, long nc, long ntot,
                      long nvars,
                      const long* table, long nrows,
                      long P, long r, long k,
                      const double* hf1, const double* w1,
                      const double* coords, const double* rr,
                      const double* uinf, double c, double* rhs)
{
    const long sp[3] = {1, P, P * P};
    const long sr[3] = {1, r, r * r};
    const long NP = r * r * r;
    const double mc = -c;
    for (long row = 0; row < nrows; ++row) {
        const long* t = table + 3 * row;
        const long oct = t[0], ax = t[1];
        const long a = ax == 0, b = ax == 2 ? 1 : 2;
        const long j = t[2] ? r - 1 : 0;
        const double hf = hf1[oct];
        for (long v = 0; v < nvars; ++v) {
            const double* p = patches + (v * nc + oct - lo) * sp[2] * P
                              + k * (sp[0] + sp[1] + sp[2]) + j * sp[ax];
            double* out = rhs + (v * ntot + oct) * NP + j * sr[ax];
            for (long q = 0; q < r; ++q)
            for (long s = 0; s < r; ++s) {
                const long pp = q * sr[b] + s * sr[a];
                const double* u = p + q * sp[b] + s * sp[a];
                const double* x = coords + (oct * NP + j * sr[ax] + pp) * 3;
                double acc = 0.0;
                for (int d = 0; d < 3; ++d)
                    acc += x[d] * (tap_sum(u - 3 * sp[d], w1, 7, sp[d]) * hf);
                acc += *u - uinf[v];
                out[pp] = acc * mc / rr[oct * NP + j * sr[ax] + pp];
            }
        }
    }
}
/* One RK4 stage combine over n doubles, each element in the operation
   order of the NumPy execution repro.solver.rk4.combine_stage:
       form 1:  out = u + k * c
       form 2:  ksum = ksum + k * 2,  then out = u + k * c
       form 3:  ksum = ksum + k,      then out = u + ksum * c
   (stage 1 is form 1 with k = ksum = k1, stages 2 and 3 form 2,
   stage 4 form 3).  out aliases neither u nor ksum. */
void rk4_combine(long form, const double* u, const double* k, double* ksum,
                 double* out, long n, double c)
{
    if (form == 1) {
        for (long i = 0; i < n; ++i) out[i] = u[i] + k[i] * c;
    } else if (form == 2) {
        for (long i = 0; i < n; ++i) {
            const double ki = k[i];
            ksum[i] = ksum[i] + ki * 2.0;
            out[i] = u[i] + ki * c;
        }
    } else {
        for (long i = 0; i < n; ++i) {
            const double s = ksum[i] + k[i];
            ksum[i] = s;
            out[i] = u[i] + s * c;
        }
    }
}

/* det of the symmetric 3x3 matrix with slots xx xy xz yy yz zz, in the
   operation order of det_into in
   repro.solver.bssn_solver.enforce_algebraic_constraints */
static inline double det_sym(double g00, double g01, double g02,
                             double g11, double g12, double g22)
{
    return (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02))
           + g02 * (g01 * g12 - g11 * g02);
}

/* The two native passes of the algebraic-constraint enforcement on a
   state u of 24 slots of n points; gt and at are the first slots of the
   six conformal-metric and six At components.  enforce_det writes
   det(gt) to det; the caller raises it to -1/3 with NumPy's power (glibc
   pow rounds differently) and enforce_apply then runs the rest of
   enforce_algebraic_constraints point by point in its operation order:
   the rescale by p, the second det, its inverse, the cofactor trace,
   the trace-free projection of At, and the chi and alpha floors with
   NumPy maximum semantics. */
void enforce_det(const double* u, long n, long gt, double* det)
{
    const double* g = u + gt * n;
    for (long i = 0; i < n; ++i)
        det[i] = det_sym(g[i], g[n + i], g[2 * n + i], g[3 * n + i],
                         g[4 * n + i], g[5 * n + i]);
}

void enforce_apply(double* u, long n, long gt, long at, long chi,
                   long alpha, const double* p, double floor)
{
    double* g = u + gt * n;
    double* A = u + at * n;
    double* x = u + chi * n;
    double* a = u + alpha * n;
    for (long i = 0; i < n; ++i) {
        const double f = p[i];
        const double g00 = g[i] * f, g01 = g[n + i] * f,
                     g02 = g[2 * n + i] * f, g11 = g[3 * n + i] * f,
                     g12 = g[4 * n + i] * f, g22 = g[5 * n + i] * f;
        const double idet = 1.0 / det_sym(g00, g01, g02, g11, g12, g22);
        double acc = (g11 * g22 - g12 * g12) * A[i];
        acc = acc + (g00 * g22 - g02 * g02) * A[3 * n + i];
        acc = acc + (g00 * g11 - g01 * g01) * A[5 * n + i];
        double acc2 = (g02 * g12 - g01 * g22) * A[n + i];
        acc2 = acc2 + (g01 * g12 - g02 * g11) * A[2 * n + i];
        acc2 = acc2 + (g01 * g02 - g00 * g12) * A[4 * n + i];
        const double tr = idet / 3.0 * (acc + acc2 * 2.0);
        g[i] = g00;
        g[n + i] = g01;
        g[2 * n + i] = g02;
        g[3 * n + i] = g11;
        g[4 * n + i] = g12;
        g[5 * n + i] = g22;
        A[i] = A[i] - g00 * tr;
        A[n + i] = A[n + i] - g01 * tr;
        A[2 * n + i] = A[2 * n + i] - g02 * tr;
        A[3 * n + i] = A[3 * n + i] - g11 * tr;
        A[4 * n + i] = A[4 * n + i] - g12 * tr;
        A[5 * n + i] = A[5 * n + i] - g22 * tr;
        x[i] = x[i] != x[i] || x[i] > floor ? x[i] : floor;
        a[i] = a[i] != a[i] || a[i] > floor ? a[i] : floor;
    }
}
"""

#: cffi declarations for the entry points
FFI_DECLS = """
void bssn_rhs_chunk(const double* patches, long ntot, long lo, long nc,
                    long P, long r, long k,
                    const double* hf1, const double* hf2,
                    const double* w1, const double* w2, const double* wko,
                    const double* wup, const double* wun,
                    const double* params, double* rhs, double* scratch);
void wave_rhs_chunk(const double* patches, long nc, long P, long r, long k,
                    const double* hf1, const double* hf2,
                    const double* w2, const double* wko,
                    double c2, double sigma, long finalize_pi,
                    double* rhs_phi, double* rhs_pi, double* ko_pi);
void unzip_gather(const double* u, long u_var, const double* up,
                  long up_var, const int* map, long lo, long hi,
                  long nvars, long PPP, double* out);
void prolong_rows(const double* u, long u_var, const double* w, long r,
                  const long* table, long nrows, long nvars,
                  double* up, long up_var);
void extrapolate_faces(double* patches, long lo, long nc, long nvars,
                       const long* table, long nrows, const double* E,
                       long P, long r, long k);
void sommerfeld_faces(const double* patches, long lo, long nc, long ntot,
                      long nvars,
                      const long* table, long nrows,
                      long P, long r, long k,
                      const double* hf1, const double* w1,
                      const double* coords, const double* rr,
                      const double* uinf, double c, double* rhs);
void rk4_combine(long form, const double* u, const double* k, double* ksum,
                 double* out, long n, double c);
void enforce_det(const double* u, long n, long gt, double* det);
void enforce_apply(double* u, long n, long gt, long at, long chi,
                   long alpha, const double* p, double floor);
"""


#: a numeric literal of a lowered statement (operands are names or these)
_LITERAL_RE = re.compile(r"(?<![\w.])-?\d+\.\d*(?:e[-+]?\d+)?")


def _bc(expr: str) -> str:
    """``expr`` with every literal broadcast to a row vector."""
    return _LITERAL_RE.sub(r"bc(\g<0>)", expr)


#: the A stage on one row vector: values from the patch (chi floored),
#: derivatives and the KO term from the D stage's scratch blocks
_C_DIALECT = Dialect(
    policy="c",
    value=lambda name, idx: (
        f"const v8 {name} = np_maximum(ld(pv_{name} + pc), p_chi_floor);"
        if name == "chi" else f"const v8 {name} = ld(pv_{name} + pc);"),
    deriv=lambda name, i: "const v8 {} = ld({} + {}L * NB + pp);".format(
        name, *_deriv_block(name)),
    decl=lambda tgt, expr: f"const v8 {tgt} = {_bc(expr)};",
    out=lambda var, expr: (
        f"st(out + {var}L * ntot * NP, ({_bc(expr)})"
        f" + ld(kos + {var}L * NB + pp) * p_ko_sigma, n);"),
)


def emit_c_source(spec: KernelSpec) -> str:
    """Full C translation unit: stencil helpers, the wave kernel, and the
    fused BSSN chunk kernel whose A body is generated from ``spec``."""
    values = classify_inputs(spec)[0]
    lines = [_C_PRELUDE]
    lines.append(
        "/* fused BSSN D+A+KO chunk kernel: the nc patches hold octants\n"
        "   lo..lo+nc-1 of the ntot of rhs;\n"
        f"   variant: {spec.variant};\n"
        f"   schedule digest: {schedule_digest(spec.statements)};\n"
        f"   {len(spec.statements)} statements, {spec.total_flops} "
        "flops/point */"
    )
    lines.append(
        "void bssn_rhs_chunk(const double* patches, long ntot, long lo,"
        " long nc,\n"
        "                    long P, long r, long k,\n"
        "                    const double* hf1, const double* hf2,\n"
        "                    const double* w1, const double* w2,"
        " const double* wko,\n"
        "                    const double* wup, const double* wun,\n"
        "                    const double* params, double* rhs,"
        " double* scratch)\n"
        "{"
    )
    a = lines.append
    a("    const long PP = P * P, PPP = PP * P, NP = r * r * r;")
    a("    const long W = (r + LANES - 1) / LANES * LANES;")
    a("    /* one scratch block: r * r rows of W; first interior point */")
    a("    const long NB = r * r * W, c0 = k * (PP + P + 1);")
    a(f"    static const long s2vars[{len(_S2)}] = "
      f"{{{', '.join(map(str, _S2))}}};")
    for j, name in enumerate(PARAM_ORDER):
        a(f"    const v8 {name} = bc(params[{j}]);")
    a(f"    const v8 p_chi_floor = bc(params[{IDX_CHI_FLOOR}]);")
    a(f"    const v8 p_ko_sigma = bc(params[{IDX_KO_SIGMA}]);")
    a(f"    const int use_upwind = (int)params[{IDX_USE_UPWIND}];")
    a("    /* the centred d1 blocks the A stage reads: grad (1), and agrad")
    a("       (2) when advs aliases d1s */")
    a(f"    static const unsigned char d1need[{3 * S.NUM_VARS}] = "
      f"{{{', '.join(map(str, d1_need(spec)))}}};")
    a("    const int need = use_upwind ? 1 : 3;")
    a("    double* d1s = scratch;")
    a(f"    double* advs = use_upwind ? scratch + {OFF_ADV}L * NB : d1s;")
    a(f"    double* d2s = scratch + {OFF_D2}L * NB;")
    a(f"    double* kos = scratch + {OFF_KO}L * NB;")
    a(f"    double* T = scratch + {OFF_TMP}L * NB;")
    a("    for (long i = 0; i < nc; ++i) {")
    a("        const long g = lo + i;")
    a("        const double fx1 = hf1[i], fx2 = hf2[i];")
    a("        const v8 f1 = bc(fx1);")
    a("        /* D stage: the first derivatives read, upwind ones selected")
    a("           on the shift sign (beta >= 0 is false for NaN, matching")
    a("           np.copyto with a greater_equal mask), and the summed KO */")
    a(f"        for (long v = 0; v < {S.NUM_VARS}; ++v) {{")
    a("            const double* pu = patches + (v * nc + i) * PPP + c0;")
    strides = ("1", "P", "PP")
    for d, stride in enumerate(strides):
        a(f"            if (d1need[v * 3 + {d}] & need)")
        a(f"                sweep(pu, PP, P, r, r, r, d1s + (v * 3 + {d}) * NB,"
          f" w1, {stride}, fx1);")
    a("            FOR_ROWS(r) {")
    a("                const long pc = (z * P + y) * P + x;")
    a("                const long pp = (z * r + y) * W + x;")
    a("                st(kos + v * NB + pp, taps_xyz(pu + pc, wko, P, f1),"
      " LANES);")
    a("                if (use_upwind) {")
    for (d, stride), beta_var in zip(enumerate(strides), S.BETA):
        a(f"                    st(advs + (v * 3 + {d}) * NB + pp, sel(")
        a(f"                        ld(patches + ({beta_var}L * nc + i) * PPP"
          " + c0 + pc) >= bc(0.0),")
        a(f"                        taps(pu + pc, wup, 6, 2, {stride}) * f1,")
        a(f"                        taps(pu + pc, wun, 6, 3, {stride}) * f1),"
          " LANES);")
    a("                }")
    a("            }")
    a("        }")
    a("        /* second derivatives of the SECOND_DERIV_VARS: xx xy xz"
      " yy yz zz */")
    a(f"        for (long s = 0; s < {len(_S2)}; ++s) {{")
    a("            const double* pu = patches + (s2vars[s] * nc + i) * PPP;")
    a("            double* d2 = d2s + s * 6 * NB;")
    for block, stride in zip((0, 3, 5), strides):
        a(f"            sweep(pu + c0, PP, P, r, r, r, d2 + {block} * NB,"
          f" w2, {stride}, fx2);")
    a("            sweep(pu + k * PP + k, PP, P, r, P, r, T, w1, 1, fx1);")
    a("            sweep(T + k * W, P * W, W, r, r, r, d2 + 1 * NB, w1, W,"
      " fx1);")
    for block, stride in ((2, "1"), (4, "P")):
        a(f"            sweep(pu + k * P + k, PP, P, P, r, r, T, w1,"
          f" {stride}, fx1);")
        a(f"            sweep(T + k * r * W, r * W, W, r, r, r,"
          f" d2 + {block} * NB, w1, r * W, fx1);")
    a("        }")
    a("        /* A stage: the scheduled algebra + KO add, one pass */")
    for name in values:
        idx = S.VAR_NAMES.index(name)
        a(f"        const double* pv_{name} = patches + ({idx}L * nc"
          " + i) * PPP + c0;")
    a("        FOR_ROWS(r) {")
    a("            const long pc = (z * P + y) * P + x;")
    a("            const long pp = (z * r + y) * W + x;")
    a("            const long n = r - x < LANES ? r - x : LANES;")
    a("            double* out = rhs + g * NP + (z * r + y) * r + x;")
    lines += a_stage(spec, _C_DIALECT, indent=12)
    a("        }")
    a("    }")
    a("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cffi ABI-mode build
# ---------------------------------------------------------------------------

class ToolchainError(RuntimeError):
    """No working C toolchain / cffi for the native backend."""


#: -march=native lets the compiler keep each 8-lane row vector of the
#: chunk kernels in the host's widest registers (and vectorise the rest).
#: That cannot change a bit: without -ffast-math it may not reassociate,
#: and -ffp-contract=off forbids fusing a multiply and an add into an
#: FMA (which -march=native would otherwise make available), so every
#: operation stays one exactly-rounded IEEE operation in source order.
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")
#: retried when the compiler rejects -march=native (e.g. unknown host)
CFLAGS_PORTABLE = tuple(f for f in CFLAGS if f != "-march=native")


def _cc() -> str | None:
    import shutil

    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _cc_version(cc: str) -> str:
    out = subprocess.run([cc, "--version"], capture_output=True, text=True,
                         timeout=30)
    return out.stdout.splitlines()[0] if out.stdout else "unknown"


def _cache_dir() -> Path:
    d = Path(__file__).resolve().parent / "_generated_cache"
    d.mkdir(exist_ok=True)
    return d


def host_cpu_fingerprint() -> str:
    """What ``-march=native`` resolves against: machine, model and ISA
    flags of this host's (first) CPU."""
    parts = [platform.machine(), platform.processor()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if not line.strip():
                    break  # end of the first processor's block
                if line.split(":", 1)[0].strip() in (
                        "model name", "flags", "Features"):
                    parts.append(line.strip())
    except OSError:
        pass
    return "\n".join(parts)


def native_cache_key(source: str, cc_version: str, cffi_version: str,
                     cflags: tuple[str, ...] = CFLAGS) -> str:
    """Key a built ``.so`` on the *exact* source (which embeds the
    schedule digest), the compiler identity, the cffi version, the flags
    it was built with and — because ``-march=native`` bakes the build
    host's ISA into the object — the host CPU: a stale native artifact
    can never be loaded against a different schedule, toolchain or
    optimisation level, nor on a CPU that lacks its instructions."""
    h = hashlib.sha256()
    for part in (source, cc_version, cffi_version, " ".join(cflags),
                 host_cpu_fingerprint()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


#: the C pointer type a kernel takes for each array dtype
_CTYPES = {np.dtype(np.float64): "double *", np.dtype(np.int64): "long *",
           np.dtype(np.int32): "int *"}


class NativeLib:
    """A built-and-loaded shared library with its kernel entry points,
    plus build provenance for telemetry."""

    def __init__(self, lib, ffi, path: Path, compile_seconds: float,
                 from_cache: bool, cflags: tuple[str, ...] = CFLAGS):
        self.lib = lib
        self.ffi = ffi
        self.path = path
        self.compile_seconds = compile_seconds
        self.from_cache = from_cache
        self.cflags = cflags

    def ptr(self, arr: np.ndarray):
        """A ``double*`` (or ``long*``, ``int*``) into a C-contiguous
        ``float64`` (or ``int64``, ``int32``) array; anything else would be
        reinterpreted."""
        ctype = _CTYPES.get(arr.dtype)
        if ctype is None:
            raise TypeError(
                f"kernel buffers must be float64, int64 or int32, not {arr.dtype}"
            )
        if not arr.flags["C_CONTIGUOUS"]:
            raise TypeError("kernel buffers must be C-contiguous")
        return self.ffi.cast(ctype, arr.ctypes.data)


def build_native_lib(source: str, decls: str = FFI_DECLS,
                     prefix: str = "native") -> NativeLib:
    """Compile ``source`` into a cached ``.so`` and dlopen it via cffi
    with the declarations ``decls``.

    Built with :data:`CFLAGS`, or :data:`CFLAGS_PORTABLE` when the
    compiler rejects the former; each flag set has its own cache key.
    The cache holds one build per ``prefix`` (the solver's kernels, each
    CUDA-on-host unit): a new build evicts only older ones of its own.
    Raises :class:`ToolchainError` when cffi or a C compiler is missing
    or the compile fails, leaving no file of the attempt behind.
    """
    try:
        import cffi
    except ImportError as e:  # pragma: no cover - cffi ships with the env
        raise ToolchainError(f"cffi unavailable: {e}") from e
    cc = _cc()
    if cc is None:
        raise ToolchainError("no C compiler (cc/gcc/clang) on PATH")
    cc_ver = _cc_version(cc)
    cache = _cache_dir()
    builds = [
        (flags, cache / "{}-{}.so".format(
            prefix, native_cache_key(source, cc_ver, cffi.__version__, flags)))
        for flags in (CFLAGS, CFLAGS_PORTABLE)
    ]
    compile_seconds = 0.0
    built = next(((f, so) for f, so in builds if so.exists()), None)
    from_cache = built is not None
    if built is None:
        t0 = time.perf_counter()
        for flags, so_path in builds:
            c_path = so_path.with_suffix(".c")
            c_path.write_text(source)
            tmp = so_path.with_suffix(".so.tmp")
            proc = subprocess.run(
                [cc, *flags, "-o", str(tmp), str(c_path), "-lm"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode == 0:
                tmp.replace(so_path)
                built = (flags, so_path)
                break
            # a failed attempt leaves nothing in the cache
            c_path.unlink()
            tmp.unlink(missing_ok=True)
        if built is None:
            raise ToolchainError(
                f"{cc} failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        compile_seconds = time.perf_counter() - t0
        # prune artifacts built under older keys (stale schedules,
        # toolchains or flags can never be loaded again)
        keep = built[1].stem
        for suffix in (".so", ".c"):
            for old in cache.glob(f"{prefix}-{'[0-9a-f]' * 16}{suffix}"):
                if old.stem != keep:
                    old.unlink(missing_ok=True)
    flags, so_path = built
    ffi = cffi.FFI()
    ffi.cdef(decls)
    lib = ffi.dlopen(str(so_path))
    return NativeLib(lib, ffi, so_path, compile_seconds, from_cache, flags)

