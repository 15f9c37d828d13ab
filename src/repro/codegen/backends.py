"""The chunk kernels both solvers step through, and their selection.

A solver's ``full_rhs`` is one pipeline — unzip, per octant chunk
``kernel(...)`` → write, then ``kernel.sommerfeld(...)`` on the
physical-boundary faces — over a kernel object resolved once from
``backend=``:

* ``"numpy"`` (default) — :class:`NumpyBSSNRHS` / :class:`NumpyWaveRHS`:
  einsum stencil sweeps plus ``out=`` ufunc algebra on arena buffers;
* ``"compiled"`` — :class:`NativeBSSNRHS` / :class:`NativeWaveRHS`: the
  single-pass native kernels lowered from the ``compiled`` codegen
  variant (:mod:`repro.codegen.cbackend`); raises
  :class:`BackendUnavailableError` when no implementation works;
* ``"auto"`` — ``compiled`` when available, otherwise NumPy with a
  single warning.

The two implementations of each kernel share one call signature and
one set of arena buffer names, so switching backends changes neither
the solver loop nor the arena footprint.  A kernel object also carries
its backend's two halves of physical-boundary handling.
``unzip_scatter`` is the native executor the solver hands to
:meth:`repro.mesh.Mesh.unzip` — box copies, then the padding
extrapolation (None on the NumPy kernels, which scatter through
coalesced fancy indexing and fill with
:func:`~repro.mesh.octant_to_patch.extrapolate_boundary`).
``sommerfeld`` applies the radiative condition on the ``r²`` points of
every boundary face, for any number of variables: the NumPy
:func:`repro.bssn.sommerfeld.sommerfeld_faces`, or its native twin.

The compiled ladder is the **cffi**-loaded C build first — the
row-vector kernels every committed measurement was taken on — then
**Numba** (``@njit(fastmath=False)`` over the generated per-point
Python source) where there is no C toolchain.  Both execute the identical
schedule with identical accumulation order, so the choice never changes
results (asserted bitwise in tests/test_backends.py).  A third
implementation, ``"py"``, runs the generated Python source un-jitted —
orders of magnitude slower, used only by tests to exercise the
dispatchers without a toolchain.

Per-kernel build time and achieved FLOP/s are published through
:mod:`repro.telemetry` using the existing ``gpu_flops | gpu_bytes |
gpu_launches | gpu_seconds{kernel}`` counters plus
``kernel_compile_seconds{kernel}``.
"""

from __future__ import annotations

import time
import warnings
import numpy as np

from repro.bssn import state as S
from repro.bssn.rhs import compute_derivatives, evaluate_algebraic
from repro.bssn.sommerfeld import sommerfeld_faces
from repro.fd.derivatives import PatchDerivatives, _h_factor
from repro.gpu.counters import publish_kernel_stats
from repro.gpu.perfmodel import KernelStats
from repro.mesh.interp import extrapolation_matrices
from repro.perf import NO_PROFILER, hot_path
from .cbackend import (
    NUM_PARAMS,
    NativeLib,
    ToolchainError,
    build_native_lib,
    compile_py_kernels,
    emit_c_source,
    pack_params,
    row_lanes,
    scratch_doubles,
    stencil_weights,
)
from .generators import COMPILED_VARIANT, get_kernel_spec

#: set when an "auto" request fell back to numpy (warn exactly once)
_WARNED_FALLBACK = False

BACKENDS = ("numpy", "compiled", "auto")


class BackendUnavailableError(RuntimeError):
    """``backend="compiled"`` was requested but no implementation works."""


# ---------------------------------------------------------------------------
# capability probes
# ---------------------------------------------------------------------------

def probe_numba() -> str | None:
    """Numba version string, or None when not importable."""
    try:
        import numba
    except Exception:
        return None
    return getattr(numba, "__version__", "unknown")


def probe_cffi() -> str | None:
    """cffi + C toolchain availability (version string or None)."""
    try:
        import cffi
    except Exception:
        return None
    from .cbackend import _cc

    if _cc() is None:
        return None
    return cffi.__version__


def native_impl() -> str | None:
    """First available rung of the compiled ladder (``cffi`` / ``numba``),
    or None when the host supports neither."""
    if probe_cffi() is not None:
        return "cffi"
    if probe_numba() is not None:
        return "numba"
    return None


def backend_info() -> dict:
    """Capability summary (CLI / benchmark provenance)."""
    from .cbackend import _cc

    return {
        "numba": probe_numba(),
        "cffi": probe_cffi(),
        "cc": _cc(),
        "native_impl": native_impl(),
    }


def resolve_backend(backend: str) -> str:
    """Resolve a requested backend to ``"numpy"`` or ``"compiled"``.

    ``"compiled"`` raises with a capability report when unsupported;
    ``"auto"`` degrades to numpy with a single process-wide warning.
    """
    global _WARNED_FALLBACK
    if backend == "numpy":
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if native_impl() is not None:
        return "compiled"
    if backend == "compiled":
        info = backend_info()
        raise BackendUnavailableError(
            "backend='compiled' requested but no native implementation is "
            f"available on this host (numba: {info['numba']}, cffi: "
            f"{info['cffi']}, cc: {info['cc']}). Install a C compiler "
            "with cffi, or numba, or use backend='numpy'."
        )
    if not _WARNED_FALLBACK:
        _WARNED_FALLBACK = True
        warnings.warn(
            "backend='auto': no compiled backend available (numba and "
            "cffi/cc both missing) — falling back to the NumPy kernels",
            RuntimeWarning,
            stacklevel=2,
        )
    return "numpy"


# ---------------------------------------------------------------------------
# built-artifact caches (one per process; keyed by the schedule via the
# source text, which embeds the schedule digest)
# ---------------------------------------------------------------------------

_NATIVE_LIB: NativeLib | None = None
_NUMBA_KERNELS: dict | None = None
_NUMBA_COMPILE_SECONDS: float = 0.0


def get_native_lib() -> NativeLib:
    """Build (or load from the disk cache) the C shared library."""
    global _NATIVE_LIB
    if _NATIVE_LIB is None:
        spec = get_kernel_spec(COMPILED_VARIANT)
        _NATIVE_LIB = build_native_lib(emit_c_source(spec))
    return _NATIVE_LIB


def get_numba_kernels() -> tuple[dict, float]:
    """njit-compile the generated Python kernels (eagerly, via a tiny
    warm-up call so production calls never pay compile time); returns
    ``(namespace, compile_seconds)``."""
    global _NUMBA_KERNELS, _NUMBA_COMPILE_SECONDS
    if _NUMBA_KERNELS is None:
        import numba

        spec = get_kernel_spec(COMPILED_VARIANT)
        jit = numba.njit(fastmath=False, cache=False)
        ns = compile_py_kernels(spec, jit=jit)
        t0 = time.perf_counter()
        _warmup(ns)
        _NUMBA_COMPILE_SECONDS = time.perf_counter() - t0
        _NUMBA_KERNELS = ns
    return _NUMBA_KERNELS, _NUMBA_COMPILE_SECONDS


def _warmup(ns: dict) -> None:
    """One minimal-size call of each kernel (r=1) to trigger compilation."""
    r, k = 1, 3
    P = r + 2 * k
    w = stencil_weights()
    patches = np.zeros(S.NUM_VARS * P**3)
    hf = np.ones(1)
    params = np.zeros(NUM_PARAMS)
    params[-1] = 1.0  # use_upwind
    rhs = np.zeros(S.NUM_VARS * r**3)
    scratch = np.zeros(scratch_doubles(P, r))
    ns["bssn_rhs_chunk"](patches, 1, 0, 1, P, r, k, hf, hf,
                         w["w1"], w["w2"], w["wko"], w["wup"], w["wun"],
                         params, rhs, scratch)
    wpatches = np.zeros(2 * P**3)
    ko = np.zeros(r**3)
    ns["wave_rhs_chunk"](wpatches, 1, 0, 1, P, r, k, hf, hf,
                         w["w2"], w["wko"], 1.0, 0.1, 1,
                         np.zeros(r**3), np.zeros(r**3), ko)
    box = np.array([0, 0, r, 1, 1, 1, 1], dtype=np.int64)
    ns["unzip_scatter"](rhs, r**3, patches, P**3, 1, box, 0, 1, P)
    ns["unzip_interior"](rhs, patches, 1, P, r, k)
    face = np.zeros(3, dtype=np.int64)
    ns["extrapolate_faces"](patches, 1, 1, face, 1,
                            extrapolation_matrices(r, k).reshape(-1), P, r, k)
    ns["sommerfeld_faces"](patches, 1, 1, face, 1, P, r, k, hf, w["w1"],
                           np.ones(3), hf, np.zeros(1), 1.0, rhs)


# ---------------------------------------------------------------------------
# chunk kernels
# ---------------------------------------------------------------------------

#: rough structural flop count of the D stage per interior point (tap
#: multiplies+adds for 72 d1, 72 upwind pairs + select, 33 diagonal and
#: 33 two-pass mixed second derivatives, 72 KO sweeps) — feeds the
#: telemetry FLOP/s counters alongside the schedule's exact A count
DERIV_FLOPS_PER_POINT = 72 * 15 + 72 * 27 + 33 * 15 + 33 * 32 + 72 * 15


class _NumpyRHSBase:
    """What the two NumPy kernels share: how their backend handles the
    physical boundary."""

    backend = "numpy"
    #: the NumPy kernels unzip through the coalesced fancy-index scatter
    unzip_scatter = None

    @staticmethod
    def faces(plan, lo, hi):
        """The ``(axis, side, octants)`` faces of ``plan.boundary`` whose
        octant is in ``lo:hi`` (the plan's own list for every octant)."""
        if (lo, hi) == (0, len(plan.tree)):
            return plan.boundary
        ranged = [(axis, side, octs[(octs >= lo) & (octs < hi)])
                  for axis, side, octs in plan.boundary]
        return [face for face in ranged if len(face[2])]

    @staticmethod
    def sommerfeld(rhs, patches, mesh, coords, radii, u_inf, speed,
                   pool=None, faces=None):
        """The Sommerfeld condition on the physical-boundary ``faces`` of
        ``rhs`` ``(nv, n, r, r, r)`` — what :meth:`faces` gave for an
        octant range, default every face; ``coords``/``radii`` are the
        solver's per-mesh point coordinates and clipped radii."""
        if faces is None:
            faces = mesh.plan.boundary
        sommerfeld_faces(rhs, patches, faces, coords, radii,
                         mesh.dx, u_inf, speed, pool=pool)


class NumpyBSSNRHS(_NumpyRHSBase):
    """D + A + KO of one octant chunk as NumPy sweeps over arena buffers.

    ``algebra`` swaps the hand-vectorised A component for a generated
    kernel (:func:`repro.codegen.get_algebra_kernel`) — with the
    ``compiled`` variant this is the NumPy execution of the very schedule
    :class:`NativeBSSNRHS` runs, which is what the bitwise suite compares.
    """

    def __init__(self, algebra=None):
        self.algebra = algebra

    @hot_path
    def __call__(self, patches, lo, hi, mesh, params, rhs, pool,
                 prof=NO_PROFILER):
        """Write the 24 RHS blocks of octants ``lo:hi`` of ``patches``
        into ``rhs``."""
        k, r = mesh.k, mesh.r
        with prof.phase("deriv"):
            derivs = compute_derivatives(
                patches[:, lo:hi], mesh.dx[lo:hi], params,
                PatchDerivatives(k=mesh.k, pool=pool), pool=pool,
            )
        with prof.phase("zip"):
            interior = patches[:, lo:hi, k : k + r, k : k + r, k : k + r]
            values = pool.get("solver.values", interior.shape)
            np.copyto(values, interior)
        with prof.phase("algebra"):
            if self.algebra is not None:
                chunk_rhs = self.algebra(values, derivs, params)
            else:
                chunk_rhs = evaluate_algebraic(
                    values, derivs, params,
                    out=pool.get("solver.chunk_rhs", values.shape),
                )
            ko = pool.get("solver.ko_scaled", values.shape)
            np.multiply(derivs.ko, params.ko_sigma, out=ko)
            chunk_rhs += ko
        with prof.phase("zip"):
            rhs[:, lo:hi] = chunk_rhs


class NumpyWaveRHS(_NumpyRHSBase):
    """Laplacian + KO of one octant chunk of the (φ, π) system."""

    @hot_path
    def __call__(self, patches, lo, hi, mesh, c2, sigma, src, rhs, pool,
                 prof=NO_PROFILER):
        """Write φ̇ = π + σ·KO(φ) and π̇ = c²∇²φ + ``src`` + σ·KO(π) of
        octants ``lo:hi`` into ``rhs`` (``src`` may be None)."""
        k, r = mesh.k, mesh.r
        pd = PatchDerivatives(k=k, pool=pool)
        h = mesh.dx[lo:hi]
        phi_p, pi_p = patches[0, lo:hi], patches[1, lo:hi]
        rhs_phi, rhs_pi = rhs[0, lo:hi], rhs[1, lo:hi]
        shape = (hi - lo, r, r, r)
        with prof.phase("deriv"):
            lap = pd.d2(phi_p, h, 0, out=pool.get("wave.lap", shape))
            tmp = pool.get("wave.d2_dir", shape)
            lap += pd.d2(phi_p, h, 1, out=tmp)
            lap += pd.d2(phi_p, h, 2, out=tmp)
            ko_phi = pd.ko_all(phi_p, h, out=pool.get("wave.ko_phi", shape))
            ko_pi = pd.ko_all(pi_p, h, out=pool.get("wave.ko_pi", shape))
        with prof.phase("zip"):
            rhs_phi[...] = pi_p[:, k : k + r, k : k + r, k : k + r]
        with prof.phase("algebra"):
            np.multiply(lap, c2, out=rhs_pi)
            ko_phi *= sigma
            ko_pi *= sigma
            if src is not None:
                rhs_pi += src
            rhs_phi += ko_phi
            rhs_pi += ko_pi


class _NativeRHSBase:
    """Shared machinery: implementation binding + telemetry."""

    backend = "compiled"

    def __init__(self, impl: str | None = None):
        impl = impl if impl is not None else native_impl()
        if impl is None:
            raise BackendUnavailableError(
                "no native implementation available (see backend_info())"
            )
        self.impl = impl
        self.spec = get_kernel_spec(COMPILED_VARIANT)
        w = stencil_weights()
        self.w1, self.w2 = w["w1"], w["w2"]
        self.wko, self.wup, self.wun = w["wko"], w["wup"], w["wun"]
        self.compile_seconds = 0.0
        self._lib: NativeLib | None = None
        self._kernels: dict | None = None
        if impl == "cffi":
            self._lib = get_native_lib()
            self.compile_seconds = self._lib.compile_seconds
        elif impl == "numba":
            self._kernels, self.compile_seconds = get_numba_kernels()
        elif impl == "py":
            self._kernels = compile_py_kernels(self.spec)
        else:
            raise ValueError(f"unknown native impl {impl!r}")
        self._compile_published = False

    def _run(self, name: str, *args) -> None:
        """Call kernel ``name`` of the bound implementation: arrays go
        as pointers (cffi) or flat views (numba, py) of C-contiguous
        buffers, scalars as they are; nothing is copied."""
        if self._lib is not None:
            ptr = self._lib.ptr
            getattr(self._lib.lib, name)(
                *[ptr(a) if isinstance(a, np.ndarray) else a for a in args])
        else:
            self._kernels[name](
                *[a.reshape(-1) if isinstance(a, np.ndarray) else a
                  for a in args])

    @hot_path
    def unzip_scatter(self, plan, u, up, out) -> bool:
        """Alg. 2 after the prolongation, natively: box copies, interior
        copy, padding extrapolation.

        The executor :func:`repro.mesh.octant_to_patch.scatter_to_patches`
        takes as ``scatter=``: copies every box of ``plan.box_table()``
        from the upsample ``up`` (None without coarse sources) and the
        field ``u`` into the patches ``out``, then the interiors, then
        fills the out-of-domain padding of every ``plan.face_table()``
        row.  Returns False, having written nothing, for what the
        kernels cannot take — arrays that are not C-contiguous float64,
        or ``r ≥ 8``, where einsum's reduction over a source row changes
        order — and the caller then runs the NumPy execution.
        """
        if plan.r >= 8:
            return False
        for arr in (u, up, out):
            if arr is not None and not (
                arr.dtype == np.float64 and arr.flags.c_contiguous
            ):
                return False
        table, n_coarse = plan.box_table()
        faces = plan.face_table()
        n, r, P, k = len(plan.tree), plan.r, plan.P, plan.k
        nvars = u.size // (n * r**3)
        src_var, dst_var = n * r**3, n * P**3
        if up is None:
            up, up_var = u, 0
        else:
            up_var = up.size // nvars
        self._run("unzip_scatter", up, up_var, out, dst_var, nvars, table,
                  0, n_coarse, P)
        self._run("unzip_scatter", u, src_var, out, dst_var, nvars, table,
                  n_coarse, len(table), P)
        self._run("unzip_interior", u, out, nvars * n, P, r, k)
        self._run("extrapolate_faces", out, n, nvars, faces, len(faces),
                  extrapolation_matrices(r, k), P, r, k)
        return True

    @staticmethod
    def faces(plan, lo, hi):
        """The rows of ``plan.face_table()`` whose octant is in ``lo:hi``
        (the plan's own table for every octant)."""
        table = plan.face_table()
        if (lo, hi) == (0, len(plan.tree)):
            return table
        return np.ascontiguousarray(
            table[(table[:, 0] >= lo) & (table[:, 0] < hi)])

    @hot_path
    def sommerfeld(self, rhs, patches, mesh, coords, radii, u_inf, speed,
                   pool=None, faces=None) -> None:
        """Native execution of :func:`repro.bssn.sommerfeld.sommerfeld_faces`
        over the face rows ``faces`` — what :meth:`faces` gave for an
        octant range, default ``mesh.plan.face_table()``; the call
        signature of the NumPy kernels' ``sommerfeld``."""
        if faces is None:
            faces = mesh.plan.face_table()
        hf1 = _h_factor(np.asarray(mesh.dx, dtype=np.float64), 1).ravel()
        self._run("sommerfeld_faces", patches, mesh.num_octants, rhs.shape[0],
                  faces, len(faces), mesh.P, mesh.r, mesh.k, hf1, self.w1,
                  coords, radii, u_inf, speed, rhs)

    def _publish(self, prof, name: str, flops: float, bytes_moved: float,
                 seconds: float) -> None:
        metrics = prof.metrics
        if metrics is None:
            return
        label = f"{name}[{self.impl}]"
        if not self._compile_published:
            self._compile_published = True
            metrics.counter(
                "kernel_compile_seconds", kernel=label
            ).inc(self.compile_seconds)
        publish_kernel_stats(
            metrics, KernelStats(label, flops, bytes_moved), seconds
        )


class NativeBSSNRHS(_NativeRHSBase):
    """Single-pass native D+A+KO evaluation of one octant chunk, written
    straight into octants ``lo:hi`` of ``rhs``.

    Same call signature as :class:`NumpyBSSNRHS`.  The one native call
    is timed under ``deriv`` — the deriv and algebra phases it subsumes
    are not separable.
    """

    @hot_path
    def __call__(self, patches, lo, hi, mesh, params, rhs, pool,
                 prof=NO_PROFILER):
        ntot, P = patches.shape[1], patches.shape[-1]
        r, k = mesh.r, mesh.k
        nc = hi - lo
        NP = r * r * r
        with prof.phase("deriv"):
            h_arr = np.asarray(mesh.dx[lo:hi], dtype=np.float64)
            # identical values to the per-sweep factors of the NumPy
            # kernel (same _h_factor expression => same SIMD path =>
            # same bits)
            hf1 = _h_factor(h_arr, 1).ravel()
            hf2 = _h_factor(h_arr, 2).ravel()
            pbuf = pack_params(params, pool.get("native.params", (NUM_PARAMS,)))
            scratch = pool.get("native.scratch", (scratch_doubles(P, r),))
            t0 = time.perf_counter()
            self._run("bssn_rhs_chunk", patches, ntot, lo, nc, P, r, k,
                      hf1, hf2, self.w1, self.w2, self.wko, self.wup,
                      self.wun, pbuf, rhs, scratch)
            self._publish(
                prof, "bssn_rhs_chunk",
                (self.spec.total_flops + DERIV_FLOPS_PER_POINT) * nc * NP,
                (S.NUM_VARS * P**3 + S.NUM_VARS * NP) * nc * 8.0,
                time.perf_counter() - t0,
            )


class NativeWaveRHS(_NativeRHSBase):
    """Single-pass native wave-equation chunk kernel (Laplacian + KO);
    same call signature as :class:`NumpyWaveRHS`."""

    @hot_path
    def __call__(self, patches, lo, hi, mesh, c2, sigma, src, rhs, pool,
                 prof=NO_PROFILER):
        ntot, P = patches.shape[1], patches.shape[-1]
        r, k = mesh.r, mesh.k
        nc = hi - lo
        row_lanes(P, r)  # refuses what the row vectors cannot take
        rhs_phi, rhs_pi = rhs[0, lo:hi], rhs[1, lo:hi]
        # without a source the kernel adds σ·KO(π) itself; with one it
        # must follow the source term to keep the NumPy operation order
        finalize_pi = 1 if src is None else 0
        with prof.phase("deriv"):
            h_arr = np.asarray(mesh.dx[lo:hi], dtype=np.float64)
            hf1 = _h_factor(h_arr, 1).ravel()
            hf2 = _h_factor(h_arr, 2).ravel()
            ko_pi = pool.get("wave.ko_pi", (nc, r, r, r))
            t0 = time.perf_counter()
            self._run("wave_rhs_chunk", patches, ntot, lo, nc, P, r, k,
                      hf1, hf2, self.w2, self.wko, c2, sigma, finalize_pi,
                      rhs_phi, rhs_pi, ko_pi)
            self._publish(prof, "wave_rhs_chunk", 9 * 15.0 * nc * r**3,
                          (2 * P**3 + 3 * r**3) * nc * 8.0,
                          time.perf_counter() - t0)
        if src is not None:
            with prof.phase("algebra"):
                rhs_pi += src
                rhs_pi += ko_pi
