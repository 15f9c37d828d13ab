"""The chunk kernels both solvers step through, and their selection.

A solver's ``full_rhs`` is one pipeline — per octant chunk: unzip,
``kernel(...)`` → write, then ``kernel.sommerfeld(...)`` on the chunk's
physical-boundary faces — over a kernel object resolved once from
``backend=``:

* ``"numpy"`` (default) — :class:`NumpyBSSNRHS` / :class:`NumpyWaveRHS`:
  the plain NumPy reference — :func:`repro.bssn.rhs.bssn_rhs` and the
  stencil operators of :class:`repro.fd.PatchDerivatives`, allocating
  their temporaries as NumPy does; the compiled kernels' oracle;
* ``"compiled"`` — :class:`NativeBSSNRHS` / :class:`NativeWaveRHS`: the
  single-pass native kernels lowered from the ``compiled`` codegen
  variant into one C translation unit (:mod:`repro.codegen.cbackend`),
  built with the host ``cc`` and loaded through cffi; raises
  :class:`BackendUnavailableError` when that unit cannot be built;
* ``"auto"`` — ``compiled`` when the unit builds, otherwise NumPy with a
  single warning.

The two implementations of each kernel share one call signature, so
switching backends does not change the solver loop; the workspace
arena ``pool`` in it serves the native kernels' parameter, scratch and
enforcement buffers, and the NumPy kernels ignore it.
``chunk_octants`` is the chunk size each runs best at.  A kernel reads
the patches of its chunk only — a buffer whose octant 0 is the chunk's
first — and writes the mesh-wide ``rhs``.  A kernel object also
carries its backend's unzip and its two halves of physical-boundary
handling.  ``unzip_gather`` is
the native executor the solver hands to :meth:`repro.mesh.Mesh.unzip` —
the copy by the plan's gather map, then the padding extrapolation (None
on the NumPy kernels, which copy with two ``np.take`` off the same map
and fill with :func:`~repro.mesh.octant_to_patch.extrapolate_boundary`).
``sommerfeld`` applies the radiative condition on the ``r²`` points of
every boundary face of an octant range, for any number of variables:
the NumPy :func:`repro.bssn.sommerfeld.sommerfeld_faces`, or its native
twin.  Two more native executions ride on the compiled kernels, None on
the NumPy ones like ``unzip_gather``: ``rk4_combine``, one pass per RK4
stage combine (:func:`repro.solver.rk4.rk4_step` takes it as
``combine=``), and the BSSN kernel's ``enforce``, the algebraic-
constraint enforcement :meth:`repro.solver.BSSNSolver._post_stage`
runs on every stage state.

The C build is the only compiled implementation: each of its kernels
executes the identical schedule with the identical accumulation order
as the NumPy execution of that schedule (asserted bitwise in
tests/test_backends.py and tests/test_mesh_unzip.py).  So the backend
never changes wave, unzip or boundary results; the BSSN kernel matches
:class:`NumpyBSSNRHS` bitwise only when that is given the compiled
variant's ``algebra`` — its default, the hand-vectorised
:func:`~repro.bssn.rhs.evaluate_algebraic`, differs in the last bits.

Per-kernel build time and achieved FLOP/s are published through
:mod:`repro.telemetry` using the existing ``gpu_flops | gpu_bytes |
gpu_launches | gpu_seconds{kernel}`` counters plus
``kernel_compile_seconds{kernel}``.
"""

from __future__ import annotations

import time
import warnings
from functools import lru_cache

import numpy as np

from repro.bssn import state as S
from repro.bssn.rhs import _SYM_PAIRS, BSSNParams, Derivs, array_accessors, bssn_rhs
from repro.bssn.sommerfeld import sommerfeld_faces
from repro.fd.derivatives import PatchDerivatives, _h_factor
from repro.gpu.counters import publish_kernel_stats
from repro.gpu.perfmodel import KernelStats
from repro.mesh.interp import extrapolation_matrices, prolongation_taps
from repro.perf import NO_PROFILER
from .cbackend import (
    LANES,
    NUM_PARAMS,
    NativeLib,
    ToolchainError,
    build_native_lib,
    deriv_flops_per_point,
    emit_c_source,
    pack_params,
    row_lanes,
    scratch_doubles,
    stencil_weights,
)
from .lowering import Dialect, a_stage, classify_inputs
from .spec import (
    COMPILED_VARIANT,
    PARAM_NAMES,
    KernelSpec,
    agrad_name,
    get_kernel_spec,
    grad2_name,
    grad_name,
    value_name,
)

#: set when an "auto" request fell back to numpy (warn exactly once)
_WARNED_FALLBACK = False

BACKENDS = ("numpy", "compiled", "auto")


class BackendUnavailableError(RuntimeError):
    """``backend="compiled"`` was requested but the C build fails."""


# ---------------------------------------------------------------------------
# capability probes
# ---------------------------------------------------------------------------

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
    """``"cffi"`` when cffi and a C compiler are present, else None: the
    cheap probe; whether the unit builds is :func:`resolve_backend`'s
    question."""
    return "cffi" if probe_cffi() is not None else None


def backend_info() -> dict:
    """Capability summary (CLI / benchmark provenance)."""
    from .cbackend import _cc

    return {"cffi": probe_cffi(), "cc": _cc(), "native_impl": native_impl()}


_NATIVE_LIB: NativeLib | None = None


def get_native_lib() -> NativeLib:
    """Build (or load from the disk cache) the C shared library, once
    per process; :class:`BackendUnavailableError` when it cannot be
    built, chained from the :class:`~repro.codegen.cbackend.ToolchainError`
    that carries the compiler's stderr."""
    global _NATIVE_LIB
    if _NATIVE_LIB is None:
        try:
            _NATIVE_LIB = build_native_lib(
                emit_c_source(get_kernel_spec(COMPILED_VARIANT)))
        except ToolchainError as exc:
            raise BackendUnavailableError(
                "the compiled backend is unavailable: the C translation "
                f"unit does not build on this host ({backend_info()}); "
                "install a C compiler with cffi, or use backend='numpy'.\n"
                f"{exc}"
            ) from exc
    return _NATIVE_LIB


def resolve_backend(backend: str) -> str:
    """Resolve a requested backend to ``"numpy"`` or ``"compiled"``.

    Both ``"compiled"`` and ``"auto"`` build the C unit (or load it from
    the cache): when that fails ``"compiled"`` raises
    :class:`BackendUnavailableError` and ``"auto"`` degrades to NumPy
    with a single process-wide warning.
    """
    global _WARNED_FALLBACK
    if backend == "numpy":
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    try:
        get_native_lib()
    except BackendUnavailableError as exc:
        if backend == "compiled":
            raise
        if not _WARNED_FALLBACK:
            _WARNED_FALLBACK = True
            warnings.warn(
                "backend='auto': the C translation unit does not build "
                f"({str(exc.__cause__).splitlines()[0]}) — falling back "
                "to the NumPy kernels",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    return "compiled"


# ---------------------------------------------------------------------------
# the NumPy execution of a schedule
# ---------------------------------------------------------------------------

#: the A stage as Python over NumPy arrays: every input read from the
#: environment, ``**`` as the schedule spells it
_PY_DIALECT = Dialect(
    policy="py",
    value=lambda name, idx: f"{name} = env[{name!r}]",
    deriv=lambda name, i: f"{name} = env[{name!r}]",
    decl=lambda tgt, expr: f"{tgt} = {expr}",
    out=lambda var, expr: f"out[{var}] = {expr}",
)


def emit_source(spec: KernelSpec) -> str:
    """Python source of ``A_kernel(env) -> list[24]``: the parameters,
    then :func:`~repro.codegen.lowering.a_stage` in the Python dialect."""
    lines = ["def A_kernel(env):", f"    out = [None] * {S.NUM_VARS}"]
    lines += [f"    {p} = env[{p!r}]" for p in classify_inputs(spec)[2]]
    lines += a_stage(spec, _PY_DIALECT, indent=4)
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def compile_kernel(spec: KernelSpec):
    """Compile :func:`emit_source`; returns ``A_kernel(env) -> list[24]``."""
    ns: dict = {"numpy": np, "np": np}
    exec(compile(emit_source(spec), f"<generated:{spec.variant}>", "exec"), ns)
    return ns["A_kernel"]


def bind_inputs(values: np.ndarray, derivs: Derivs,
                params: BSSNParams) -> dict[str, np.ndarray | float]:
    """Runtime environment mapping every input name to its array, read
    through the reference's :func:`~repro.bssn.rhs.array_accessors`
    (χ floored)."""
    get, d1, adv, d2 = array_accessors(values, derivs, params)
    env: dict[str, np.ndarray | float] = {
        name: getattr(params, name[2:]) for name in PARAM_NAMES}
    for v in range(S.NUM_VARS):
        env[value_name(v)] = get(v)
        for d in range(3):
            env[grad_name(v, d)] = d1(v, d)
            env[agrad_name(v, d)] = adv(v, d)
    for v in S.SECOND_DERIV_VARS:
        for a, b in _SYM_PAIRS:
            env[grad2_name(v, a, b)] = d2(v, a, b)
    return env


@lru_cache(maxsize=None)
def get_algebra_kernel(variant: str):
    """An ``algebra(values, derivs, params)`` callable compatible with
    :func:`repro.bssn.rhs.bssn_rhs`'s ``algebra=`` hook: the NumPy
    execution of the variant's cached schedule."""
    spec = get_kernel_spec(variant)
    fn = compile_kernel(spec)

    def algebra(values, derivs, params):
        rhs = np.empty_like(values)
        for v, out in enumerate(fn(bind_inputs(values, derivs, params))):
            rhs[v] = out
        return rhs

    algebra.variant = variant  # type: ignore[attr-defined]
    algebra.spec = spec  # type: ignore[attr-defined]
    return algebra


# ---------------------------------------------------------------------------
# chunk kernels
# ---------------------------------------------------------------------------

def _doubles(*arrays) -> bool:
    """Every array C-contiguous float64: what a C kernel may take."""
    return all(a.dtype == np.float64 and a.flags.c_contiguous
               for a in arrays)


class _NumpyRHSBase:
    """What the two NumPy kernels share: how their backend handles the
    physical boundary."""

    backend = "numpy"
    #: the NumPy kernels prolong with prolong_blocks, unzip with two
    #: np.take off the gather map, and step with rk4_step's own
    #: combine_stage
    prolong = unzip_gather = rk4_combine = None

    @staticmethod
    def sommerfeld(rhs, patches, mesh, coords, radii, u_inf, speed,
                   lo=0, hi=None):
        """The Sommerfeld condition on the physical-boundary faces of
        octants ``lo:hi`` (default all) of ``rhs`` ``(nv, n, r, r, r)``
        from their ``patches``, whose octant 0 is ``lo``;
        ``coords``/``radii`` are the solver's per-mesh point coordinates
        and clipped radii."""
        sommerfeld_faces(rhs, patches, mesh.plan.boundary_range(lo, hi),
                         coords, radii, mesh.dx, u_inf, speed, lo=lo)


class NumpyBSSNRHS(_NumpyRHSBase):
    """D + A + KO of one octant chunk: :func:`repro.bssn.rhs.bssn_rhs`.

    ``algebra`` swaps the hand-vectorised A component for a generated
    kernel (:func:`repro.codegen.get_algebra_kernel`) — with the
    ``compiled`` variant this is the NumPy execution of the very schedule
    :class:`NativeBSSNRHS` runs, which is what the bitwise suite compares.
    """

    chunk_octants = 256
    #: the solver runs enforce_algebraic_constraints itself
    enforce = None

    def __init__(self, algebra=None):
        self.algebra = algebra

    def __call__(self, patches, lo, hi, mesh, params, rhs, pool,
                 prof=NO_PROFILER):
        """Write the 24 RHS blocks of octants ``lo:hi``, whose patches
        ``patches`` holds, into ``rhs`` (``pool`` is unused)."""
        chunk_rhs = bssn_rhs(patches, mesh.dx[lo:hi], params,
                             pd=PatchDerivatives(k=mesh.k),
                             algebra=self.algebra, prof=prof)
        with prof.phase("zip"):
            rhs[:, lo:hi] = chunk_rhs


class NumpyWaveRHS(_NumpyRHSBase):
    """Laplacian + KO of one octant chunk of the (φ, π) system."""

    chunk_octants = 512

    def __call__(self, patches, lo, hi, mesh, c2, sigma, src, rhs, pool,
                 prof=NO_PROFILER):
        """Write φ̇ = π + σ·KO(φ) and π̇ = c²∇²φ + ``src`` + σ·KO(π) of
        octants ``lo:hi``, whose patches ``patches`` holds, into ``rhs``
        (``src`` may be None; ``pool`` is unused)."""
        k, r = mesh.k, mesh.r
        pd = PatchDerivatives(k=k)
        h = mesh.dx[lo:hi]
        phi_p, pi_p = patches[0], patches[1]
        rhs_phi, rhs_pi = rhs[0, lo:hi], rhs[1, lo:hi]
        with prof.phase("deriv"):
            lap = pd.d2(phi_p, h, 0)
            lap += pd.d2(phi_p, h, 1)
            lap += pd.d2(phi_p, h, 2)
            ko_phi = pd.ko_all(phi_p, h)
            ko_pi = pd.ko_all(pi_p, h)
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
    """Shared machinery: the built C unit + telemetry."""

    backend = "compiled"

    def __init__(self):
        self._lib = get_native_lib()
        self.compile_seconds = self._lib.compile_seconds
        self.spec = get_kernel_spec(COMPILED_VARIANT)
        #: flops per point of one BSSN chunk, by use_upwind: the
        #: schedule's A count plus the D stage the emitted kernel runs
        self.bssn_flops = {
            up: self.spec.total_flops + deriv_flops_per_point(self.spec, up)
            for up in (False, True)}
        w = stencil_weights()
        self.w1, self.w2 = w["w1"], w["w2"]
        self.wko, self.wup, self.wun = w["wko"], w["wup"], w["wun"]
        self._compile_published = False

    def _run(self, name: str, *args) -> None:
        """Call C kernel ``name``: arrays go as pointers into C-contiguous
        buffers, scalars as they are; nothing is copied."""
        ptr = self._lib.ptr
        getattr(self._lib.lib, name)(
            *[ptr(a) if isinstance(a, np.ndarray) else a for a in args])

    def prolong(self, plan, u, up, lo, hi) -> bool:
        """Alg. 2's prolongation, natively — the ``executor=`` of
        :func:`repro.mesh.octant_to_patch.prolong_sources`: the rows
        ``plan.prolong_rows(lo, hi)`` of the compact upsample ``up``,
        straight from the field ``u``.  False, having written nothing,
        for arrays that are not C-contiguous float64 and for ``r ≥ 8``
        (beyond the kernel's scratch); then the NumPy execution runs."""
        if plan.r >= 8 or not _doubles(u, up):
            return False
        table = plan.prolong_rows(lo, hi)
        nvars = u.size // (len(plan.tree) * plan.r**3)
        self._run("prolong_rows", u, u.size // nvars, prolongation_taps(plan.r),
                  plan.r, table, len(table), nvars, up, up.size // nvars)
        return True

    def unzip_gather(self, plan, u, up, out, lo, hi) -> bool:
        """Alg. 2 after the prolongation, natively: the copy by
        ``plan.gather_map()``, then the padding extrapolation.

        The executor :func:`repro.mesh.octant_to_patch.scatter_to_patches`
        takes as ``executor=``: fills the patches of octants ``lo:hi``
        into ``out`` from the field ``u`` and the upsample ``up``, then
        the out-of-domain padding of every ``plan.face_table(lo, hi)``
        row.  Returns False, having written nothing, for what the
        kernels cannot take — arrays that are not C-contiguous float64,
        ``r ≥ 8``, where einsum's reduction over a source row changes
        order, or patches narrower than one row vector (``P < 8``) —
        and the caller then runs the NumPy execution.
        """
        if plan.r >= 8 or plan.P < LANES:
            return False
        if not _doubles(u, up, out):
            return False
        faces = plan.face_table(lo, hi)
        r, P, k = plan.r, plan.P, plan.k
        nvars = u.size // (len(plan.tree) * r**3)
        self._run("unzip_gather", u, u.size // nvars, up, up.size // nvars,
                  plan.gather_map(), lo, hi, nvars, P**3, out)
        self._run("extrapolate_faces", out, lo, hi - lo, nvars, faces,
                  len(faces), extrapolation_matrices(r, k), P, r, k)
        return True

    def sommerfeld(self, rhs, patches, mesh, coords, radii, u_inf, speed,
                   lo=0, hi=None) -> None:
        """Native execution of :func:`repro.bssn.sommerfeld.sommerfeld_faces`
        over the rows of ``mesh.plan.face_table(lo, hi)`` (default every
        octant) from the range's ``patches``, whose octant 0 is ``lo``;
        the call signature of the NumPy kernels' ``sommerfeld``."""
        hi = mesh.num_octants if hi is None else hi
        self._check_chunk(patches, lo, hi, rhs)
        faces = mesh.plan.face_table(lo, hi)
        hf1 = _h_factor(np.asarray(mesh.dx, dtype=np.float64), 1).ravel()
        self._run("sommerfeld_faces", patches, lo, hi - lo,
                  mesh.num_octants, rhs.shape[0], faces, len(faces), mesh.P,
                  mesh.r, mesh.k, hf1, self.w1, coords, radii, u_inf, speed,
                  rhs)

    def rk4_combine(self, form, u, k, ksum, out, c) -> bool:
        """One RK4 stage combine in one native pass, element for element
        :func:`repro.solver.rk4.combine_stage` (``rk4_step``'s
        ``combine=``); False, having written nothing, unless all four
        states are C-contiguous float64 of one size."""
        if not (_doubles(u, k, ksum, out)
                and u.size == k.size == ksum.size == out.size):
            return False
        self._run("rk4_combine", form, u, k, ksum, out, u.size, c)
        return True

    @staticmethod
    def _check_chunk(patches, lo, hi, rhs) -> None:
        """Refuse a chunk the kernels would read or write past."""
        if patches.shape[1] != hi - lo or not 0 <= lo <= hi <= rhs.shape[1]:
            raise ValueError(f"patches must hold octants {lo}:{hi} of rhs")

    def _publish(self, prof, name: str, flops: float, bytes_moved: float,
                 seconds: float) -> None:
        metrics = prof.metrics
        if metrics is None:
            return
        label = f"{name}[cffi]"
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

    chunk_octants = 8

    def __call__(self, patches, lo, hi, mesh, params, rhs, pool,
                 prof=NO_PROFILER):
        self._check_chunk(patches, lo, hi, rhs)
        ntot, P = rhs.shape[1], patches.shape[-1]
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
                self.bssn_flops[bool(params.use_upwind)] * nc * NP,
                (S.NUM_VARS * P**3 + S.NUM_VARS * NP) * nc * 8.0,
                time.perf_counter() - t0,
            )

    def enforce(self, u, pool, floor: float) -> bool:
        """:func:`repro.solver.bssn_solver.enforce_algebraic_constraints`
        on the state ``u`` in two native passes around its ``np.power``:
        ``det`` of the metric, NumPy's ``det ** (-1/3)`` in place, then
        the rest point by point.  Bit for bit the NumPy execution; False,
        having written nothing, unless ``u`` is a C-contiguous float64
        24-variable state."""
        if not (_doubles(u) and u.shape[0] == S.NUM_VARS):
            return False
        n = u[0].size
        det = pool.get("enforce.det", u.shape[1:])
        gt, at = S.GT_SYM_SLICE.start, S.AT_SYM_SLICE.start
        self._run("enforce_det", u, n, gt, det)
        np.power(det, -1.0 / 3.0, out=det)
        self._run("enforce_apply", u, n, gt, at, S.CHI, S.ALPHA, det,
                  floor)
        return True


class NativeWaveRHS(_NativeRHSBase):
    """Single-pass native wave-equation chunk kernel (Laplacian + KO);
    same call signature as :class:`NumpyWaveRHS`."""

    chunk_octants = 64

    def __call__(self, patches, lo, hi, mesh, c2, sigma, src, rhs, pool,
                 prof=NO_PROFILER):
        self._check_chunk(patches, lo, hi, rhs)
        P, r, k = patches.shape[-1], mesh.r, mesh.k
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
            self._run("wave_rhs_chunk", patches, nc, P, r, k,
                      hf1, hf2, self.w2, self.wko, c2, sigma, finalize_pi,
                      rhs_phi, rhs_pi, ko_pi)
            self._publish(prof, "wave_rhs_chunk", 9 * 15.0 * nc * r**3,
                          (2 * P**3 + 3 * r**3) * nc * 8.0,
                          time.perf_counter() - t0)
        if src is not None:
            with prof.phase("algebra"):
                rhs_pi += src
                rhs_pi += ko_pi
