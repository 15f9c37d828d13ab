"""JSON parameter files, mirroring the paper artifact's ``q1.par.json``-
style configuration (Appendix: ``BSSN_GR/pars``).

A :class:`RunConfig` fully determines a run: binary configuration, grid
construction, gauge/dissipation parameters, evolution horizon, and
extraction setup.  Bundled presets reproduce the paper's q = 1, 2, 4
production configurations at a scaled-down default depth so they are
runnable at toy scale.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bssn import BSSNParams, binary_punctures
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree, bbh_grid


@dataclass
class RunConfig:
    """One solver run, serialisable to/from JSON."""

    name: str = "run"
    #: physics/solver kind: "bssn" (binary punctures on a graded grid) or
    #: "wave" (linear wave pulse on a uniform base grid + AMR regridding)
    solver: str = "bssn"
    #: wave-solver initial data / driving: "pulse" (free Gaussian φ
    #: pulse) or "imr" (zero initial data driven by a compact (2,2)
    #: quadrupole source whose amplitude follows the model IMR chirp for
    #: ``mass_ratio`` — the catalog-production mode: the extracted
    #: waveform is an inspiral-merger-ringdown signal propagated through
    #: the AMR grid, Fig. 21 style).  Ignored by the BSSN solver.
    wave_source: str = "pulse"
    # binary
    mass_ratio: float = 1.0
    separation: float = 8.0
    total_mass: float = 1.0
    quasi_circular: bool = True
    # grid
    domain_half_width: float = 50.0
    base_level: int = 3
    max_level: int = 6
    refine_theta: float = 1.0
    # gauge / dissipation
    eta: float = 2.0
    ko_sigma: float = 0.4
    chi_floor: float = 1e-4
    use_upwind: bool = True
    # execution
    #: RHS execution backend: "numpy" (NumPy kernels), "compiled" (fused
    #: native kernels; errors if unsupported), or "auto" (compiled when
    #: available).  Part of the cache key: compiled and numpy runs are
    #: bitwise-identical by construction, but keying them separately
    #: keeps the provenance of cached results unambiguous.
    backend: str = "numpy"
    # evolution
    courant: float = 0.25
    t_end: float = 1.0
    regrid_every: int = 16
    regrid_eps: float = 1e-3
    # extraction
    extraction_radii: list[float] = field(default_factory=lambda: [25.0])
    extract_every: int = 16
    l_max: int = 2

    # -- serialisation ---------------------------------------------------
    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(asdict(self), indent=2)

    def save(self, path) -> None:
        """Write the JSON parameter file."""
        pathlib.Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a JSON string (unknown keys rejected)."""
        data = json.loads(text)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        """Read a JSON parameter file (validated — a malformed spec fails
        here, at submit time, not later inside a worker)."""
        cfg = cls.from_json(pathlib.Path(path).read_text())
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ValueError on inconsistent parameters."""
        if self.solver not in ("bssn", "wave"):
            raise ValueError("solver must be 'bssn' or 'wave'")
        if self.wave_source not in ("pulse", "imr"):
            raise ValueError("wave_source must be 'pulse' or 'imr'")
        if self.backend not in ("numpy", "compiled", "auto"):
            raise ValueError("backend must be 'numpy', 'compiled' or 'auto'")
        if self.mass_ratio < 1.0:
            raise ValueError("mass_ratio is m1/m2 with m1 >= m2, so q >= 1")
        if not 0 <= self.base_level <= self.max_level:
            raise ValueError("need 0 <= base_level <= max_level")
        if self.courant <= 0 or self.courant > 1:
            raise ValueError("courant factor must be in (0, 1]")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if any(r >= self.domain_half_width for r in self.extraction_radii):
            raise ValueError("extraction spheres must fit inside the domain")

    # -- identity ----------------------------------------------------------
    def cache_key(self) -> str:
        """Canonical content hash of the *physics* of this configuration.

        The hash is order-independent (sorted keys), numerically
        normalised (every float-typed field is hashed as a float, so a
        JSON file carrying ``1`` instead of ``1.0`` keys identically),
        and round-trip-stable through :meth:`to_json` / :meth:`from_json`.
        ``name`` is a label, not physics, and is excluded — two specs
        differing only in name share results.
        """
        payload = asdict(self)
        payload.pop("name")
        for key, f in self.__dataclass_fields__.items():
            if key not in payload:
                continue
            if f.type == "float":
                payload[key] = float(payload[key])
            elif f.type == "int":
                payload[key] = int(payload[key])
            elif f.type == "list[float]":
                payload[key] = [float(v) for v in payload[key]]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- builders ----------------------------------------------------------
    def bssn_params(self) -> BSSNParams:
        """The run's BSSNParams."""
        return BSSNParams(
            eta=self.eta,
            ko_sigma=self.ko_sigma,
            chi_floor=self.chi_floor,
            use_upwind=self.use_upwind,
        )

    def build_tree(self) -> LinearOctree:
        """The balanced octree for this configuration (no Mesh plans).

        BSSN runs get the puncture-graded binary grid; wave runs start
        from a uniform base grid and rely on wavelet re-gridding (up to
        ``max_level``) during the evolution, matching the Fig. 19/21
        wave-propagation experiments.
        """
        if self.solver == "wave":
            return LinearOctree.uniform(
                self.base_level,
                domain=Domain(-self.domain_half_width, self.domain_half_width),
            )
        return bbh_grid(
            mass_ratio=self.mass_ratio,
            separation=self.separation,
            total_mass=self.total_mass,
            max_level=self.max_level,
            base_level=self.base_level,
            domain=Domain(-self.domain_half_width, self.domain_half_width),
            theta=self.refine_theta,
        )

    def build_mesh(self) -> Mesh:
        """Construct the balanced mesh for this configuration."""
        return Mesh(self.build_tree())

    def build_punctures(self):
        """The run's puncture list."""
        return binary_punctures(
            mass_ratio=self.mass_ratio,
            separation=self.separation,
            total_mass=self.total_mass,
            quasi_circular=self.quasi_circular,
        )

    def wave_source_fn(self):
        """The wave solver's source term for this config (None for the
        free ``"pulse"`` evolution).  Checkpoint resume re-supplies this
        — sources are physics, not state, and are never persisted."""
        if self.solver == "wave" and self.wave_source == "imr":
            return _imr_quadrupole_source(
                self.mass_ratio, t_merge=0.45 * self.t_end)
        return None

    def build_solver(self):
        """Mesh + initial data + solver, ready to step.

        ``solver="wave"`` builds a :class:`repro.solver.WaveSolver` with a
        deterministic Gaussian φ pulse (width 1.5, unit amplitude) as
        initial data — the free evolution is fully determined by the
        config, which is what makes job results content-addressable.
        ``wave_source="imr"`` instead starts from zero data and drives
        the grid with a compact quadrupolar source following the model
        IMR chirp for ``mass_ratio`` (merger at 0.45·``t_end``), so the
        extracted (2,2) mode is an IMR waveform propagated through the
        AMR grid — equally deterministic, hence equally cacheable.
        """
        self.validate()
        if self.solver == "wave":
            from repro.solver import WaveSolver

            source = self.wave_source_fn()
            solver = WaveSolver(
                self.build_mesh(),
                courant=self.courant,
                ko_sigma=self.ko_sigma,
                backend=self.backend,
                source=source,
            )
            if self.wave_source == "pulse":
                coords = solver.coords()
                r2 = (coords**2).sum(axis=-1)
                solver.state[0] = np.exp(-r2 / 1.5**2)
            return solver
        from repro.solver import BSSNSolver

        solver = BSSNSolver(
            self.build_mesh(), self.bssn_params(), courant=self.courant,
            backend=self.backend,
        )
        solver.set_punctures(self.build_punctures())
        return solver


def _imr_quadrupole_source(mass_ratio: float, *, t_merge: float,
                           width: float = 1.2):
    """A compact (2,2)-quadrupole source term for the wave solver whose
    time dependence follows the model IMR chirp (Fig. 21 harness) —
    a pure function of (mass_ratio, t_merge), so runs stay
    content-addressable."""
    from repro.gw.swsh import ylm
    from repro.gw.waveform import IMRWaveform

    wf = IMRWaveform(mass_ratio=float(mass_ratio), t_merge=float(t_merge),
                     amplitude=1.0)

    def source(coords, t):
        x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
        r = np.sqrt(x * x + y * y + z * z)
        safe = np.maximum(r, 1e-12)
        th = np.arccos(np.clip(z / safe, -1.0, 1.0))
        ph = np.arctan2(y, x)
        a = np.real(wf.h(np.array([t])))[0]
        return a * np.exp(-((r / width) ** 2)) * np.real(ylm(2, 2, th, ph))

    return source


#: presets mirroring the artifact's parameter files (toy-scale depth)
PRESETS = {
    "q1": RunConfig(name="q1", mass_ratio=1.0, max_level=6),
    "q2": RunConfig(name="q2", mass_ratio=2.0, max_level=6),
    "q4": RunConfig(name="q4", mass_ratio=4.0, max_level=7),
}


def preset(name: str) -> RunConfig:
    """A fresh copy of one of the bundled presets."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    cfg = PRESETS[name]
    return RunConfig(**asdict(cfg))
