"""Adaptive section: the paper's title workload at sandbox scale.

An IMR-chirp Y22 source radiates through a wavelet-regridded octree (as
in ``examples/gw_propagation.py``); the (2,2) mode is extracted every
step; the run ends with a checkpoint round trip.  It is the only section
where ``octree``, ``mesh.regrid``, ``Mesh`` construction, plan and
workspace rebuilds, ``gw`` and ``io`` are on the clock, and it uses the
mesh layer differently from the static section: 2-variable unzip on a
grid that keeps changing.
"""

from __future__ import annotations

import time

import numpy as np

from core import Section, columnwise_median_sum, lap, median

#: ``full`` keeps the issue's spacing, source, regrid cadence and threshold
#: but halves the box and stops at t=2.25 (the 94-step run to t=8 on the
#: 32-wide box takes 58 s here; the driver allows about 20 s a run).
SIZES = {
    "full": {"half_width": 8.0, "base_level": 2, "max_level": 3,
             "t_end": 2.25, "t_merge": 1.8, "radius": 4.0, "reps": 3},
    "probe": {"half_width": 8.0, "base_level": 2, "max_level": 3,
              "t_end": 0.75, "t_merge": 0.6, "radius": 4.0, "reps": 3},
    "tiny": {"half_width": 8.0, "base_level": 1, "max_level": 2,
             "t_end": 0.75, "t_merge": 0.6, "radius": 4.0, "reps": 2},
}

REGRID_EVERY = 2
REGRID_EPS = 3e-5
KO_SIGMA = 0.02
SOURCE_WIDTH = 1.5


def make_source(t_merge: float):
    """S(x, t) = Re h22(t) · exp(-r²/w²) · Re Y22(θ, φ)."""
    from repro.gw import IMRWaveform
    from repro.gw.swsh import ylm

    wf = IMRWaveform(mass_ratio=1.0, t_merge=t_merge, amplitude=1.0)

    def source(coords, t):
        x, y, z = coords[..., 0], coords[..., 1], coords[..., 2]
        r = np.sqrt(x * x + y * y + z * z)
        safe = np.maximum(r, 1e-12)
        th = np.arccos(np.clip(z / safe, -1.0, 1.0))
        ph = np.arctan2(y, x)
        amp = np.real(wf.h(np.array([t])))[0]
        return (amp * np.exp(-((r / SOURCE_WIDTH) ** 2))
                * np.real(ylm(2, 2, th, ph)))

    return source


class AdaptiveSection(Section):
    name = "adaptive"

    def __init__(self, size_name, size, ctx, *, focus: bool):
        super().__init__(size_name, size, ctx)
        self.reps = ctx.scaled(size["reps"], focus=focus, least=2)
        self.source = make_source(size["t_merge"])
        self.rows: list[list[tuple]] = []      # per rep: unit laps
        self.counts: list[tuple] = []          # per rep: exact counts
        self.digests: list[str] = []
        self.updates = 0
        self.post_change: list[list[float]] = []
        self.ckpt = {}
        self._warm = None

    # -- construction ------------------------------------------------------
    def _build(self):
        from repro.gw import WaveExtractor, gauss_legendre_rule
        from repro.mesh import Mesh
        from repro.octree import Domain, LinearOctree
        from repro.solver import WaveSolver

        half = self.size["half_width"]
        mesh = Mesh(LinearOctree.uniform(self.size["base_level"],
                                         domain=Domain(-half, half)))
        solver = WaveSolver(mesh, source=self.source, ko_sigma=KO_SIGMA,
                            backend="compiled")
        extractor = WaveExtractor([self.size["radius"]], l_max=2, s=0,
                                  rule=gauss_legendre_rule(10))
        return solver, extractor

    def setup(self) -> None:
        solver, extractor = self._build()
        solver.step()
        extractor.sample(solver.mesh, solver.state[0], solver.t)
        self._warm = solver

    def teardown(self) -> None:
        self._warm = None

    def planned_units(self) -> int:
        want = self.ctx.expected.get("adaptive", {}).get(self.size_name, {})
        return self.reps * (want.get("steps", 12) + 1) + 1

    # -- the run -----------------------------------------------------------
    def units(self):
        from repro.jobs import state_digest

        tracer = self.ctx.tracer
        size = self.size
        solver = extractor = None
        for rep in range(self.reps):
            row: list[tuple[float, float]] = []
            excess: list[float] = []
            regrids = changes = 0
            updates = 0
            tracer.unit = f"adaptive/rep{rep}/build"
            t0 = time.perf_counter()
            with tracer.span("adaptive.build"):
                solver, extractor = self._build()
            row.append(lap(t0))
            yield
            changed_before = False
            while solver.t < size["t_end"] - 1e-12:
                tracer.unit = f"adaptive/rep{rep}/step{solver.step_count}"
                self.attempted += 1
                t0 = time.perf_counter()
                changed = False
                if solver.step_count and solver.step_count % REGRID_EVERY == 0:
                    changed = solver.regrid(REGRID_EPS,
                                            max_level=size["max_level"])
                    regrids += 1
                    changes += bool(changed)
                t1 = time.perf_counter()
                solver.step()
                t2 = time.perf_counter()
                extractor.sample(solver.mesh, solver.state[0], solver.t)
                row.append(lap(t0))
                if changed_before:
                    # first step on the new grid minus the next one
                    excess[-1] -= t2 - t1
                    changed_before = False
                if changed:
                    excess.append(t2 - t1)
                    changed_before = True
                updates += solver.state.size
                yield
            if changed_before:
                excess.pop()  # run ended on a fresh grid: no next step
            self.rows.append(row)
            self.post_change.append(excess)
            self.updates = updates
            self.counts.append((solver.step_count, regrids, changes,
                                int(solver.mesh.num_octants)))
            self.digests.append(state_digest(solver.state))
        self._final = (solver, extractor)
        tracer.unit = "adaptive/checkpoint"
        self._checkpoint_round_trip(solver)
        yield

    def _checkpoint_round_trip(self, solver) -> None:
        from repro.io import restore_wave_solver, save_checkpoint
        from repro.jobs import state_digest

        tracer = self.ctx.tracer
        path = self.ctx.fresh_dir("ckpt") / "wave.npz"
        self.attempted += 1
        t0 = time.perf_counter()
        with tracer.span("io.checkpoint_write"):
            save_checkpoint(path, solver)
        t1 = time.perf_counter()
        with tracer.span("io.checkpoint_restore"):
            restored = restore_wave_solver(path, ko_sigma=KO_SIGMA,
                                           source=self.source,
                                           backend="compiled")
        t2 = time.perf_counter()
        same = (state_digest(restored.state) == self.digests[-1]
                and restored.step_count == solver.step_count)
        if not same:
            self.failed += 1
        self.check("restored checkpoint digest equals the saved one", same)
        self.ckpt = {"io.checkpoint_write_s": t1 - t0,
                     "io.checkpoint_restore_s": t2 - t1,
                     "io.checkpoint_bytes": path.stat().st_size}

    # -- results -----------------------------------------------------------
    def finish(self):
        size = self.size
        solver, extractor = self._final
        steps, regrids, changes, octants = self.counts[-1]
        self.check("repetitions bitwise identical",
                   len(set(self.digests)) == 1 and len(set(self.counts)) == 1,
                   f"{len(self.digests)} reps")
        want = self.ctx.expected.get("adaptive", {}).get(self.size_name)
        got = {"steps": steps, "regrids": regrids, "grid_changes": changes,
               "octants_final": octants}
        self.check("steps/regrids/grid changes/octants equal the committed "
                   "counts", want == got, f"got {got} want {want}")
        energy = solver.energy()
        self.check("energy finite", np.isfinite(energy), f"{energy:.4g}")
        t, c22 = extractor.series(size["radius"], 2, 2)
        amp = np.abs(c22)
        # nothing reaches the sphere before light has crossed from the
        # edge of the compact source
        early = t < (size["radius"] - 2.0 * SOURCE_WIDTH)
        if early.any() and not early.all():  # the probe ends before arrival
            quiet = amp[early].max()
            self.check("(2,2) signal respects the light-travel time",
                       quiet <= 0.05 * amp.max(),
                       f"early {quiet:.3g} vs peak {amp.max():.3g}")
        ref = self.ctx.ref
        e2e = {"wall_s": columnwise_median_sum(
            [[ref(x) for x in row] for row in self.rows])}
        wall = columnwise_median_sum([[d for _, d in row]
                                      for row in self.rows])
        layers = dict(self.ckpt)
        layers.update({"mesh.regrids": regrids, "mesh.grid_changes": changes,
                       "mesh.octants_final": octants})
        n_ex = min(len(e) for e in self.post_change)
        layers["solver.post_regrid_excess_s"] = float(sum(
            median([e[i] for e in self.post_change]) for i in range(n_ex)))
        layers.update(self._traced_layers(wall))
        return e2e, layers

    def _traced_layers(self, wall: float) -> dict:
        tr = self.ctx.tracer
        if not tr.enabled:
            return {}
        pre = "adaptive/rep"
        reps = len(self.rows)

        def per_run(name: str, self_time: bool = True):
            xs = (tr.self_times if self_time else tr.durations)(
                name, unit_prefix=pre)
            return sum(xs) / reps if xs else None

        def p50(name: str):
            xs = tr.durations(name, unit_prefix=pre)
            return median(xs) if xs else None

        out = {
            "mesh.unzip2_s": p50("mesh.unzip"),
            "gw.extract_s": p50("gw.extract"),
            "mesh.regrid_flags_s": per_run("mesh.regrid_flags"),
            "mesh.remesh_s": per_run("mesh.remesh"),
            "mesh.transfer_s": per_run("mesh.transfer"),
            "mesh.construct_s": per_run("mesh.construct"),
            "octree.balance_in_regrid_s": per_run("octree.balance"),
            "octree.adjacency_in_regrid_s": per_run("octree.adjacency"),
        }
        regrid_total = per_run("solver.regrid", self_time=False)
        out["mesh.regrid_share"] = (regrid_total / wall
                                    if regrid_total is not None else None)
        self.check("regrid self time is on the clock",
                   (regrid_total or 0.0) > 0.0, f"{regrid_total} s per run")
        return out
