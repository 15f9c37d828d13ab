"""Static section: compiled BSSN steps on a frozen puncture grid.

The 24-variable unzip plus the fused D+A+KO kernel do essentially all the
work; there is no regrid and no I/O.  This is the section a native unzip
or a collapsed step pipeline must move.
"""

from __future__ import annotations

import time

import numpy as np

from core import Section, lap, median

#: ``full`` is the q=2 puncture grid cut at level 3 (120 octants over two
#: levels, 0.99 M unknowns): the 316-octant level-5 grid of the issue costs
#: 3 s a step, and a dozen timed steps of it do not fit the driver's time cap.
#: ``probe`` is the smallest grid that stays finite — per-step fixed cost.
SIZES = {
    "full": {"grid": "bbh", "max_level": 3, "base_level": 2, "steps": 6,
             "long_steps": True},  # 0.9 s a step: priced from inside
    "probe": {"grid": "uniform", "level": 1, "half_width": 16.0, "steps": 10},
    "tiny": {"grid": "uniform", "level": 1, "half_width": 16.0, "steps": 3},
}

MASS_RATIO = 2.0
#: Hamiltonian-constraint L2 norm stays far below this on every size while
#: the state is sane; a blow-up overshoots it by orders of magnitude
HAM_L2_BOUND = 1.0


class StaticSection(Section):
    name = "static"

    def __init__(self, size_name, size, ctx, *, focus: bool):
        super().__init__(size_name, size, ctx)
        self.steps = ctx.scaled(size["steps"], focus=focus, least=3)
        self.solver = None
        self.warm_digests: list[str] = []
        self.samples: list[tuple[float, float]] = []

    def build_tree(self):
        from repro.octree import Domain, LinearOctree, bbh_grid

        if self.size["grid"] == "bbh":
            return bbh_grid(mass_ratio=MASS_RATIO,
                            max_level=self.size["max_level"],
                            base_level=self.size["base_level"])
        half = self.size["half_width"]
        return LinearOctree.uniform(self.size["level"],
                                    domain=Domain(-half, half))

    def setup(self) -> None:
        from repro.bssn import binary_punctures
        from repro.jobs import state_digest
        from repro.mesh import Mesh
        from repro.solver import BSSNSolver

        solver = BSSNSolver(Mesh(self.build_tree()), backend="compiled")
        solver.set_punctures(binary_punctures(mass_ratio=MASS_RATIO))
        solver.step()  # warm-up: builds the plan, the arena, the RK4 buffers
        self.warm_digests.append(state_digest(solver.state))
        self.solver = solver

    def teardown(self) -> None:
        self.solver = None

    def planned_units(self) -> int:
        return self.steps

    def units(self):
        tracer = self.ctx.tracer
        for i in range(self.steps):
            tracer.unit = f"static/step/{i}"
            self.attempted += 1
            if self.size.get("long_steps"):
                timed, _ = self.ctx.meter.long_op(self.solver.step)
            else:
                t0 = time.perf_counter()
                self.solver.step()
                timed = lap(t0)
            self.samples.append(timed)
            yield

    def finish(self):
        solver = self.solver
        finite = bool(np.isfinite(solver.state).all())
        ham = solver.constraints()["ham_l2"] if finite else float("nan")
        self.check("state finite", finite)
        self.check("Hamiltonian norm bounded", ham < HAM_L2_BOUND,
                   f"ham_l2={ham:.4g}")
        self.check("warm-up digest stable across set-ups",
                   len(set(self.warm_digests)) == 1,
                   f"{len(self.warm_digests)} set-ups")
        self.check("all steps ran", len(self.samples) == self.steps,
                   f"{len(self.samples)}/{self.steps}")
        self.unknowns = int(solver.state.size)
        e2e = {"step_p50_s": median(map(self.ctx.ref, self.samples))}
        return e2e, self._layers(median(d for _, d in self.samples))

    # -- per-layer (traced run) -------------------------------------------
    def _layers(self, step_p50: float) -> dict:
        tr = self.ctx.tracer
        if not tr.enabled:
            return {}
        pre = "static/step/"
        unzip = tr.durations("mesh.unzip", unit_prefix=pre)
        rhs = tr.durations("solver.full_rhs", unit_prefix=pre)
        rhs_self = tr.self_times("solver.full_rhs", unit_prefix=pre)
        step_self = tr.self_times("solver.step", unit_prefix=pre)
        regrid_self = sum(
            sum(tr.self_times(n, unit_prefix=pre))
            for n in ("solver.regrid", "mesh.regrid_flags", "mesh.remesh",
                      "mesh.transfer", "mesh.construct"))
        self.check("no regrid work inside static steps", regrid_self == 0.0,
                   f"{regrid_self:.3g} s")
        out = {
            "mesh.unzip24_s": median(unzip) if unzip else None,
            "solver.full_rhs_s": median(rhs) if rhs else None,
            "codegen.rhs_kernel_s": median(rhs_self) if rhs_self else None,
            "solver.rk4_overhead_s": median(step_self) if step_self else None,
        }
        if unzip and rhs_self:
            share = (4 * (median(unzip) + median(rhs_self))) / step_p50
            out["solver.unzip_plus_kernel_share"] = share
        return out
