"""``python -m repro.resilience`` — the fault-injection smoke matrix.

Runs the four seeded failure scenarios the resilience layer must
survive (the CI `resilience` job runs this and uploads the journal):

* **nan-burst**            — a NaN burst corrupts the BSSN state mid-run;
  the supervisor rolls back, retries at halved dt, heals, and the final
  state matches a clean lower-dt run to tolerance.
* **dropped-halo**         — a ghost message is dropped; the resilient
  halo exchange re-requests it and the run matches the fault-free
  single-address-space solver bitwise.
* **corrupted-checkpoint** — the newest checkpoints are truncated and
  bit-flipped; auto-resume picks the newest *valid* one and completes.
* **dead-rank**            — a rank dies mid-exchange and auto-revives;
  the supervisor rolls the step back and the run matches the
  fault-free single-address-space solver bitwise.

Every scenario appends its recovery events to one JSONL journal
(``--journal``, default ``fault-journal.jsonl``).  Exit status 0 only if
all scenarios pass.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.io import RunConfig, save_checkpoint
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree, partition_octree
from repro.parallel import DistributedSolver
from repro.resilience import (
    FaultInjector,
    FaultyComm,
    HealthMonitor,
    RunJournal,
    SupervisedRun,
    summarize,
)
from repro.solver import WaveSolver


def _small_bssn_config() -> RunConfig:
    return RunConfig(name="fault-matrix", mass_ratio=1.0,
                     domain_half_width=12.0, base_level=2, max_level=3,
                     t_end=0.1, extraction_radii=[8.0])


def _wave_pair(comm=None):
    """(3-rank distributed wave solver over ``comm``, the clean
    single-address-space solver it must equal bit for bit)."""
    mesh = Mesh(LinearOctree.uniform(2, domain=Domain(-8.0, 8.0)))
    rng = np.random.default_rng(7)
    u0 = rng.normal(scale=0.01, size=(2, mesh.num_octants, 7, 7, 7))
    clean = WaveSolver(mesh, ko_sigma=0.05)
    clean.state = u0.copy()
    faulty = DistributedSolver(WaveSolver(mesh, ko_sigma=0.05),
                               partition_octree(mesh.tree, 3), comm=comm)
    faulty.state = u0.copy()
    return faulty, clean


def scenario_nan_burst(journal: RunJournal) -> bool:
    cfg = _small_bssn_config()
    steps = 5
    solver = cfg.build_solver()
    injector = FaultInjector(seed=3, nan_burst_steps=(2,))
    run = SupervisedRun(solver, journal=journal, injector=injector,
                        monitor=HealthMonitor())
    for _ in range(steps):
        run.step()
    if run.rollbacks < 1 or not np.all(np.isfinite(solver.state)):
        return False
    # reference: a clean run at the reduced (post-rollback) dt profile —
    # here simply a clean half-dt run; both approximate the same
    # trajectory, so they must agree to truncation-level tolerance
    ref = cfg.build_solver()
    ref.courant *= 0.5
    while ref.t < solver.t - 1e-12:
        ref.step()
    scale = float(np.max(np.abs(ref.state)))
    err = float(np.max(np.abs(ref.state - solver.state))) / scale
    journal.event("scenario-check", scenario="nan-burst",
                  rel_error=err, rollbacks=run.rollbacks)
    return err < 1e-3


def scenario_dropped_halo(journal: RunJournal) -> bool:
    comm = FaultyComm(3, seed=11, drop_prob=0.02)
    faulty, clean = _wave_pair(comm)
    faulty.journal = journal
    for _ in range(3):
        clean.step()
        faulty.step()
    drops = sum(1 for e in comm.log if e["fault"] == "drop")
    match = bool(np.array_equal(faulty.state, clean.state))
    journal.event("scenario-check", scenario="dropped-halo",
                  drops=drops, bitwise_match=match)
    return match and drops > 0


def scenario_corrupted_checkpoint(journal: RunJournal, workdir) -> bool:
    import pathlib

    cfg = _small_bssn_config()
    d = pathlib.Path(workdir) / "ckpts"
    d.mkdir(parents=True, exist_ok=True)
    solver = cfg.build_solver()
    for step in (1, 2, 3):
        solver.step()
        save_checkpoint(d / f"chk_{solver.step_count:08d}.npz", solver)
    # newest: truncate; second-newest: flip bits → only step 1 is valid
    files = sorted(d.glob("chk_*.npz"))
    files[-1].write_bytes(files[-1].read_bytes()[: 200])
    blob = bytearray(files[-2].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    files[-2].write_bytes(bytes(blob))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = SupervisedRun.resume(d, journal=journal)
    ok = run.solver.step_count == 1
    run.step()
    journal.event("scenario-check", scenario="corrupted-checkpoint",
                  resumed_step=run.solver.step_count, ok=ok)
    return ok and np.all(np.isfinite(run.solver.state))


def scenario_dead_rank(journal: RunJournal) -> bool:
    comm = FaultyComm(3, seed=5)
    faulty, clean = _wave_pair(comm)
    faulty.journal = journal
    run = SupervisedRun(faulty, journal=journal, monitor=HealthMonitor())
    clean.step()
    run.step()
    comm.kill_rank(1, dead_for=2)
    clean.step()
    run.step()  # dies, rolls back, revives, completes
    clean.step()
    run.step()
    match = bool(np.array_equal(faulty.state, clean.state))
    journal.event("scenario-check", scenario="dead-rank",
                  rollbacks=run.rollbacks, bitwise_match=match)
    return match and run.rollbacks >= 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.resilience",
                                 description=__doc__)
    ap.add_argument("--matrix", action="store_true",
                    help="run the four-scenario fault matrix")
    ap.add_argument("--journal", default="fault-journal.jsonl",
                    help="JSONL journal output path")
    ap.add_argument("--workdir", default="fault-matrix-work",
                    help="scratch directory for checkpoint scenarios")
    args = ap.parse_args(argv)
    if not args.matrix:
        ap.error("nothing to do (pass --matrix)")

    results: dict[str, bool] = {}
    with RunJournal(args.journal) as journal:
        journal.event("matrix-start")
        results["nan-burst"] = scenario_nan_burst(journal)
        results["dropped-halo"] = scenario_dropped_halo(journal)
        results["corrupted-checkpoint"] = scenario_corrupted_checkpoint(
            journal, args.workdir
        )
        results["dead-rank"] = scenario_dead_rank(journal)
        journal.event("matrix-done", results=results)
        print(f"journal: {args.journal}")
        print(f"summary: {summarize(journal.events)}")
    for name, ok in results.items():
        print(f"  {name:<22} {'PASS' if ok else 'FAIL'}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
