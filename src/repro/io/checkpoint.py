"""Durable checkpoint / restart.

Production BBH runs take days (Table IV) and survive only through
checkpoint/restart, so the format here is built for crash-safety:

* **Atomic writes** — the ``.npz`` is written to a same-directory temp
  file, fsynced, then ``os.replace``d into place (and the directory
  entry fsynced), so no reader can ever observe a partial checkpoint.
* **Integrity** — meta embeds a sha256 digest over every payload array;
  :func:`load_checkpoint` recomputes and rejects tampered or bit-flipped
  files, and :func:`find_latest_valid` scans a directory for the newest
  checkpoint that passes the full validation (corrupt/truncated files
  are skipped with warnings — the auto-resume path).
* **Completeness** — FORMAT_VERSION 2 persists the solver configuration
  (gauge/dissipation :class:`repro.bssn.BSSNParams`, Courant factor) and
  the puncture-tracker positions, so a restored run continues with the
  exact physics of the original instead of silently defaulting.
  Version-1 files (octree + fields only) still load through a migration
  shim.
* **Consistency** — the restored octree is checked to be 2:1 balanced
  before a Mesh is built from it, catching stale or hand-edited files.
* **Rotation** — ``save_checkpoint(..., keep=N)`` prunes all but the
  newest N sibling checkpoints matching the rotation pattern.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import warnings
from dataclasses import asdict

import numpy as np

from repro.bssn import state as S
from repro.mesh import Mesh
from repro.octree import Domain, LinearOctree, Octants, is_balanced

FORMAT_VERSION = 2

#: payload arrays covered by the digest, in canonical order
_PAYLOAD_KEYS = ("x", "y", "z", "level", "state")

#: default rotation pattern (the supervisor's checkpoint naming scheme)
ROTATE_PATTERN = "chk_*.npz"


class CheckpointError(ValueError):
    """A checkpoint failed validation (corrupt, tampered, or stale)."""


def _payload_digest(arrays: dict) -> str:
    """sha256 over the payload arrays (dtype/shape/bytes, fixed order)."""
    h = hashlib.sha256()
    for key in _PAYLOAD_KEYS:
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _tracker_meta(solver) -> dict | None:
    tracker = getattr(solver, "tracker", None)
    if tracker is None:
        return None
    return {
        "positions": [list(map(float, p)) for p in tracker.positions],
        "masses": [float(m) for m in tracker.masses],
    }


def save_checkpoint(path, solver, *, keep: int | None = None,
                    pattern: str = ROTATE_PATTERN) -> pathlib.Path:
    """Atomically persist a solver's full state (format v2).

    The write goes through a same-directory temp file + fsync +
    ``os.replace``; a crash at any point leaves either the previous file
    or the complete new one, never a torn checkpoint.  With ``keep``,
    sibling files matching ``pattern`` are rotated down to the newest
    ``keep`` afterwards.
    """
    if solver.state is None:
        raise ValueError("solver has no state to checkpoint")
    path = pathlib.Path(path)
    tree = solver.mesh.tree
    arrays = {
        "x": tree.octants.x,
        "y": tree.octants.y,
        "z": tree.octants.z,
        "level": tree.octants.level,
        "state": solver.state,
    }
    params = getattr(solver, "params", None)
    meta = {
        "version": FORMAT_VERSION,
        "solver_class": type(solver).__name__,
        "nvars": int(solver.state.shape[0]),
        "t": solver.t,
        "step_count": solver.step_count,
        "courant": solver.courant,
        "r": solver.mesh.r,
        "k": solver.mesh.k,
        "domain": [tree.domain.xmin, tree.domain.xmax],
        "params": asdict(params) if params is not None else None,
        "punctures": _tracker_meta(solver),
        "sha256": _payload_digest(arrays),
    }
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                **arrays,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write never leaves temp litter
            tmp.unlink()
    _fsync_dir(path.parent)
    if keep is not None:
        rotate_checkpoints(path.parent, keep, pattern=pattern)
    return path


def _fsync_dir(directory: pathlib.Path) -> None:
    """fsync a directory entry (best effort; not supported everywhere)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def rotate_checkpoints(directory, keep: int,
                       pattern: str = ROTATE_PATTERN) -> list[pathlib.Path]:
    """Delete all but the newest ``keep`` checkpoints matching
    ``pattern`` (newest = lexicographically greatest name, which the
    ``chk_<step:08d>`` convention makes step order).  Returns the
    removed paths."""
    if keep < 1:
        raise ValueError("keep must be >= 1")
    files = sorted(pathlib.Path(directory).glob(pattern))
    removed = []
    for old in files[:-keep]:
        old.unlink()
        removed.append(old)
    return removed


def _migrate_v1(meta: dict) -> dict:
    """Lift a version-1 meta dict to the v2 schema (no digest, no
    solver configuration — restored runs fall back to defaults)."""
    out = dict(meta)
    out["version"] = FORMAT_VERSION
    out.setdefault("params", None)
    out.setdefault("punctures", None)
    out.setdefault("sha256", None)
    out["migrated_from"] = 1
    return out


def load_checkpoint(path, *, verify: bool = True, check_balance: bool = True):
    """Rebuild ``(mesh, state, meta)`` from a checkpoint file.

    ``verify`` recomputes the payload digest (v2 files); a mismatch —
    bit flips, truncation that survived the zip CRC, hand edits — raises
    :class:`CheckpointError`.  ``check_balance`` validates that the
    restored octree is 2:1 balanced before a Mesh is built from it.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            version = meta.get("version")
            if version == 1:
                meta = _migrate_v1(meta)
            elif version != FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version}"
                )
            arrays = {key: np.array(data[key]) for key in _PAYLOAD_KEYS}
    except CheckpointError:
        raise
    except Exception as exc:  # truncated zip, missing keys, bad JSON ...
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if verify and meta.get("sha256") is not None:
        digest = _payload_digest(arrays)
        if digest != meta["sha256"]:
            raise CheckpointError(
                f"checkpoint {path} failed integrity check: "
                f"sha256 {digest[:12]}… != recorded {meta['sha256'][:12]}…"
            )
    oc = Octants(arrays["x"], arrays["y"], arrays["z"], arrays["level"])
    dom = Domain(*meta["domain"])
    tree = LinearOctree(oc, dom)
    if check_balance and not is_balanced(tree):
        raise CheckpointError(
            f"checkpoint {path} holds an octree that is not 2:1 balanced "
            "(stale or tampered file); refusing to build a mesh from it"
        )
    mesh = Mesh(tree, r=meta["r"], k=meta["k"])
    state = arrays["state"]
    nvars = meta.get("nvars") or S.NUM_VARS
    expect = (nvars, mesh.num_octants, mesh.r, mesh.r, mesh.r)
    if state.shape != expect:
        raise CheckpointError(
            f"checkpoint state has shape {state.shape}, expected {expect}"
        )
    return mesh, state, meta


def verify_checkpoint(path) -> dict:
    """Full validation without raising: returns a report dict with
    ``valid``, ``reason`` (when invalid), and the parsed meta."""
    report: dict = {"path": str(path), "valid": False, "meta": None}
    try:
        mesh, state, meta = load_checkpoint(path)
    except (CheckpointError, OSError) as exc:
        report["reason"] = str(exc)
        return report
    report.update(
        valid=True,
        meta=meta,
        num_octants=mesh.num_octants,
        state_shape=list(state.shape),
        nbytes=int(state.nbytes),
    )
    return report


def find_latest_valid(directory, pattern: str = "*.npz"):
    """The newest checkpoint in ``directory`` that passes full
    validation, or None.  Candidates are tried newest-first (by recorded
    step count, then mtime); corrupt, truncated, or unbalanced files are
    skipped with a warning — this is the auto-resume entry point."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return None

    def sort_key(p: pathlib.Path):
        step = -1
        try:
            with np.load(p) as data:
                step = int(json.loads(bytes(data["meta"]).decode())
                           .get("step_count", -1))
        except Exception:
            pass
        return (step, p.stat().st_mtime)

    candidates = sorted(directory.glob(pattern), key=sort_key, reverse=True)
    for path in candidates:
        try:
            load_checkpoint(path)
            return path
        except CheckpointError as exc:
            warnings.warn(f"skipping invalid checkpoint {path}: {exc}")
    return None


def restore_solver(path, params=None, **solver_kwargs):
    """Build a ready-to-run solver from a checkpoint.

    Solver configuration is restored from the file's meta (v2) unless
    ``params`` overrides it; v1 files restore with default params and a
    warning.  A persisted puncture tracker is re-attached as
    ``solver.tracker``.  How the solver *executes* (``backend=``,
    ``profiler=``) is not persisted — callers re-supply it through
    ``solver_kwargs`` from the original run configuration.
    """
    from repro.bssn import BSSNParams
    from repro.solver import BSSNSolver, PunctureTracker

    mesh, state, meta = load_checkpoint(path)
    if state.shape[0] != S.NUM_VARS:
        raise CheckpointError(
            f"checkpoint {path} holds a {state.shape[0]}-variable "
            f"{meta.get('solver_class', 'unknown')} state, not a BSSN one; "
            "use restore_wave_solver"
        )
    if params is None:
        if meta.get("params") is not None:
            params = BSSNParams(**meta["params"])
        elif meta.get("migrated_from") == 1:
            warnings.warn(
                f"checkpoint {path} is format v1 (no solver params); "
                "restoring with default BSSNParams"
            )
    solver = BSSNSolver(mesh, params, courant=meta["courant"], **solver_kwargs)
    solver.set_state(state)
    solver.t = meta["t"]
    solver.step_count = meta["step_count"]
    punctures = meta.get("punctures")
    if punctures is not None:
        solver.tracker = PunctureTracker(
            punctures["positions"], punctures["masses"]
        )
    return solver


def restore_wave_solver(path, *, speed: float = 1.0, ko_sigma: float = 0.1,
                        source=None, **solver_kwargs):
    """Build a ready-to-run :class:`repro.solver.WaveSolver` from a
    checkpoint of a 2-variable (φ, π) wave state.

    The checkpoint restores the mesh, field values, time, step count and
    Courant factor exactly; the wave *physics* (speed, dissipation,
    source) is not persisted — callers re-supply it from the original
    run configuration (:mod:`repro.jobs` keeps the job spec as the
    source of truth), so a resumed evolution is bitwise-identical to an
    uninterrupted one.
    """
    from repro.solver import WaveSolver

    mesh, state, meta = load_checkpoint(path)
    if state.shape[0] != 2:
        raise CheckpointError(
            f"checkpoint {path} holds a {state.shape[0]}-variable state, "
            "not a 2-variable wave one; use restore_solver"
        )
    solver = WaveSolver(mesh, speed=speed, courant=meta["courant"],
                        ko_sigma=ko_sigma, source=source, **solver_kwargs)
    solver.state = np.ascontiguousarray(state)
    solver.t = meta["t"]
    solver.step_count = meta["step_count"]
    return solver
