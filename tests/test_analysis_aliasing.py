"""Buffer-aliasing audit: clean solvers, injected hazards caught."""

import numpy as np
import pytest

from repro.analysis.aliasing import (
    AliasAuditor,
    AuditedPool,
    audit_solver_step,
)
from repro.bssn import Puncture
from repro.mesh import Mesh
from repro.octree import LinearOctree
from repro.solver import BSSNSolver, WaveSolver


@pytest.fixture(scope="module")
def wave_solver():
    s = WaveSolver(Mesh(LinearOctree.uniform(2)))
    c = s.coords()
    s.state[0] = np.exp(-(c**2).sum(axis=-1))
    s.state[1] = 0.0
    s.step()  # warm the arena
    return s


@pytest.fixture(scope="module")
def bssn_solver():
    s = BSSNSolver(Mesh(LinearOctree.uniform(2)))
    s.set_punctures([Puncture(mass=1.0, position=np.array([0.1, 0.0, 0.0]))])
    s.step()
    return s


# -- real solvers audit clean -------------------------------------------------


def test_wave_step_audits_clean(wave_solver):
    report = audit_solver_step(wave_solver)
    assert report.ok, [f.to_dict() for f in report.findings]
    assert report.num_rhs_calls == 4  # one per RK4 stage
    assert report.events  # the step must actually lease buffers
    # the NumPy kernel and boundary allocate as NumPy does: the arena
    # serves the unzip only
    assert set(report.phases_seen()) == {"unzip"}


def test_bssn_step_audits_clean(bssn_solver):
    report = audit_solver_step(bssn_solver)
    assert report.ok, [f.to_dict() for f in report.findings]
    assert report.num_rhs_calls == 4
    assert {ev.name for ev in report.events} == {
        "unzip.prolong", "solver.patch_chunk"}
    assert set(report.phases_seen()) == {"unzip"}


def test_compiled_bssn_step_audits_clean_without_a_chunk_buffer(bssn_solver):
    """The native kernel writes octants ``lo:hi`` of the RK4 stage buffer
    itself: the audit sees its parameter, scratch and enforcement leases
    (the NumPy kernel leases none), and the stage buffer it writes
    through a pointer overlaps nothing in the arena."""
    from repro.codegen.backends import native_impl

    if native_impl() is None:
        pytest.skip("cffi or a C compiler is missing")
    s = BSSNSolver(Mesh(LinearOctree.uniform(1)), backend="compiled",
                   chunk_octants=3)
    s.set_punctures([Puncture(mass=1.0, position=np.array([0.1, 0.0, 0.0]))])
    s.step()
    report = audit_solver_step(s)
    assert report.ok, [f.to_dict() for f in report.findings]
    leased = {ev.name for ev in report.events}
    assert {"native.params", "native.scratch", "enforce.det"} <= leased
    # the fused loop's one patch buffer, for one chunk at a time
    chunk = {ev.shape for ev in report.events if ev.name == "solver.patch_chunk"}
    assert chunk == {(24 * 3 * 13**3,)}
    assert {ev.phase for ev in report.events
            if ev.name == "solver.patch_chunk"} == {"unzip"}
    numpy_leased = {ev.name for ev in audit_solver_step(bssn_solver).events}
    assert leased - numpy_leased == {
        "native.params", "native.scratch", "enforce.det"}


def test_audit_restores_solver(wave_solver):
    state, t, count = wave_solver.state, wave_solver.t, wave_solver.step_count
    audit_solver_step(wave_solver)
    assert wave_solver.state is state
    assert wave_solver.t == t
    assert wave_solver.step_count == count
    # the audited pool must not remain installed
    assert type(wave_solver.workspace().pool).__name__ == "BufferPool"


def test_audit_does_not_change_results(wave_solver):
    """Stepping after an audit gives the same state as stepping without."""
    twin = WaveSolver(Mesh(LinearOctree.uniform(2)))
    c = twin.coords()
    twin.state[0] = np.exp(-(c**2).sum(axis=-1))
    twin.state[1] = 0.0
    twin.step()
    audit_solver_step(twin)
    twin.step()
    ref = WaveSolver(Mesh(LinearOctree.uniform(2)))
    ref.state[0] = np.exp(-(ref.coords() ** 2).sum(axis=-1))
    ref.state[1] = 0.0
    ref.step()
    ref.step()
    assert twin.state.tobytes() == ref.state.tobytes()


# -- injected hazards ---------------------------------------------------------


def test_double_lease_across_phases_flagged():
    auditor = AliasAuditor()
    pool = AuditedPool(auditor)
    auditor.push_phase("deriv")
    pool.get("scratch", (4, 4))
    pool.get("scratch", (4, 4))  # same phase: legitimate serial reuse
    auditor.pop_phase()
    assert not auditor.findings
    auditor.push_phase("algebra")
    pool.get("scratch", (4, 4))  # second phase: write-after-read hazard
    auditor.pop_phase()
    kinds = {f.kind for f in auditor.findings}
    assert kinds == {"double-lease"}


def test_overlapping_pool_buffers_flagged():
    auditor = AliasAuditor()
    pool = AuditedPool(auditor)
    # pre-seed the arena with two views of one backing array, as an
    # aliasing bug in the pool would produce
    backing = np.zeros(32)
    pool._bufs[("a", (16,), np.dtype(np.float64))] = backing[:16]
    pool._bufs[("b", (16,), np.dtype(np.float64))] = backing[8:24]
    pool.get("a", (16,))
    pool.get("b", (16,))
    kinds = {f.kind for f in auditor.findings}
    assert "buffer-overlap" in kinds


def test_pool_buffer_overlapping_workspace_flagged():
    auditor = AliasAuditor()
    backing = np.zeros(32)
    auditor.register_external("rk4.k", backing[:16])
    pool = AuditedPool(auditor)
    pool._bufs[("a", (16,), np.dtype(np.float64))] = backing[8:24]
    pool.get("a", (16,))
    assert any(f.kind == "buffer-overlap" for f in auditor.findings)


def test_rhs_in_out_aliasing_flagged():
    auditor = AliasAuditor()
    u = np.zeros((2, 8))
    auditor.record_rhs_call(u, u[0:1])
    assert any(f.kind == "write-after-read" for f in auditor.findings)
    # disjoint arrays are fine
    auditor2 = AliasAuditor()
    auditor2.record_rhs_call(u, np.zeros((2, 8)))
    assert not auditor2.findings


def test_pingpong_alias_flagged():
    auditor = AliasAuditor()
    u = np.zeros(8)
    auditor.record_step_result(u, u)
    assert any(f.kind == "pingpong-alias" for f in auditor.findings)
    auditor2 = AliasAuditor()
    auditor2.record_step_result(u, np.zeros(8))
    assert not auditor2.findings


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_seeded_pingpong_fault_flagged_in_a_solver_step(backend,
                                                        monkeypatch):
    """A workspace whose ``out_for`` hands back the state itself makes the
    RK4 step overwrite its input: the audit of a real step on either
    backend reports it."""
    from repro.codegen.backends import native_impl
    from repro.perf import RK4Workspace

    if backend == "compiled" and native_impl() is None:
        pytest.skip("cffi or a C compiler is missing")
    s = BSSNSolver(Mesh(LinearOctree.uniform(1)), backend=backend)
    s.set_punctures([Puncture(mass=1.0, position=np.array([0.1, 0.0, 0.0]))])
    s.step()
    assert audit_solver_step(s).ok
    monkeypatch.setattr(RK4Workspace, "out_for", lambda self, u: u)
    report = audit_solver_step(s)
    assert {f.kind for f in report.findings} == {"pingpong-alias"}


def test_identical_external_ranges_not_flagged():
    """The state *is* one ping-pong slot after a step — same byte range
    registered under two names must not fire."""
    auditor = AliasAuditor()
    arr = np.zeros(16)
    auditor.register_external("rk4.out_a", arr)
    auditor.register_external("state", arr)
    assert not auditor.findings


def test_audit_sees_the_unzip_prolongation_buffers():
    """On a mesh with a coarse/fine interface the unzip leases its
    compact upsample from the arena — visible to (and clean under) the
    audit; the prolongation leases no source or intermediate buffer."""
    from repro.octree import balance

    tree = LinearOctree.uniform(2)
    s = WaveSolver(Mesh(balance(tree.refine(np.arange(len(tree)) == 0))))
    s.state[0] = np.exp(-(s.coords() ** 2).sum(axis=-1))
    s.step()
    report = audit_solver_step(s)
    assert report.ok, [f.to_dict() for f in report.findings]
    leased = {ev.name for ev in report.events if ev.phase == "unzip"}
    assert "unzip.prolong" in leased
    assert not {name for name in leased if name.startswith("unzip.prolong_")}
