"""Tests for the SymPy code-generation pipeline (paper §IV-B)."""

import numpy as np
import pytest

from repro.bssn import (
    BSSNParams,
    Puncture,
    bssn_rhs,
    mesh_puncture_state,
)
from repro.codegen import (
    VARIANTS,
    analyze_schedule,
    build_dag,
    get_algebra_kernel,
    get_kernel_spec,
    line_graph_schedule,
    max_live_values,
    symbolic_rhs,
)
from repro.codegen.backends import probe_cffi
from repro.codegen.graph import dfs_schedule
from repro.codegen.regalloc import Statement
from repro.mesh import Mesh
from repro.octree import LinearOctree


@pytest.fixture(scope="module")
def exprs_syms():
    return symbolic_rhs()


@pytest.fixture(scope="module")
def dag(exprs_syms):
    return build_dag(exprs_syms[0])


@pytest.fixture(scope="module")
def rhs_setup():
    mesh = Mesh(LinearOctree.uniform(2))
    u = mesh_puncture_state(
        mesh, [Puncture(1.0, [0.3, 0.2, 0.1], momentum=[0.0, 0.1, 0.0])]
    )
    p = mesh.unzip(u)
    ref = bssn_rhs(p, mesh.dx)
    return mesh, p, ref


class TestSymbolicEquations:
    def test_24_expressions(self, exprs_syms):
        exprs, syms = exprs_syms
        assert len(exprs) == 24
        # 234 input symbols: 24 values + 72 grads + 72 advective + 66 second
        assert len(syms) == 234

    def test_flat_space_evaluates_to_zero(self, exprs_syms):
        """Substituting Minkowski values into the symbolic RHS gives 0."""
        import sympy as sp

        exprs, syms = exprs_syms
        from repro.codegen.symbols import PARAM_SYMBOLS

        subs = {s: 0.0 for s in syms.values()}
        for name in ("alpha", "chi", "gt11", "gt22", "gt33"):
            subs[syms[name]] = 1.0
        for s in PARAM_SYMBOLS.values():
            subs[s] = 1.0
        for e in exprs:
            val = float(sp.sympify(e).evalf(subs=subs))
            assert abs(val) < 1e-12


class TestDag:
    def test_size_near_paper(self, dag):
        """Paper Fig. 10 context: composed DAG has 2516 nodes and 6708
        edges; the exact numbers depend on expression-tree details, so
        assert the same regime."""
        assert 1500 < dag.num_nodes < 8000
        assert 4000 < dag.num_edges < 16000

    def test_outputs(self, dag):
        assert len(dag.outputs) == 24
        for nid in dag.outputs:
            assert dag.nodes[nid].is_output

    def test_binary_arity(self, dag):
        for n in dag.nodes:
            if n.op in ("add", "mul"):
                assert len(n.args) == 2
            elif n.op == "pow":
                assert len(n.args) == 1
            else:
                assert n.op in ("input", "const")
                assert len(n.args) == 0

    def test_schedules_are_topological(self, dag):
        for sched in (dfs_schedule(dag), line_graph_schedule(dag)):
            assert len(sched) == dag.num_ops
            pos = {v: i for i, v in enumerate(sched)}
            for n in dag.nodes:
                for a in n.args:
                    if dag.nodes[a].args:  # interior operand
                        assert pos[a] < pos[n.id]


class TestKernels:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_reference(self, variant, rhs_setup):
        """The paper's three variants are algebraically identical; ours
        match the hand-vectorised reference to roundoff."""
        mesh, p, ref = rhs_setup
        alg = get_algebra_kernel(variant)
        r = bssn_rhs(p, mesh.dx, algebra=alg)
        scale = np.abs(ref).max()
        assert np.abs(r - ref).max() < 1e-12 * scale

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            get_kernel_spec("bogus")

    def test_staged_flops_equal_baseline(self):
        """Staging re-orders the same statements; no recomputation."""
        base = get_kernel_spec("sympygr")
        staged = get_kernel_spec("staged-cse")
        assert staged.total_flops == base.total_flops
        assert len(staged.statements) <= len(base.statements)

    def test_each_variant_emits_all_outputs(self):
        for v in VARIANTS:
            spec = get_kernel_spec(v)
            outs = {s.output_var for s in spec.statements if s.is_output}
            assert outs == set(range(24))


class TestSpillAnalysis:
    def test_table2_ordering(self):
        """Table II: SymPyGR spills most; binary-reduce and staged+CSE
        reduce spills, staged+CSE the most (stores)."""
        totals = {}
        stores = {}
        for v in VARIANTS:
            spec = get_kernel_spec(v)
            st = analyze_schedule(
                spec.statements, spec.input_names, input_defs=spec.input_defs
            )
            totals[v] = st.spill_bytes
            stores[v] = st.spill_store_bytes
        assert totals["sympygr"] > totals["binary-reduce"] > totals["staged-cse"]
        assert stores["sympygr"] > stores["staged-cse"]

    def test_max_live_regime(self):
        """Paper reports 675 live temporaries for binary-reduce."""
        spec = get_kernel_spec("binary-reduce")
        ml = max_live_values(spec.statements, spec.input_names)
        assert 100 < ml < 1500

    def test_bigger_budget_fewer_spills(self):
        spec = get_kernel_spec("sympygr")
        small = analyze_schedule(spec.statements, spec.input_names, budget=16)
        big = analyze_schedule(spec.statements, spec.input_names, budget=64)
        assert big.spill_bytes < small.spill_bytes

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            analyze_schedule([], set(), input_defs="sometimes")

    def test_trivial_schedule_no_spills(self):
        sts = [
            Statement("a", "x + y", ("x", "y")),
            Statement("rhs_0", "a * a", ("a",), is_output=True, output_var=0),
        ]
        st = analyze_schedule(sts, {"x", "y"}, budget=8, input_defs="on-demand")
        assert st.spill_bytes == 0
        assert st.max_live <= 3


class TestScheduleDiskCache:
    """PR 6: the disk cache validates a stored schedule digest on load
    and *evicts* corrupt or stale entries instead of silently serving
    (or silently regenerating around) them."""

    def test_roundtrip(self, tmp_path, monkeypatch):
        from repro.codegen import generators as G

        spec = get_kernel_spec("staged-cse")
        monkeypatch.setattr(G, "_cache_dir", lambda: tmp_path)
        G._store_cached_spec(spec)
        back = G._load_cached_spec("staged-cse")
        assert back is not None
        assert [s.src for s in back.statements] == [s.src for s in spec.statements]
        assert back.input_defs == spec.input_defs

    def test_corrupt_pickle_evicted(self, tmp_path, monkeypatch):
        from repro.codegen import generators as G

        spec = get_kernel_spec("staged-cse")
        monkeypatch.setattr(G, "_cache_dir", lambda: tmp_path)
        G._store_cached_spec(spec)
        path, = tmp_path.glob("staged-cse-*.pkl")
        path.write_bytes(b"not a pickle")
        assert G._load_cached_spec("staged-cse") is None
        assert not path.exists(), "corrupt entry must be unlinked"

    def test_stale_digest_evicted(self, tmp_path, monkeypatch):
        """A payload whose statements no longer match its recorded digest
        (e.g. a partial write or a hand-edited file) is evicted."""
        import pickle

        from repro.codegen import generators as G

        spec = get_kernel_spec("staged-cse")
        monkeypatch.setattr(G, "_cache_dir", lambda: tmp_path)
        G._store_cached_spec(spec)
        path, = tmp_path.glob("staged-cse-*.pkl")
        data = pickle.loads(path.read_bytes())
        data["statements"][0]["src"] = "tampered + 1.0"
        path.write_bytes(pickle.dumps(data))
        assert G._load_cached_spec("staged-cse") is None
        assert not path.exists(), "stale entry must be unlinked"

    def test_store_prunes_other_keys(self, tmp_path, monkeypatch):
        """Old-generator-version artefacts at the same variant don't
        accumulate: storing under a new key removes superseded files."""
        from repro.codegen import generators as G

        spec = get_kernel_spec("staged-cse")
        monkeypatch.setattr(G, "_cache_dir", lambda: tmp_path)
        stale = tmp_path / "staged-cse-deadbeef00000000.pkl"
        stale.write_bytes(b"old generator version")
        G._store_cached_spec(spec)
        assert not stale.exists()
        assert len(list(tmp_path.glob("staged-cse-*.pkl"))) == 1


class TestNativeBuildCache:
    """The built ``.so`` is keyed on everything that decides its machine
    code, and kernel pointers are only taken from arrays the C side can
    read as declared."""

    def test_key_separates_flags_and_hosts(self, monkeypatch):
        from repro.codegen import cbackend as C

        args = ("int x;", "gcc 12", "2.0")
        key = C.native_cache_key(*args)
        assert key == C.native_cache_key(*args, C.CFLAGS)
        assert key != C.native_cache_key(*args, ("-O2",) + C.CFLAGS[1:])
        assert key != C.native_cache_key(*args, C.CFLAGS_PORTABLE)
        assert "-march=native" not in C.CFLAGS_PORTABLE
        assert "-ffp-contract=off" in C.CFLAGS_PORTABLE
        # -march=native bakes in the build host's ISA
        monkeypatch.setattr(C, "host_cpu_fingerprint", lambda: "another-cpu")
        assert key != C.native_cache_key(*args)

    @pytest.mark.skipif(probe_cffi() is None,
                        reason="cffi or a C compiler is missing")
    def test_rejected_march_native_retries_portable(self, tmp_path, monkeypatch):
        """A compiler that refuses -march=native gets the portable flags,
        and that build is cached under its own key."""
        import subprocess

        from repro.codegen import cbackend as C

        real_run = subprocess.run
        attempts = []

        def run(cmd, **kw):
            if "-o" in cmd:
                attempts.append(tuple(f for f in cmd if f.startswith("-")))
                if "-march=native" in cmd:
                    return subprocess.CompletedProcess(cmd, 1, "", "bad -march")
            return real_run(cmd, **kw)

        monkeypatch.setattr(C, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(C.subprocess, "run", run)
        lib = C.build_native_lib("int probe;\n")
        assert lib.cflags == C.CFLAGS_PORTABLE and not lib.from_cache
        assert len(attempts) == 2 and "-march=native" in attempts[0]
        cc = C._cc()
        import cffi

        portable_key = C.native_cache_key(
            "int probe;\n", C._cc_version(cc), cffi.__version__,
            C.CFLAGS_PORTABLE)
        assert lib.path.name == f"native-{portable_key}.so"
        again = C.build_native_lib("int probe;\n")
        assert again.from_cache and again.cflags == C.CFLAGS_PORTABLE
        assert len(attempts) == 2  # served from the cache: no new compile

    def test_ptr_rejects_what_c_would_reinterpret(self):
        from repro.codegen.cbackend import NativeLib

        class FFI:
            def cast(self, ctype, addr):
                return ctype

        lib = NativeLib(None, FFI(), None, 0.0, True)
        assert lib.ptr(np.zeros(3)) == "double *"
        assert lib.ptr(np.zeros(3, dtype=np.int64)) == "long *"
        for bad in (np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.int32),
                    np.zeros((3, 4))[:, ::2]):
            with pytest.raises(TypeError):
                lib.ptr(bad)
