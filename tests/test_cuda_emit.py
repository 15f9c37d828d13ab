"""Tests for the CUDA-C emission of the generated kernels: the text's
golden properties, and its execution on the host."""

import hashlib
import math
import re

import pytest

from repro.analysis.cuda_host import check_cuda_on_host
from repro.codegen import (
    COMPILED_VARIANT,
    VARIANTS,
    ToolchainError,
    emit_c_source,
    emit_py_source,
    get_kernel_spec,
    probe_cffi,
)
from repro.codegen.cuda_emit import LAUNCH_BOUNDS, build_on_host, emit_cuda
from repro.codegen.lowering import classify_inputs, is_bitwise_lowerable

needs_cc = pytest.mark.skipif(probe_cffi() is None,
                              reason="cffi or a C compiler is missing")


@pytest.fixture
def scratch_cache(tmp_path, monkeypatch):
    """Builds of altered sources go to a directory of their own: under a
    unit's prefix they would evict its good build from the real cache."""
    from repro.codegen import cbackend

    monkeypatch.setattr(cbackend, "_cache_dir", lambda: tmp_path)
    return tmp_path


@pytest.fixture(scope="module", params=VARIANTS)
def cuda_source(request):
    spec = get_kernel_spec(request.param)
    return request.param, spec, emit_cuda(spec)


def test_launch_bounds_match_paper(cuda_source):
    """Table II's configuration: __launch_bounds__(343, 3)."""
    _, _, src = cuda_source
    assert LAUNCH_BOUNDS == (343, 3)
    assert "__launch_bounds__(343, 3)" in src


def test_all_outputs_written(cuda_source):
    _, _, src = cuda_source
    written = set(int(m) for m in re.findall(r"out\[(\d+)\]\[pp\]", src))
    assert written == set(range(24))


def test_single_assignment_form(cuda_source):
    """Every temporary is const and defined exactly once."""
    _, _, src = cuda_source
    defs = re.findall(r"const double (\w+) =", src)
    assert len(defs) == len(set(defs))


def test_no_python_operators_leak(cuda_source):
    _, _, src = cuda_source
    assert "**" not in src
    assert "numpy" not in src


def test_deriv_inputs_declared(cuda_source):
    _, spec, src = cuda_source
    order = classify_inputs(spec)[1]
    assert len(order) > 100  # most of the 210 derivatives are used
    for i, name in enumerate(order[:5]):
        assert f"const double {name} = d[{i}][pp];" in src


def test_statement_count_scales_with_spec(cuda_source):
    variant, spec, src = cuda_source
    # one C statement per generated statement (plus declarations)
    assert src.count(";") >= len(spec.statements)


def test_variants_differ_in_body():
    a = emit_cuda(get_kernel_spec("sympygr"))
    b = emit_cuda(get_kernel_spec("binary-reduce"))
    assert a != b


# -- the one A-stage walk: the solver's sources are pinned -------------------


def test_native_sources_are_pinned():
    """The C and Python chunk kernels the A-stage walk and the
    hand-written prelude emit, byte for byte: a moved pin moves the
    native cache key (every checkout rebuilds its ``.so``) and may move
    the ledger's numbers — change it together with the kernels, never
    alone."""
    spec = get_kernel_spec(COMPILED_VARIANT)
    digests = {
        emit_c_source: "388d9ee8eac1760225ee66ab025adf61"
                       "70b78c926abe12607e16bbcc7b0ccf95",
        emit_py_source: "7ca5da705df12260fe31b6abca7d2056"
                        "9725ac734ca8c027517f7efccac535ba",
    }
    for emit, digest in digests.items():
        assert hashlib.sha256(emit(spec).encode()).hexdigest() == digest


# -- validation by execution: CUDA on the host ------------------------------


@needs_cc
def test_emitted_source_validates(cuda_source):
    """The emitted text, compiled for the host, against the NumPy
    execution of the same schedule: every ``out[N][pp]`` stored (the
    NaN-poisoned buffer comes back clean) and ``np.array_equal`` for the
    schedules that lower bitwise.  ``binary-reduce`` keeps one ``** -2.0``
    that the CUDA policy spells ``1.0 / (x*x)`` and NumPy ``pow`` — one
    ulp apart at the source, 1.4e-13 relative at the worst point after
    the cancellations downstream — so it is held to 1e-12."""
    variant, spec, src = cuda_source
    run = check_cuda_on_host(spec, src)
    assert run["written"] and run["ok"]
    assert run["octants"] == 8
    if is_bitwise_lowerable(spec)[0]:
        assert run["max_rel"] == 0.0
    else:
        assert variant == "binary-reduce" and 0.0 < run["max_rel"] <= 1e-12


@needs_cc
def test_validation_catches_undeclared_symbol(cuda_source, scratch_cache):
    _, spec, src = cuda_source
    bad = src.replace("[pp] = ", "[pp] = bogus_undeclared + ", 1)
    with pytest.raises(ToolchainError, match="bogus_undeclared"):
        build_on_host(spec, bad)


@needs_cc
def test_validation_catches_redeclaration(cuda_source, scratch_cache):
    _, spec, src = cuda_source
    lines = src.splitlines()
    decl = next(
        i for i, ln in enumerate(lines)
        if ln.strip().startswith("const double ") and " = " in ln
        and "= d[" not in ln and "= u[" not in ln
    )
    lines.insert(decl + 1, lines[decl])
    with pytest.raises(ToolchainError, match="redefinition|redeclar"):
        build_on_host(spec, "\n".join(lines))


@needs_cc
def test_validation_catches_missing_output(cuda_source, scratch_cache):
    _, spec, src = cuda_source
    lines = [ln for ln in src.splitlines() if "out[0][pp]" not in ln]
    run = check_cuda_on_host(spec, "\n".join(lines))
    assert not run["written"] and not run["ok"]
    assert math.isnan(run["max_rel"])


@needs_cc
def test_cuda_units_and_solver_library_share_the_cache(scratch_cache):
    """Each translation unit has its own file prefix: a new build evicts
    older builds of that unit only, never another unit's (the solver's
    ``native-*.so`` survives the CUDA builds and the other way round)."""
    from repro.codegen import cbackend

    specs = [get_kernel_spec(v) for v in ("sympygr", "staged-cse")]

    solver_so = cbackend.build_native_lib("int solver_unit;\n").path
    cuda_sos = [build_on_host(spec).path for spec in specs]
    assert solver_so.name.startswith("native-") and solver_so.exists()
    assert all(so.exists() for so in cuda_sos)

    rebuilt = cbackend.build_native_lib("int solver_unit_v2;\n")
    assert not rebuilt.from_cache and not solver_so.exists()
    assert all(so.exists() for so in cuda_sos)

    changed = build_on_host(specs[0], emit_cuda(specs[0]) + "// v2\n")
    assert not changed.from_cache and not cuda_sos[0].exists()
    assert rebuilt.path.exists() and cuda_sos[1].exists()
    assert build_on_host(specs[1]).from_cache
