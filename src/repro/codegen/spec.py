"""The generated A-component schedule as the run path reads it.

Generation (paper §IV-B, :mod:`repro.codegen.generators`) needs SymPy and
NetworkX; running what it produced does not.  This module holds the
schedule's data type, its content digest and the on-disk cache, and
imports neither: a process that finds its variant in the cache never
loads the symbolic engine.  :func:`get_kernel_spec` imports the
generators only on a cache miss.
"""

from __future__ import annotations

import hashlib
import pathlib
import pickle
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.bssn import state as S
from .regalloc import Statement

if TYPE_CHECKING:
    from .graph import ExprDag

VARIANTS = ("sympygr", "binary-reduce", "staged-cse")

#: the native-lowering variant: the staged-cse schedule re-registered as
#: a first-class variant of its own, so the dataflow verifier, the CUDA
#: emitter and the analysis CLI treat the lowered schedule exactly like
#: the generated ones (see repro.codegen.backends)
COMPILED_VARIANT = "compiled"
ALL_VARIANTS = VARIANTS + (COMPILED_VARIANT,)

#: the parameter inputs of every schedule, in the order of the native
#: kernels' ``params`` vector; ``p_<name>`` is ``BSSNParams.<name>``
PARAM_NAMES = (
    "p_eta", "p_gauge_f", "p_lambda1", "p_lambda2", "p_lambda3",
    "p_lambda4", "p_lapse_c1", "p_lapse_c2",
)


def value_name(var: int) -> str:
    """Input name of an evolution variable."""
    return S.VAR_NAMES[var]


def grad_name(var: int, d: int) -> str:
    """Input name of a first derivative."""
    return f"grad_{d}_{S.VAR_NAMES[var]}"


def agrad_name(var: int, d: int) -> str:
    """Input name of an advective derivative."""
    return f"agrad_{d}_{S.VAR_NAMES[var]}"


def grad2_name(var: int, a: int, b: int) -> str:
    """Input name of a second derivative."""
    a, b = min(a, b), max(a, b)
    return f"grad2_{a}_{b}_{S.VAR_NAMES[var]}"


@dataclass
class KernelSpec:
    """A generated A-component kernel."""

    variant: str
    statements: list[Statement]
    input_names: set[str]
    dag: ExprDag | None = None
    #: how derivative inputs materialise in registers (see regalloc)
    input_defs: str = "upfront"

    @property
    def num_temps(self) -> int:
        """Statements that are not outputs."""
        return sum(1 for s in self.statements if not s.is_output)

    @property
    def total_flops(self) -> int:
        """Flops per grid point of the schedule."""
        return sum(s.flops for s in self.statements)


def schedule_digest(statements: list[Statement]) -> str:
    """Content hash of an instruction schedule.

    Stored alongside every cached spec and folded into the native-artifact
    cache keys (:mod:`repro.codegen.backends`), so a compiled ``.so`` can
    never be loaded against a schedule other than the one it was lowered
    from.
    """
    h = hashlib.sha256()
    for st in statements:
        h.update(
            f"{st.target}={st.src}|{','.join(st.inputs)}|{st.flops}"
            f"|{st.is_output}|{st.output_var}\n".encode()
        )
    return h.hexdigest()[:16]


def _cache_dir() -> pathlib.Path:
    d = pathlib.Path(__file__).resolve().parent / "_generated_cache"
    d.mkdir(exist_ok=True)
    return d


#: every source the generated schedules depend on: the equations, the
#: geometry and the state layout they are written over, the symbols, the
#: DAG order of binary-reduce, the statement type and the generators
_GENERATION_SOURCES = (
    "bssn/rhs.py", "bssn/geometry.py", "bssn/state.py",
    "codegen/equations.py", "codegen/symbols.py", "codegen/graph.py",
    "codegen/regalloc.py", "codegen/generators.py", "codegen/spec.py",
)


def _cache_key() -> str:
    """Invalidate the on-disk cache when any source of the generation
    changes; the sources are read as bytes, so keying the cache imports
    none of them."""
    root = pathlib.Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for name in _GENERATION_SOURCES:
        h.update((root / name).read_bytes())
    return h.hexdigest()[:16]


def _load_cached_spec(variant: str) -> KernelSpec | None:
    """Load one variant's cached spec, validating its schedule digest.

    A corrupt pickle, a payload missing the digest, or a digest that no
    longer matches the stored statements is *evicted* (unlinked) rather
    than silently regenerated around — the stale file would otherwise
    shadow every future load at the same cache key (mirrors the
    validate-then-discard semantics of ``checkpoint.find_latest_valid``).
    """
    path = _cache_dir() / f"{variant}-{_cache_key()}.pkl"
    if not path.exists():
        return None
    try:
        with open(path, "rb") as f:
            data = pickle.load(f)
        statements = [Statement(**s) for s in data["statements"]]
        if data["schedule_digest"] != schedule_digest(statements):
            raise ValueError("schedule digest mismatch")
        return KernelSpec(
            variant=data["variant"],
            statements=statements,
            input_names=set(data["input_names"]),
            input_defs=data["input_defs"],
        )
    except Exception:
        path.unlink(missing_ok=True)  # evict: corrupt or stale entry
        return None


def _store_cached_spec(spec: KernelSpec) -> None:
    cache = _cache_dir()
    path = cache / f"{spec.variant}-{_cache_key()}.pkl"
    data = {
        "variant": spec.variant,
        "statements": [asdict(s) for s in spec.statements],
        "input_names": sorted(spec.input_names),
        "input_defs": spec.input_defs,
        "schedule_digest": schedule_digest(spec.statements),
    }
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as f:
        pickle.dump(data, f)
    tmp.replace(path)
    # prune entries generated under older cache keys: they can never be
    # loaded again and would otherwise accumulate forever
    for old in cache.glob(f"{spec.variant}-*.pkl"):
        if old != path:
            old.unlink(missing_ok=True)


@lru_cache(maxsize=None)
def get_kernel_spec(variant: str) -> KernelSpec:
    """Load one variant's spec from the disk cache, or generate and
    store it on a miss — the only place the run path imports SymPy."""
    if variant not in ALL_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {ALL_VARIANTS}"
        )
    cached = _load_cached_spec(variant)
    if cached is not None:
        return cached
    from .generators import generate

    spec = generate(variant)
    _store_cached_spec(spec)
    return spec
