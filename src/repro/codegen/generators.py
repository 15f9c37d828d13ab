"""The three RHS code generators of paper §IV-B.

* ``sympygr``      — the baseline: global common-subexpression elimination
  over all 24 equations (SymPyGR's strategy).  Fewest flops, but the ~900
  temporaries have long live ranges -> heavy register spilling.
* ``binary-reduce`` — Algorithm 3: emit one binary operation per node of
  the expression DAG, in the order given by the topological sort of the
  DAG's line graph, evicting values as they die.  Slightly more
  statements, far shorter live ranges.
* ``staged-cse``   — per-equation CSE: each equation is generated and
  completed independently ("compute the RHS of an equation as soon as its
  derivatives are ready"), so temporaries never live across equations.

All three run as NumPy kernels (:func:`repro.codegen.backends.get_algebra_kernel`)
that are drop-in replacements for the reference ``evaluate_algebraic``
and must agree with it to roundoff.

SymPy and NetworkX reach the run path only through this module: a
solver loads the cached schedule through
:func:`repro.codegen.spec.get_kernel_spec`, which imports this module
only on a cache miss.  ``COMPILED_VARIANT`` and ``get_kernel_spec`` stay
importable from here.
"""

from __future__ import annotations

import sympy as sp

from .equations import symbolic_rhs
from .graph import build_dag, dfs_schedule
from .regalloc import Statement
from .spec import COMPILED_VARIANT, PARAM_NAMES, KernelSpec, get_kernel_spec  # noqa: F401


def _binarize(e: sp.Expr, target: str, prefix: str,
              statements: list[Statement], *, is_output: bool = False,
              output_var: int | None = None) -> None:
    """Decompose one assignment into binary-op statements.

    All variants are emitted (and register-analysed) at this granularity
    so their schedules are comparable — a coarse multi-op statement would
    hide its intra-statement register pressure.
    """
    counter = [0]
    cache: dict = {}

    def fresh() -> str:
        counter[0] += 1
        return f"{prefix}_{counter[0]}"

    def emit(op_src: str, inputs: tuple[str, ...], name: str | None = None) -> str:
        t = name if name is not None else fresh()
        statements.append(Statement(target=t, src=op_src, inputs=inputs, flops=1))
        return t

    def visit(x: sp.Expr) -> tuple[str, bool]:
        """Returns (reference string, is_register_value)."""
        if x in cache:
            return cache[x]
        if isinstance(x, sp.Symbol):
            res = (x.name, True)
        elif x.is_Number:
            res = (repr(float(x)), False)
        elif isinstance(x, (sp.Add, sp.Mul)):
            sym = "+" if isinstance(x, sp.Add) else "*"
            refs = [visit(a) for a in x.args]
            acc_ref, acc_val = refs[0]
            for ref, is_val in refs[1:]:
                ins = tuple(
                    r for r, v in ((acc_ref, acc_val), (ref, is_val)) if v
                )
                acc_ref = emit(f"{acc_ref} {sym} {ref}", ins)
                acc_val = True
            res = (acc_ref, acc_val)
        elif isinstance(x, sp.Pow):
            base_ref, base_val = visit(x.base)
            exp = x.exp
            if exp.is_Integer and 1 < int(exp) <= 4:
                acc = base_ref
                for _ in range(int(exp) - 1):
                    acc = emit(f"{acc} * {base_ref}",
                               (acc, base_ref) if base_val else (acc,))
                res = (acc, True)
            elif exp.is_Integer and -4 <= int(exp) <= -1:
                # x**-n as repeated multiplication + one division: every
                # elementary op is IEEE-exact, so NumPy execution and the
                # compiled backends agree bitwise (NumPy's large-array
                # ``** -2.0`` dispatches to a SIMD pow that differs from
                # libm at the last ulp — see repro.codegen.backends)
                acc = base_ref
                for _ in range(-int(exp) - 1):
                    acc = emit(f"{acc} * {base_ref}",
                               (acc, base_ref) if base_val else (acc,))
                res = (emit(f"1.0 / {acc}", (acc,) if base_val else ()), True)
            else:
                ins = (base_ref,) if base_val else ()
                res = (emit(f"{base_ref} ** {float(exp)!r}", ins), True)
        else:
            raise NotImplementedError(f"unsupported head {type(x)}")
        cache[x] = res
        return res

    ref, is_val = visit(sp.sympify(e))
    if statements and statements[-1].target == ref and ref.startswith(prefix):
        # rename the final intermediate instead of emitting a copy
        last = statements[-1]
        statements[-1] = Statement(
            target=target, src=last.src, inputs=last.inputs, flops=last.flops,
            is_output=is_output, output_var=output_var,
        )
    else:
        statements.append(
            Statement(target=target, src=ref, inputs=(ref,) if is_val else (),
                      flops=0, is_output=is_output, output_var=output_var)
        )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _all_input_names(syms) -> set[str]:
    return set(syms) | set(PARAM_NAMES)


def generate_sympygr() -> KernelSpec:
    """Baseline: global CSE across all 24 equations, temporaries emitted
    in CSE discovery order and all final expressions evaluated last —
    the long-live-range structure the paper criticises."""
    exprs, syms = symbolic_rhs()
    repl, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("x"), order="none")
    statements: list[Statement] = []
    for i, (sym, sub) in enumerate(repl):
        _binarize(sub, str(sym), f"c{i}", statements)
    for var, e in enumerate(reduced):
        _binarize(e, f"rhs_{var}", f"o{var}", statements,
                  is_output=True, output_var=var)
    return KernelSpec("sympygr", statements, _all_input_names(syms))


def generate_binary_reduce() -> KernelSpec:
    """Algorithm 3: one binary statement per DAG node, in a
    liveness-reducing topological order (see :func:`dfs_schedule`)."""
    exprs, syms = symbolic_rhs()
    dag = build_dag(exprs)
    order = dfs_schedule(dag)

    def ref(nid: int) -> str:
        node = dag.nodes[nid]
        if node.op == "input":
            return node.name  # type: ignore[return-value]
        if node.op == "const":
            return repr(node.value)
        return f"t{nid}"

    def operands(node) -> tuple[str, ...]:
        return tuple(ref(a) for a in node.args if dag.nodes[a].op != "const")

    statements: list[Statement] = []
    for nid in order:
        node = dag.nodes[nid]
        if node.op == "add":
            src = f"{ref(node.args[0])} + {ref(node.args[1])}"
        elif node.op == "mul":
            src = f"{ref(node.args[0])} * {ref(node.args[1])}"
        elif node.op == "pow":
            src = f"{ref(node.args[0])} ** {node.exponent!r}"
        else:  # pragma: no cover - inputs/consts are never scheduled
            raise AssertionError(node.op)
        statements.append(
            Statement(
                target=f"t{nid}",
                src=src,
                inputs=operands(node),
                flops=1,
                is_output=node.is_output,
                output_var=node.output_var,
            )
        )
    return KernelSpec("binary-reduce", statements, _all_input_names(syms), dag=dag)


def generate_staged_cse() -> KernelSpec:
    """Staged + CSE: the baseline's global-CSE statements, re-staged so
    that each equation is completed as soon as its inputs are ready.

    Temporaries are hoisted to the first equation that needs them (no
    recomputation, so the flop count equals the baseline's), and
    derivative inputs materialise on demand — "compute the RHS of an
    equation as soon as its derivatives are ready", which shortens the
    live ranges of both temporaries and the 210 derivative values.
    """
    base = generate_sympygr()
    by_target = {st.target: i for i, st in enumerate(base.statements)}
    emitted: set[int] = set()
    staged: list[Statement] = []

    def emit_with_deps(root: int) -> None:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            idx, ready = stack.pop()
            if idx in emitted:
                continue
            if ready:
                emitted.add(idx)
                staged.append(base.statements[idx])
                continue
            stack.append((idx, True))
            for name in reversed(base.statements[idx].inputs):
                dep = by_target.get(name)
                if dep is not None and dep not in emitted:
                    stack.append((dep, False))

    outputs = [i for i, st in enumerate(base.statements) if st.is_output]
    for idx in sorted(outputs, key=lambda i: base.statements[i].output_var):
        emit_with_deps(idx)
    # dead statements (if any) are dropped rather than emitted
    return KernelSpec("staged-cse", staged, set(base.input_names),
                      input_defs="on-demand")


def generate(variant: str) -> KernelSpec:
    """Run one variant's generator."""
    if variant == COMPILED_VARIANT:
        # the native lowering reuses the staged-cse schedule verbatim —
        # same statements, same digest inputs — under its own variant name
        base = generate_staged_cse()
        return KernelSpec(COMPILED_VARIANT, base.statements,
                          set(base.input_names), input_defs=base.input_defs)
    return {"sympygr": generate_sympygr,
            "binary-reduce": generate_binary_reduce,
            "staged-cse": generate_staged_cse}[variant]()
