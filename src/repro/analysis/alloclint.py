"""AST lint enforcing PR 1's zero-allocation discipline on the hot path.

Functions registered via :func:`repro.perf.hot_path` form the RK4 step
pipeline (unzip → derivatives → algebra → boundary → zip → AXPY).  Once
the per-mesh workspace is warm, none of them may allocate array
temporaries.  This lint walks their source ASTs and flags:

* ``hot-alloc-call``    — a call to an allocating routine
  (``np.zeros/empty/copy/where/take/...``, ``*.copy()``, and the repo's
  own allocate-when-``out``-is-missing helpers such as ``unzip`` or
  ``evaluate_algebraic``) without an ``out=`` argument;
* ``hot-operator-temp`` — a binary/unary arithmetic expression whose
  operand is a known array value, which materialises a temporary where
  an ``out=`` ufunc form exists.

Array-ness is inferred per function (parameters annotated ``ndarray``,
values produced by allocators or indexing of arrays) — a deliberately
conservative, false-positive-averse heuristic.  Intentional allocations
(poolless reference branches and ``out=None`` fallbacks) carry
an ``# alloc-ok`` comment on the line, which suppresses findings there:
an explicit, greppable record of every allocation the hot path is
allowed to make.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable

from .dataflow import SEVERITY_ERROR, Finding

#: pragma comment marking a reviewed, intentional allocation
PRAGMA = "alloc-ok"

#: numpy routines that allocate their result (unless given ``out=``)
NP_ALLOCATORS = {
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "copy", "array", "ascontiguousarray", "asfortranarray",
    "concatenate", "stack", "hstack", "vstack", "tile", "repeat",
    "where", "take", "choose", "einsum",
}

#: repo functions/methods that allocate their result when ``out=`` is
#: not passed (the step-path call sites always pass it)
REPO_ALLOCATORS = {
    "unzip", "scatter_to_patches", "gather_to_patches", "allocate_patches",
    "prolong_blocks", "apply_stencil", "evaluate_algebraic",
    "d1", "d2", "d2_mixed", "ko", "ko_all", "d1_upwind",
}

_NP_MODULES = {"np", "numpy"}


def _attr_chain_root(node: ast.expr) -> str | None:
    """Root ``Name`` of an expression like ``a``, ``a[i]`` — attribute
    access (``a.shape``) deliberately breaks the chain, so scalar
    properties of arrays are not treated as arrays."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return _attr_chain_root(node.value)
    return None


def _callee_name(call: ast.Call) -> tuple[str | None, str | None]:
    """``(module_or_object, function)`` of a call target."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return None, fn.id
    if isinstance(fn, ast.Attribute):
        base = fn.value
        if isinstance(base, ast.Name):
            return base.id, fn.attr
        return "<expr>", fn.attr
    return None, None


def _has_out_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "out" for kw in call.keywords)


def _is_allocating_call(call: ast.Call) -> str | None:
    """Reason string if this call allocates its result, else None."""
    base, name = _callee_name(call)
    if name is None:
        return None
    if base in _NP_MODULES and name in NP_ALLOCATORS:
        if not _has_out_kwarg(call):
            return f"np.{name} without out="
        return None
    if name == "copy" and base is not None and base not in _NP_MODULES:
        return f"{base}.copy()"
    if name in REPO_ALLOCATORS and not _has_out_kwarg(call):
        return f"{name}(...) without out="
    return None


class _HotFunctionLinter(ast.NodeVisitor):
    def __init__(self, label: str, pragma_lines: set[int], line_offset: int):
        self.label = label
        self.pragma_lines = pragma_lines
        self.line_offset = line_offset
        self.array_names: set[str] = set()
        self.findings: list[Finding] = []

    # -- helpers ---------------------------------------------------------
    def _line(self, node: ast.AST) -> int:
        return self.line_offset + node.lineno - 1

    def _add(self, kind: str, node: ast.AST, message: str) -> None:
        line = self._line(node)
        if line in self.pragma_lines:
            return
        self.findings.append(
            Finding(kind, SEVERITY_ERROR, message, f"{self.label}:{line}", None)
        )

    def _is_array_expr(self, node: ast.expr) -> bool:
        root = _attr_chain_root(node)
        return root is not None and root in self.array_names

    def _value_is_array(self, node: ast.expr) -> bool:
        """True when the assigned value is array-valued (heuristic)."""
        if self._is_array_expr(node):
            return True
        if isinstance(node, ast.BinOp):
            return self._value_is_array(node.left) or self._value_is_array(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._value_is_array(node.operand)
        if isinstance(node, ast.IfExp):
            return self._value_is_array(node.body) or self._value_is_array(node.orelse)
        if isinstance(node, ast.Call):
            base, name = _callee_name(node)
            if base in _NP_MODULES:
                return True
            if name in REPO_ALLOCATORS or name == "get":
                return True
        return False

    def _bind(self, target: ast.expr, is_array: bool) -> None:
        if isinstance(target, ast.Name):
            if is_array:
                self.array_names.add(target.id)
            else:
                self.array_names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, is_array)

    # -- visitors --------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            ann = a.annotation
            if ann is not None and "ndarray" in ast.unparse(ann):
                self.array_names.add(a.arg)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # pragma: no cover

    def visit_Assign(self, node: ast.Assign) -> None:
        is_array = self._value_is_array(node.value)
        for t in node.targets:
            self._bind(t, is_array)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, self._value_is_array(node.value))
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # in-place update of an array is fine; its RHS may still allocate
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        reason = _is_allocating_call(node)
        if reason is not None:
            self._add(
                "hot-alloc-call", node,
                f"allocating call in hot path: {reason}",
            )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._is_array_expr(node.left) or self._is_array_expr(node.right):
            self._add(
                "hot-operator-temp", node,
                "array operator expression materialises a temporary "
                f"({ast.unparse(node)!s:.60}); use the out= ufunc form",
            )
        self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        if isinstance(node.op, ast.USub) and self._is_array_expr(node.operand):
            self._add(
                "hot-operator-temp", node,
                f"array negation materialises a temporary ({ast.unparse(node)})",
            )
        self.generic_visit(node)


def lint_function(fn: Callable, *, label: str | None = None) -> list[Finding]:
    """Lint one function object; returns its findings."""
    src_lines, start = inspect.getsourcelines(fn)
    filename = inspect.getsourcefile(fn) or "<unknown>"
    try:
        import repro

        root = inspect.getsourcefile(repro)
        if root:
            import os.path

            pkg_root = os.path.dirname(os.path.dirname(root))
            filename = os.path.relpath(filename, pkg_root)
    except Exception:  # pragma: no cover - cosmetic only
        pass
    tree = ast.parse(textwrap.dedent("".join(src_lines)))
    fnode = tree.body[0]
    pragma_lines = {
        start + i for i, line in enumerate(src_lines) if PRAGMA in line
    }
    linter = _HotFunctionLinter(
        label or filename, pragma_lines, line_offset=start
    )
    linter.visit(fnode)
    return linter.findings


def lint_hot_paths(
    registry: dict[str, Callable] | None = None,
) -> tuple[list[Finding], dict]:
    """Lint every registered hot-path function.

    Returns ``(findings, stats)`` where stats records the functions
    checked and the number of pragma exemptions in force.
    """
    if registry is None:
        from repro.perf import registered_hot_paths

        registry = registered_hot_paths()
    findings: list[Finding] = []
    exemptions = 0
    for key in sorted(registry):
        fn = registry[key]
        src_lines, _ = inspect.getsourcelines(fn)
        exemptions += sum(1 for line in src_lines if PRAGMA in line)
        findings.extend(lint_function(fn, label=key))
    stats = {
        "functions_checked": len(registry),
        "pragma_exemptions": exemptions,
        "registry": sorted(registry),
    }
    return findings, stats
