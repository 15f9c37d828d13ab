"""Binary computational DAG of the A component (paper Fig. 10, §IV-B).

Every SymPy subexpression becomes a node; n-ary sums/products are
binarised left-associatively so each interior node is a single binary
(or unary) machine-level operation.  Edges run operand -> consumer, so a
valid evaluation order is any topological order: "node v is visited only
when its descendants u have been computed" in the paper's phrasing.

The paper reports 2516 nodes and 6708 edges for the composed graph of all
24 equations; the construction here lands in the same regime (asserted
loosely in the tests — the exact count depends on expression-tree
details).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import sympy as sp


@dataclass
class DagNode:
    """One node of the binary DAG."""

    id: int
    op: str  # 'input' | 'const' | 'add' | 'mul' | 'pow' | 'neg'
    args: tuple[int, ...] = ()
    name: str | None = None  # input symbol name
    value: float | None = None  # constant value
    exponent: float | None = None  # for 'pow'
    is_output: bool = False
    output_var: int | None = None


@dataclass
class ExprDag:
    """Binary DAG over all 24 RHS expressions."""

    nodes: list[DagNode] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)  # node id per equation

    def graph(self) -> nx.DiGraph:
        """The DAG as a networkx DiGraph (operand -> consumer edges)."""
        g = nx.DiGraph()
        for n in self.nodes:
            g.add_node(n.id)
        for n in self.nodes:
            for a in n.args:
                g.add_edge(a, n.id)
        return g

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Total operand edges."""
        return sum(len(n.args) for n in self.nodes)

    @property
    def num_ops(self) -> int:
        """Interior (operation) nodes."""
        return sum(1 for n in self.nodes if n.op not in ("input", "const"))


def _lifo_topological_sort(g: nx.DiGraph):
    """Kahn's algorithm with a stack as the ready set (depth-first
    tie-breaking)."""
    indeg = dict(g.in_degree())
    stack = [n for n in g.nodes if indeg[n] == 0]
    while stack:
        n = stack.pop()
        yield n
        for m in g.successors(n):
            indeg[m] -= 1
            if indeg[m] == 0:
                stack.append(m)


class _Builder:
    def __init__(self) -> None:
        self.dag = ExprDag()
        self._cache: dict = {}

    def _new(self, **kw) -> int:
        node = DagNode(id=len(self.dag.nodes), **kw)
        self.dag.nodes.append(node)
        return node.id

    def visit(self, e: sp.Expr) -> int:
        key = e
        if key in self._cache:
            return self._cache[key]
        if isinstance(e, sp.Symbol):
            nid = self._new(op="input", name=e.name)
        elif e.is_Number:
            nid = self._new(op="const", value=float(e))
        elif isinstance(e, sp.Add) or isinstance(e, sp.Mul):
            op = "add" if isinstance(e, sp.Add) else "mul"
            arg_ids = [self.visit(a) for a in e.args]
            acc = arg_ids[0]
            for a in arg_ids[1:]:
                acc = self._new(op=op, args=(acc, a))
            nid = acc
        elif isinstance(e, sp.Pow):
            base = self.visit(e.base)
            if e.exp.is_Integer and 1 < int(e.exp) <= 4:
                # expand small integer powers into multiplies
                acc = base
                for _ in range(int(e.exp) - 1):
                    acc = self._new(op="mul", args=(acc, base))
                nid = acc
            else:
                nid = self._new(op="pow", args=(base,), exponent=float(e.exp))
        else:
            raise NotImplementedError(f"unsupported expression head: {type(e)}")
        self._cache[key] = nid
        return nid


def build_dag(exprs: list[sp.Expr]) -> ExprDag:
    """Compose the binary DAG of all equations (shared subexpressions are
    shared nodes)."""
    b = _Builder()
    for var, e in enumerate(exprs):
        nid = b.visit(sp.sympify(e))
        node = b.dag.nodes[nid]
        if node.is_output:
            # two equations reduced to the same node: add an alias copy
            nid = b._new(op="mul", args=(nid, b.visit(sp.Integer(1))))
            node = b.dag.nodes[nid]
        node.is_output = True
        node.output_var = var
        b.dag.outputs.append(nid)
    return b.dag


def dfs_schedule(dag: ExprDag) -> list[int]:
    """Liveness-reducing evaluation order: DFS post-order from the outputs
    with the register-heavier operand subtree visited first (Sethi–Ullman
    tie-breaking).

    The paper schedules binary-reduce by a topological sort of the line
    graph of G; topological orders are not unique and the paper's
    tie-breaking is unspecified, so we use this order, which realises the
    same goal (short live ranges, Alg. 3's eager eviction) and is itself a
    valid line-graph topological order.
    """
    import sys

    need: dict[int, int] = {}

    def reg_need(nid: int) -> int:
        if nid in need:
            return need[nid]
        node = dag.nodes[nid]
        if not node.args:
            need[nid] = 1
            return 1
        ns = sorted((reg_need(a) for a in node.args), reverse=True)
        need[nid] = max(ns[0], ns[1] + 1) if len(ns) > 1 else ns[0]
        return need[nid]

    order: list[int] = []
    visited: set[int] = set()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * dag.num_nodes + 100))
    try:
        def dfs(nid: int) -> None:
            if nid in visited:
                return
            visited.add(nid)
            node = dag.nodes[nid]
            for a in sorted(node.args, key=reg_need, reverse=True):
                dfs(a)
            if node.args:
                order.append(nid)

        for out in dag.outputs:
            dfs(out)
    finally:
        sys.setrecursionlimit(limit)
    return order


def line_graph_schedule(dag: ExprDag) -> list[int]:
    """Node visit order from the topological sort of the line graph of G
    (the paper's binary-reduce traversal heuristic, §IV-B).

    Edges are processed in line-graph topological order; a node becomes
    ready when its last incoming edge has been processed.  Inputs and
    constants are available from the start and are not scheduled.
    """
    g = dag.graph()
    lg = nx.line_graph(g)
    # duplicate operands (e.g. x*x) collapse to one edge in the DiGraph,
    # so count unique predecessors
    remaining = {n.id: g.in_degree(n.id) for n in dag.nodes if n.args}
    order: list[int] = []
    # line-graph nodes are edges (u, v); process them topologically.
    # Topological orders are not unique: we use Kahn's algorithm with a
    # LIFO ready-set, whose depth-first flavour keeps live ranges short —
    # the property the paper's heuristic is chosen for.
    for (u, v) in _lifo_topological_sort(lg):
        if v in remaining:
            remaining[v] -= 1
            if remaining[v] == 0:
                order.append(v)
                del remaining[v]
    # safety net: anything not reached through the line graph (cannot
    # happen for well-formed DAGs, but keep the schedule total)
    if remaining:
        for v in nx.topological_sort(g):
            if v in remaining:
                order.append(v)
                del remaining[v]
    return order
