"""Native traversal layer over a frozen graph.

All operations are read-only and deterministic: node sets come back
duplicate-free in ascending id order. Predicates are plain callables over a
node id; the helpers below build the common ones and compose with
``p_and``/``p_or``/``p_not``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from .errors import GraphError
from . import graph as g

Predicate = Callable[[int], bool]
EdgeCond = Callable[[g.Edge], bool]

TRUE: Predicate = lambda node: True


def _require_frozen(cpg: g.Cpg) -> None:
    if not cpg.frozen:
        raise GraphError("queries require a frozen graph")


def functions(cpg: g.Cpg) -> list[int]:
    """All Function nodes, ascending index."""
    _require_frozen(cpg)
    return [n.id for n in cpg.function_nodes()]


def instructions(cpg: g.Cpg, nodes: Iterable[int], pred: Predicate = TRUE) -> list[int]:
    """Instruction nodes AST-reachable from the given Function nodes."""
    _require_frozen(cpg)
    out: set[int] = set()
    for fn in nodes:
        if cpg.node(fn).kind != g.FUNCTION:
            raise GraphError(f"instructions() expects Function nodes, got node {fn}")
        for nid in _ast_descendants(cpg, fn):
            if cpg.node(nid).kind == g.INSTRUCTION and pred(nid):
                out.add(nid)
    return sorted(out)


def _ast_descendants(cpg: g.Cpg, start: int) -> Iterable[int]:
    seen = {start}
    stack = [start]
    while stack:
        nid = stack.pop()
        for e in cpg.out_edges(nid, g.AST):
            if e.dst not in seen:
                seen.add(e.dst)
                yield e.dst
                stack.append(e.dst)


def edge_type_cond(edge_type: str) -> EdgeCond:
    return lambda e: e.type == edge_type


def ddg_edge_cond(ddg_type: str | None = None, label=None) -> EdgeCond:
    def cond(e: g.Edge) -> bool:
        if e.type != g.DDG:
            return False
        if ddg_type is not None and e.properties.get("ddgType") != ddg_type:
            return False
        if label is not None and e.properties.get("label") != label:
            return False
        return True
    return cond


def bfs(cpg: g.Cpg, starts: Iterable[int], pred: Predicate = TRUE,
        edge_cond: EdgeCond | None = None, limit: Optional[int] = None,
        direction: str = "out") -> list[int]:
    """Nodes satisfying `pred`, reachable via edges satisfying `edge_cond`.

    Start nodes are excluded; every node is visited at most once.
    """
    _require_frozen(cpg)
    start_set = set(starts)
    seen = set(start_set)
    queue = deque(sorted(start_set))
    found: set[int] = set()
    while queue:
        nid = queue.popleft()
        edges = cpg.out_edges(nid) if direction == "out" else cpg.in_edges(nid)
        for e in edges:
            if edge_cond is not None and not edge_cond(e):
                continue
            nxt = e.dst if direction == "out" else e.src
            if nxt in seen:
                continue
            seen.add(nxt)
            if pred(nxt):
                found.add(nxt)
                if limit is not None and len(found) >= limit:
                    return sorted(found)
            queue.append(nxt)
    return sorted(found)


def descendants_cfg(cpg: g.Cpg, node: int) -> list[int]:
    return bfs(cpg, [node], TRUE, edge_type_cond(g.CFG))


def descendants_ast(cpg: g.Cpg, node: int) -> list[int]:
    return bfs(cpg, [node], TRUE, edge_type_cond(g.AST))


def ascendants_ast(cpg: g.Cpg, node: int) -> list[int]:
    return bfs(cpg, [node], TRUE, edge_type_cond(g.AST), direction="in")


def children(cpg: g.Cpg, node: int, edge_type: str = g.AST) -> list[int]:
    """Direct successors along one edge type; AST children in operand order."""
    _require_frozen(cpg)
    if edge_type == g.AST:
        return cpg.ast_children(node)
    return cpg.adjacency(node, edge_type, "out")


def reaches(cpg: g.Cpg, src: int, dst: int, edge_cond: EdgeCond) -> bool:
    """True iff a non-empty path src -> dst exists along matching edges."""
    _require_frozen(cpg)
    seen = set()
    stack = [src]
    while stack:
        nid = stack.pop()
        for e in cpg.out_edges(nid):
            if not edge_cond(e):
                continue
            if e.dst == dst:
                return True
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return False


def reaches_ddg(cpg: g.Cpg, src: int, dst: int, ddg_type: str, label) -> bool:
    return reaches(cpg, src, dst, ddg_edge_cond(ddg_type, label))


# -- predicate helpers -------------------------------------------------------

def p_property(cpg: g.Cpg, key: str, value, equal: bool = True) -> Predicate:
    if equal:
        return lambda n: cpg.node_property(n, key) == value
    return lambda n: cpg.node_property(n, key) != value


def p_inst_type(cpg: g.Cpg, inst_type: str) -> Predicate:
    return p_property(cpg, "instType", inst_type)


def p_in_edge(cpg: g.Cpg, edge_type: str, label=None, equal: bool = True) -> Predicate:
    def pred(n: int) -> bool:
        hit = any(label is None or e.properties.get("label") == label
                  for e in cpg.in_edges(n, edge_type))
        return hit if equal else not hit
    return pred


def p_in_ddg_edge(cpg: g.Cpg, ddg_type: str, label=None, equal: bool = True) -> Predicate:
    cond = ddg_edge_cond(ddg_type, label)
    def pred(n: int) -> bool:
        hit = any(cond(e) for e in cpg.in_edges(n, g.DDG))
        return hit if equal else not hit
    return pred


def p_out_ddg_edge(cpg: g.Cpg, ddg_type: str, label=None, equal: bool = True) -> Predicate:
    cond = ddg_edge_cond(ddg_type, label)
    def pred(n: int) -> bool:
        hit = any(cond(e) for e in cpg.out_edges(n, g.DDG))
        return hit if equal else not hit
    return pred


def p_reaches_in(cpg: g.Cpg, src: int, edge_cond: EdgeCond) -> Predicate:
    return lambda n: reaches(cpg, src, n, edge_cond)


def p_reaches_out(cpg: g.Cpg, dst: int, edge_cond: EdgeCond) -> Predicate:
    return lambda n: reaches(cpg, n, dst, edge_cond)


def p_test(hook: Callable[[int], bool]) -> Predicate:
    return hook


def p_and(*preds: Predicate) -> Predicate:
    return lambda n: all(p(n) for p in preds)


def p_or(*preds: Predicate) -> Predicate:
    return lambda n: any(p(n) for p in preds)


def p_not(pred: Predicate) -> Predicate:
    return lambda n: not pred(n)
