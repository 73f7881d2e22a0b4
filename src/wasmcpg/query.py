"""Native traversal layer over a frozen graph.

All operations are read-only and deterministic: node sets come back
duplicate-free in ascending id order. Predicates are plain callables over a
node id; the helpers below build the common ones and compose with
``p_and``/``p_or``/``p_not``.

Every walk (`bfs`, `reaches`, `instructions`, `descendants_*`,
`ascendants_ast`) is a filter over one breadth-first generator, `_walk`.
An edge condition is an `EdgeCond` (from `edge_type_cond` or
`ddg_edge_cond`), which walks one edge type's adjacency only, or any plain
callable over an `Edge`, which is asked about the edges of every type.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import GraphError
from . import graph as g

Predicate = Callable[[int], bool]

TRUE: Predicate = lambda node: True


@dataclass(frozen=True)
class EdgeCond:
    """Edges of one type whose properties equal `props`, a tuple of (key,
    value) pairs. Walks ask the store for this type's edges only."""
    type: str
    props: tuple[tuple[str, Any], ...] = ()

    def __call__(self, e: g.Edge) -> bool:
        return e.type == self.type and \
            all(e.properties.get(k) == v for k, v in self.props)


_AST, _CFG = EdgeCond(g.AST), EdgeCond(g.CFG)


def _cond(edge_type: str, **props: Any) -> EdgeCond:
    """`edge_type` edges, narrowed to each property of `props` not None."""
    return EdgeCond(edge_type, tuple((k, v) for k, v in props.items() if v is not None))


def edge_type_cond(edge_type: str) -> EdgeCond:
    return EdgeCond(edge_type)


def ddg_edge_cond(ddg_type: str | None = None, label=None) -> EdgeCond:
    return _cond(g.DDG, ddgType=ddg_type, label=label)


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
    fns = list(nodes)
    for fn in fns:
        if cpg.node(fn).kind != g.FUNCTION:
            raise GraphError(f"instructions() expects Function nodes, got node {fn}")
    return sorted({n for n in _walk(cpg, fns, _AST)
                   if cpg.nodes[n].kind == g.INSTRUCTION and pred(n)})


def _walk(cpg: g.Cpg, starts: Iterable[int], edge_cond: Callable[[g.Edge], bool] | None,
          direction: str = "out") -> Iterator[int]:
    """Breadth-first from `starts` along edges satisfying `edge_cond`: yields
    each node that a non-empty path reaches, once, so a start comes back
    only on a cycle. An `EdgeCond` reads one edge type from the store; any
    other callable, or None, sees every edge."""
    if direction not in ("out", "in"):
        raise GraphError(f"bad direction {direction!r}")
    out = direction == "out"
    step = cpg.out_edges if out else cpg.in_edges
    edge_type, test = None, edge_cond
    if isinstance(edge_cond, EdgeCond):
        edge_type, test = edge_cond.type, (edge_cond if edge_cond.props else None)
    seen: set[int] = set()
    queue = deque(sorted(set(starts)))
    while queue:
        for e in step(queue.popleft(), edge_type):
            if test is not None and not test(e):
                continue
            nxt = e.dst if out else e.src
            if nxt not in seen:
                seen.add(nxt)
                yield nxt
                queue.append(nxt)


def bfs(cpg: g.Cpg, starts: Iterable[int], pred: Predicate = TRUE,
        edge_cond: EdgeCond | None = None, limit: Optional[int] = None,
        direction: str = "out") -> list[int]:
    """Nodes satisfying `pred`, reachable via edges satisfying `edge_cond`;
    start nodes are excluded. With `limit`, the first `limit` such nodes in
    breadth-first order."""
    _require_frozen(cpg)
    if limit is not None and limit < 0:
        raise GraphError(f"negative bfs limit {limit}")
    start_set = set(starts)
    found: set[int] = set()
    if limit != 0:
        for n in _walk(cpg, start_set, edge_cond, direction):
            if n not in start_set and pred(n):
                found.add(n)
                if len(found) == limit:
                    break
    return sorted(found)


def descendants_cfg(cpg: g.Cpg, node: int) -> list[int]:
    return bfs(cpg, [node], TRUE, _CFG)


def descendants_ast(cpg: g.Cpg, node: int) -> list[int]:
    return bfs(cpg, [node], TRUE, _AST)


def ascendants_ast(cpg: g.Cpg, node: int) -> list[int]:
    return bfs(cpg, [node], TRUE, _AST, direction="in")


def children(cpg: g.Cpg, node: int, edge_type: str = g.AST) -> list[int]:
    """Direct successors along one edge type; AST children in operand order."""
    _require_frozen(cpg)
    if edge_type == g.AST:
        return cpg.ast_children(node)
    return cpg.adjacency(node, edge_type, "out")


def reaches(cpg: g.Cpg, src: int, dst: int, edge_cond: EdgeCond) -> bool:
    """True iff a non-empty path src -> dst exists along matching edges."""
    _require_frozen(cpg)
    return any(n == dst for n in _walk(cpg, [src], edge_cond))


def reaches_ddg(cpg: g.Cpg, src: int, dst: int, ddg_type: str, label) -> bool:
    return reaches(cpg, src, dst, ddg_edge_cond(ddg_type, label))


# -- predicate helpers -------------------------------------------------------

def p_property(cpg: g.Cpg, key: str, value, equal: bool = True) -> Predicate:
    if equal:
        return lambda n: cpg.node_property(n, key) == value
    return lambda n: cpg.node_property(n, key) != value


def p_inst_type(cpg: g.Cpg, inst_type: str) -> Predicate:
    return p_property(cpg, "instType", inst_type)


def _p_edge(read: Callable[[int, str], list[g.Edge]], cond: EdgeCond,
            equal: bool) -> Predicate:
    """Nodes with (`equal`) or without an edge matching `cond` in `read`."""
    return lambda n: any(cond(e) for e in read(n, cond.type)) == bool(equal)


def p_in_edge(cpg: g.Cpg, edge_type: str, label=None, equal: bool = True) -> Predicate:
    return _p_edge(cpg.in_edges, _cond(edge_type, label=label), equal)


def p_in_ddg_edge(cpg: g.Cpg, ddg_type: str, label=None, equal: bool = True) -> Predicate:
    return _p_edge(cpg.in_edges, ddg_edge_cond(ddg_type, label), equal)


def p_out_ddg_edge(cpg: g.Cpg, ddg_type: str, label=None, equal: bool = True) -> Predicate:
    return _p_edge(cpg.out_edges, ddg_edge_cond(ddg_type, label), equal)


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
