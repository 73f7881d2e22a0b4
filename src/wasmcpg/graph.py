"""Property-graph store: typed nodes, typed edges, and per-element property maps.

One shared node set carries four edge-typed subgraphs (AST, CFG, CG, DDG).
Properties are schema-checked at insertion; `type` and `id` are virtual keys
answered by accessors rather than stored. After ``freeze()`` the graph is
immutable and safe for concurrent readers.

Edge property maps may be shared between edges: the DDG bulk path stores one
map per origin node for all of its edges. Every property map read from the
graph is read-only.

A frozen graph also answers `instructions(fn, inst_type)` from an index of
each function's instructions by `instType`. The index is derived data: it is
built on the first such call, assigned whole, and never serialised.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from .errors import GraphError, SchemaError

# node kinds
MODULE = "Module"
FUNCTION = "Function"
FUNCTION_SIGNATURE = "FunctionSignature"
PARAMETERS = "Parameters"
LOCALS = "Locals"
RESULTS = "Results"
ELSE = "Else"
TRAP = "Trap"
START = "Start"
VAR_NODE = "VarNode"
INSTRUCTION = "Instruction"

NODE_KINDS = (
    MODULE, FUNCTION, FUNCTION_SIGNATURE, PARAMETERS, LOCALS, RESULTS,
    ELSE, TRAP, START, VAR_NODE, INSTRUCTION,
)

# edge types
AST = "AST"
CFG = "CFG"
CG = "CG"
DDG = "DDG"
EDGE_TYPES = (AST, CFG, CG, DDG)

DDG_TYPES = ("Global", "Local", "Const", "Control", "Function")
VALUE_TYPES = ("i32", "i64", "f32", "f64")

INST_TYPES = (
    "Nop", "Unreachable", "Return", "BrTable", "Drop", "Select",
    "MemorySize", "MemoryGrow", "CallIndirect",
    "Br", "BrIf", "GlobalGet", "GlobalSet", "LocalGet", "LocalSet",
    "LocalTee", "Call", "BeginBlock",
    "Block", "Loop", "If", "EndLoop",
    "Const", "Binary", "Compare", "Unary", "Convert", "Load", "Store",
)

_BOOL = ("bool",)
_INT = ("int",)
_NUM = ("int", "float")
_STR = ("str",)

# instType -> {property: allowed python types}; every listed key is required
_INST_SCHEMAS: dict[str, dict[str, tuple[str, ...]]] = {
    "Const": {"valueType": _STR, "value": _NUM},
    "Binary": {"opcode": _STR},
    "Compare": {"opcode": _STR},
    "Unary": {"opcode": _STR},
    "Convert": {"opcode": _STR},
    "Load": {"offset": _INT},
    "Store": {"offset": _INT},
    "Block": {"label": _STR, "nresults": _INT},
    "Loop": {"label": _STR, "nresults": _INT},
    "EndLoop": {"label": _STR, "nresults": _INT},
    "If": {"label": _STR, "hasElse": _BOOL},
    "Br": {"label": _STR},
    "BrIf": {"label": _STR},
    "GlobalGet": {"label": _STR},
    "GlobalSet": {"label": _STR},
    "LocalGet": {"label": _STR},
    "LocalSet": {"label": _STR},
    "LocalTee": {"label": _STR},
    "Call": {"label": _STR},
    "BeginBlock": {"label": _STR},
    # simple instructions carry no extra properties
    "Nop": {}, "Unreachable": {}, "Return": {}, "BrTable": {}, "Drop": {},
    "Select": {}, "MemorySize": {}, "MemoryGrow": {}, "CallIndirect": {},
}

_NODE_SCHEMAS: dict[str, dict[str, tuple[str, ...]]] = {
    MODULE: {"name": _STR},
    FUNCTION: {
        "name": _STR, "index": _INT, "nargs": _INT, "nlocals": _INT,
        "nresults": _INT, "isImport": _BOOL, "isExport": _BOOL,
    },
    FUNCTION_SIGNATURE: {},
    PARAMETERS: {},
    LOCALS: {},
    RESULTS: {},
    ELSE: {},
    TRAP: {},
    START: {},
    VAR_NODE: {"name": _STR, "varType": _STR},
}


def _typecheck(value: Any, allowed: tuple[str, ...]) -> bool:
    if isinstance(value, bool):
        return "bool" in allowed
    if isinstance(value, int):
        return "int" in allowed
    if isinstance(value, float):
        return "float" in allowed
    if isinstance(value, str):
        return "str" in allowed
    return False


def _check_node_schema(kind: str, props: dict[str, Any]) -> None:
    if kind == INSTRUCTION:
        inst_type = props.get("instType")
        if inst_type not in INST_TYPES:
            raise SchemaError(f"bad instType {inst_type!r}")
        schema = _INST_SCHEMAS[inst_type]
        extra = set(props) - set(schema) - {"instType"}
        if extra:
            raise SchemaError(f"{inst_type} node: unexpected properties {sorted(extra)}")
        missing = set(schema) - set(props)
        if missing:
            raise SchemaError(f"{inst_type} node: missing properties {sorted(missing)}")
        for key, allowed in schema.items():
            if not _typecheck(props[key], allowed):
                raise SchemaError(f"{inst_type} node: property {key}={props[key]!r} "
                                  f"outside domain {allowed}")
        if inst_type == "Const" and props["valueType"] not in VALUE_TYPES:
            raise SchemaError(f"Const valueType {props['valueType']!r}")
        if inst_type in ("Load", "Store") and props["offset"] < 0:
            raise SchemaError("negative memory offset")
        return
    if kind not in _NODE_SCHEMAS:
        raise SchemaError(f"unknown node kind {kind!r}")
    schema = _NODE_SCHEMAS[kind]
    if set(props) != set(schema):
        raise SchemaError(f"{kind} node: properties {sorted(props)} != schema "
                          f"{sorted(schema)}")
    for key, allowed in schema.items():
        if not _typecheck(props[key], allowed):
            raise SchemaError(f"{kind} node: property {key}={props[key]!r}")


def _check_edge_schema(edge_type: str, props: dict[str, Any]) -> None:
    if edge_type == AST:
        if set(props) - {"childIndex"}:
            raise SchemaError(f"AST edge: unexpected properties {sorted(props)}")
        if "childIndex" in props and (not isinstance(props["childIndex"], int)
                                      or props["childIndex"] < 0):
            raise SchemaError("AST childIndex must be a count")
        return
    if edge_type == CG:
        if props:
            raise SchemaError("CG edges carry only their type")
        return
    if edge_type == CFG:
        if set(props) - {"label"}:
            raise SchemaError(f"CFG edge: unexpected properties {sorted(props)}")
        if "label" in props:
            lab = props["label"]
            ok = isinstance(lab, bool) or (isinstance(lab, int) and lab >= 0) \
                or lab == "default"
            if not ok:
                raise SchemaError(f"CFG label {lab!r} outside its alphabet")
        return
    if edge_type == DDG:
        allowed = {"label", "ddgType", "valueType", "value"}
        if set(props) - allowed:
            raise SchemaError(f"DDG edge: unexpected properties {sorted(props)}")
        if props.get("ddgType") not in DDG_TYPES:
            raise SchemaError(f"DDG ddgType {props.get('ddgType')!r}")
        if "label" not in props:
            raise SchemaError("DDG edge requires a label")
        if props["ddgType"] == "Const":
            if props.get("valueType") not in VALUE_TYPES:
                raise SchemaError("Const DDG edge requires a valueType")
            if not isinstance(props.get("value"), (int, float)) \
                    or isinstance(props.get("value"), bool):
                raise SchemaError("Const DDG edge requires a numeric value")
        elif "valueType" in props or "value" in props:
            raise SchemaError("value/valueType are Const-only DDG properties")
        return
    raise SchemaError(f"unknown edge type {edge_type!r}")


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while a graph is built: a build frees almost nothing,
    so collections would only rescan a growing heap. On exit, also on error,
    GC is switched back on if it was on at entry."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# Records compare and hash by identity: a graph holds one record per id.
@dataclass(slots=True, eq=False)
class Node:
    id: int
    kind: str
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True, eq=False)
class Edge:
    id: int
    src: int
    dst: int
    type: str
    properties: dict[str, Any] = field(default_factory=dict)


class Cpg:
    """The mutable-then-frozen code property graph."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self._out: list[dict[str, list[Edge]]] = []   # node -> type -> edges, id order
        self._in: list[dict[str, list[Edge]]] = []
        self._frozen = False
        # Function id -> instType (None: all) -> instruction ids, ascending
        self._inst_index: dict[int, dict[str | None, tuple[int, ...]]] | None = None

    # -- construction --------------------------------------------------------
    def _writable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen")

    def add_node(self, kind: str, properties: dict[str, Any] | None = None) -> int:
        self._writable()
        props = dict(properties or {})
        _check_node_schema(kind, props)
        nid = len(self.nodes)
        self.nodes.append(Node(nid, kind, props))
        self._out.append({})
        self._in.append({})
        return nid

    def add_edge(self, src: int, dst: int, edge_type: str,
                 properties: dict[str, Any] | None = None) -> int:
        self._writable()
        if not (0 <= src < len(self.nodes)) or not (0 <= dst < len(self.nodes)):
            raise GraphError(f"dangling edge endpoint {src}->{dst}")
        props = dict(properties or {})
        _check_edge_schema(edge_type, props)
        eid = len(self.edges)
        edge = Edge(eid, src, dst, edge_type, props)
        self.edges.append(edge)
        self._out[src].setdefault(edge_type, []).append(edge)
        self._in[dst].setdefault(edge_type, []).append(edge)
        return eid

    def add_ddg_edges(self, rows: Iterable[tuple[int, int, dict[str, Any]]]) -> int:
        """Append DDG edges from `(src, dst, properties)` rows, in order. The
        first row with a given map goes through `add_edge`, which validates
        and copies it; later rows with that map share the copy. Returns the
        count added; rows before a failing one stay added."""
        self._writable()
        edges, out, inc = self.edges, self._out, self._in
        n_nodes, first = len(self.nodes), len(edges)
        shared: dict[int, tuple] = {}   # id(map) -> (map, copy); holding map keeps id unique
        for src, dst, props in rows:
            seen = shared.get(id(props))
            if seen is None:
                eid = self.add_edge(src, dst, DDG, props)
                shared[id(props)] = (props, edges[eid].properties)
                continue
            if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise GraphError(f"dangling edge endpoint {src}->{dst}")
            edge = Edge(len(edges), src, dst, DDG, seen[1])
            edges.append(edge)
            out[src].setdefault(DDG, []).append(edge)
            inc[dst].setdefault(DDG, []).append(edge)
        return len(edges) - first

    def freeze(self) -> "Cpg":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- access ---------------------------------------------------------------
    def node(self, nid: int) -> Node:
        if not 0 <= nid < len(self.nodes):
            raise GraphError(f"unknown node id {nid}")
        return self.nodes[nid]

    def edge(self, eid: int) -> Edge:
        if not 0 <= eid < len(self.edges):
            raise GraphError(f"unknown edge id {eid}")
        return self.edges[eid]

    def node_property(self, nid: int, key: str) -> Any:
        """The partial property map: absent keys answer None, not an error."""
        n = self.node(nid)
        if key == "id":
            return n.id
        if key == "type":
            return n.kind
        return n.properties.get(key)

    def edge_property(self, eid: int, key: str) -> Any:
        e = self.edge(eid)
        if key == "id":
            return e.id
        if key == "type":
            return e.type
        return e.properties.get(key)

    def _edges(self, table: list[dict[str, list[Edge]]], nid: int,
               edge_type: str | None) -> list[Edge]:
        self.node(nid)
        by_type = table[nid]
        if edge_type is not None:
            if edge_type not in EDGE_TYPES:
                raise GraphError(f"unknown edge type {edge_type!r}")
            return list(by_type.get(edge_type, ()))
        return sorted((e for lst in by_type.values() for e in lst), key=lambda e: e.id)

    def out_edges(self, nid: int, edge_type: str | None = None) -> list[Edge]:
        """A fresh list: one type's edges, or every type's merged in id order."""
        return self._edges(self._out, nid, edge_type)

    def in_edges(self, nid: int, edge_type: str | None = None) -> list[Edge]:
        return self._edges(self._in, nid, edge_type)

    def adjacency(self, nid: int, edge_type: str, direction: str = "out") -> list[int]:
        """Neighbor ids in edge insertion order (AST child order matters)."""
        if direction == "out":
            return [e.dst for e in self.out_edges(nid, edge_type)]
        if direction == "in":
            return [e.src for e in self.in_edges(nid, edge_type)]
        raise GraphError(f"bad direction {direction!r}")

    def nodes_of_kind(self, kind: str) -> list[Node]:
        return [n for n in self.nodes if n.kind == kind]

    def edges_of_type(self, edge_type: str) -> list[Edge]:
        return [e for e in self.edges if e.type == edge_type]

    def module_node(self) -> Optional[Node]:
        return next((n for n in self.nodes if n.kind == MODULE), None)

    def function_nodes(self) -> list[Node]:
        funcs = self.nodes_of_kind(FUNCTION)
        funcs.sort(key=lambda n: n.properties["index"])
        return funcs

    def instructions(self, fn: int, inst_type: str | None = None) -> tuple[int, ...]:
        """Instruction ids AST-reachable from Function `fn`, ascending; with
        `inst_type`, only those of that instType."""
        if inst_type is not None and inst_type not in INST_TYPES:
            raise GraphError(f"unknown instType {inst_type!r}")
        index = self._inst_index
        if index is None:
            if not self._frozen:
                raise GraphError("the instruction index needs a frozen graph")
            index = self._inst_index = self._index_instructions()
        if fn not in index:
            raise GraphError(f"instructions() expects Function nodes, got node {fn}")
        return index[fn].get(inst_type, ())

    def _index_instructions(self) -> dict[int, dict[str | None, tuple[int, ...]]]:
        index = {}
        for fn in self.nodes_of_kind(FUNCTION):
            seen, stack = {fn.id}, [fn.id]
            while stack:
                new = [e.dst for e in self._out[stack.pop()].get(AST, ()) if e.dst not in seen]
                seen.update(new)
                stack += new
            ids = sorted(n for n in seen if self.nodes[n].kind == INSTRUCTION)
            by_type: dict[str | None, list[int]] = {None: ids}
            for n in ids:
                by_type.setdefault(self.nodes[n].properties["instType"], []).append(n)
            index[fn.id] = {t: tuple(v) for t, v in by_type.items()}
        return index

    def ast_children(self, nid: int) -> list[int]:
        """AST children ordered by childIndex."""
        edges = self.out_edges(nid, AST)
        edges.sort(key=lambda e: e.properties.get("childIndex", 0))
        return [e.dst for e in edges]

    def ast_parent(self, nid: int) -> Optional[int]:
        parents = self.in_edges(nid, AST)
        return parents[0].src if parents else None
