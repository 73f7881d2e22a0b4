"""Property-graph store: typed nodes, typed edges, and per-element property maps.

One shared node set carries four edge-typed subgraphs (AST, CFG, CG, DDG);
`type` and `id` are virtual keys answered by accessors rather than stored.
After ``freeze()`` the graph is immutable and safe for concurrent readers.

The schema is one table: each node kind, instType, edge type and ddgType maps
each of its properties to a domain, a predicate on the value. Instruction
nodes are keyed by their `instType`, DDG edges by their `ddgType`. One
function, `_checked`, checks and copies every node and edge map entering
the store (in `add_node`, `add_edge` and `checked_map`): a map that is not a
dict (None is no properties), an unknown key, a value outside its domain or
a missing property raises SchemaError. AST and CFG edge properties are
optional; every other property is required.

Edges live in columns, in id order: source, destination, a type byte and a
property map, which edges of one type may share (a map never serves two
types); every property map read from the graph is read-only. The AST, CFG
and CG builders, and `import_json`, write their edges in order with
`add_edges`, which checks and copies each distinct (map, type) once; the
builders collect their rows in an `EdgeRows`, which hands out one map per
distinct value, so a built graph stores one map per edge type and map text.
AST, CFG and CG edges get their `Edge` record when added, a DDG edge on its
first read, cached so that a graph holds one record per id. `_put_ddg`
writes every DDG edge (for `add_edge`, `add_edges`, the emitter's
`add_ddg_rows` and `_add_ddg_run`) as a run of ids into one consumer, whose
DDG in-adjacency is its list of runs; each origin's DDG out-ids are built
on the first out-read.
`add_ddg_rows` takes each consumer's origins as a bitset over its
function's origin table. A row's first edges, one per origin not yet
stored, are its `bits & ~seen`; each goes through `add_edge`. A bitset
that more than one row holds is decoded once: the first such row's id span
is its memo, and every later row copies the span's sources and maps.
`_add_ddg_run` writes a run whose maps `checked_map` has checked, with no
Python-level step per edge, for `import_json`. `edge_columns` (a read-only
copy of the columns, which `edge_rows` zips) and `edge_runs` read the
columns, building no record, for the exporters.

A frozen graph also answers `instructions(fn, inst_type)` from an index of
each function's instructions by `instType`, built whole on the first such
call, and `ddg_edges(n, ddg_type, direction)` from a split of n's DDG records
by `ddgType`, made in one pass on n's first such read and kept apart from
the typed lists. Both are derived data and never serialised; so are the DDG
out-ids and a frozen graph's per-node DDG record lists.
"""

from __future__ import annotations

import gc
import math
import re
from array import array
from collections import Counter, defaultdict, deque
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import GraphError, SchemaError
from .opcodes import VALUE_TYPES

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

# edge types
AST = "AST"
CFG = "CFG"
CG = "CG"
DDG = "DDG"

# Domains: predicates on a property value. Python's bool is an int, so a
# domain admits True/False only where it names bool. A number is an int or
# a finite float: `json.load` reads Infinity and NaN; no WAT literal is either.
_str = lambda v: isinstance(v, str)
_bool = lambda v: isinstance(v, bool)
_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_count = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0
_number = lambda v: math.isfinite(v) if isinstance(v, float) else \
    isinstance(v, int) and not isinstance(v, bool)
_value_type = lambda v: isinstance(v, str) and v in VALUE_TYPES
# a CFG label: an if/br_if arm (a bool, so an int), a br_table slot, or "default"
_cfg_label = lambda v: isinstance(v, int) and v >= 0 or v == "default"
# a DDG label (a name or a constant): a JSON scalar, which json.load returns unchanged
_label = lambda v: v is None or isinstance(v, (str, bool)) or _number(v)


def _keyed(family: dict[str, Any], table: dict[str, dict]) -> dict[str, dict]:
    """Each entry of `table`, keyed by one property, plus its family's own."""
    return {name: {**family, **schema} for name, schema in table.items()}


# node kind -> {property: domain}
_NODE_SCHEMAS: dict[str, dict[str, Any]] = {
    MODULE: {"name": _str},
    FUNCTION: {
        "name": _str, "index": _int, "nargs": _int, "nlocals": _int,
        "nresults": _int, "isImport": _bool, "isExport": _bool,
    },
    **dict.fromkeys((FUNCTION_SIGNATURE, PARAMETERS, LOCALS, RESULTS, ELSE,
                     TRAP, START), {}),
    VAR_NODE: {"name": _str, "varType": _str},
    INSTRUCTION: {"instType": _str},
}

# instType -> {property: domain}, for Instruction nodes
_INST_SCHEMAS = _keyed(_NODE_SCHEMAS[INSTRUCTION], {
    **dict.fromkeys(("Nop", "Unreachable", "Return", "BrTable", "Drop", "Select",
                     "MemorySize", "MemoryGrow", "CallIndirect"), {}),
    **dict.fromkeys(("Br", "BrIf", "GlobalGet", "GlobalSet", "LocalGet", "LocalSet",
                     "LocalTee", "Call", "BeginBlock"), {"label": _str}),
    **dict.fromkeys(("Block", "Loop"), {"label": _str, "nresults": _int}),
    "If": {"label": _str, "hasElse": _bool},
    "EndLoop": {"label": _str, "nresults": _int},
    "Const": {"valueType": _value_type, "value": _number},
    **dict.fromkeys(("Binary", "Compare", "Unary", "Convert"), {"opcode": _str}),
    **dict.fromkeys(("Load", "Store"), {"offset": _count}),
})

# edge type -> {property: domain}; AST and CFG properties are optional
_EDGE_SCHEMAS: dict[str, dict[str, Any]] = {
    AST: {"childIndex": _count},
    CFG: {"label": _cfg_label},
    CG: {},
    DDG: {"ddgType": _str, "label": _label},
}

# ddgType -> {property: domain}, for DDG edges
_DDG_SCHEMAS = _keyed(_EDGE_SCHEMAS[DDG], {
    "Global": {}, "Local": {}, "Const": {"valueType": _value_type, "value": _number},
    "Control": {}, "Function": {},
})

NODE_KINDS = tuple(_NODE_SCHEMAS)
INST_TYPES = tuple(_INST_SCHEMAS)
EDGE_TYPES = tuple(_EDGE_SCHEMAS)
DDG_TYPES = tuple(_DDG_SCHEMAS)
_CODE = {t: i for i, t in enumerate(EDGE_TYPES)}   # an edge type's byte in _types
_DDG_BYTE = bytes((_CODE[DDG],))
_DDG_SPAN = re.compile(re.escape(_DDG_BYTE) + b"+")
_INT_TYPE = {int}   # the types of a list of node ids, none of them a bool
_FLAGS = bytes.maketrans(b"01", b"\0\1")   # `bin` digits as false and true bytes


def bit_flags(bits: int) -> bytes:
    """One byte per bit of `bits`, lowest first: 1 if the bit is set, else 0,
    for `itertools.compress` to pick the set bits' items at C level."""
    return bin(bits)[:1:-1].encode().translate(_FLAGS)


def _row_memo(rows: Sequence[tuple[int, int]]) -> dict[int, slice | None]:
    """An empty slot per nonzero bitset that more than one of `rows` holds,
    for `Cpg.add_ddg_rows` to keep that bitset's row in: a count over ints."""
    return dict.fromkeys(bits for bits, n in Counter(map(itemgetter(1), rows)).items()
                         if n > 1 and bits)


# an Instruction node's schema is that of its instType, a DDG edge's that of its ddgType
_KEYED = {INSTRUCTION: ("instType", _INST_SCHEMAS), DDG: ("ddgType", _DDG_SCHEMAS)}


def _checked(schemas: dict[str, dict], name: str, props: dict[str, Any] | None) -> dict[str, Any]:
    """A copy of `props`, a dict or None for no properties, checked against
    the schema of node kind or edge type `name` in `schemas`, or of its
    instType or ddgType: SchemaError unless each property is in it and
    inside its domain and, except on an AST or CFG edge, none is missing.
    Called per node and edge, so error text is built only when raising."""
    if isinstance(props, dict):
        props = dict(props)
    elif props is None:
        props = {}
    else:
        raise SchemaError(f"{name!r} properties {props!r} are not a dict")
    schema = schemas.get(name) if isinstance(name, str) else None
    if schema is None:
        raise SchemaError(f"unknown {'node kind' if schemas is _NODE_SCHEMAS else 'edge type'} "
                          f"{name!r}")
    keyed = _KEYED.get(name)
    if keyed is not None:   # an Instruction node or a DDG edge
        key, by_key = keyed
        value = props.get(key)
        schema = by_key.get(value) if isinstance(value, str) else None
        if schema is None:
            raise SchemaError(f"bad {key} {value!r}")
    for key, value in props.items():
        domain = schema.get(key)
        if domain is None:
            raise SchemaError(f"{name}: unexpected property {key!r}")
        if not domain(value):
            raise SchemaError(f"{name}: property {key}={value!r} outside its domain")
    if len(props) != len(schema) and name not in (AST, CFG):
        raise SchemaError(f"{name}: missing properties {sorted(set(schema) - set(props))}")
    return props


def checked_map(edge_type: str, props: dict[str, Any]) -> dict[str, Any]:
    """A copy of `props`, checked as the map of an edge of `edge_type`: what
    the graph stores, and what `Cpg._add_ddg_run` takes for DDG."""
    return _checked(_EDGE_SCHEMAS, edge_type, props)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while a graph is built: a build frees almost nothing,
    so collections would only rescan a growing heap. On exit, also on error,
    GC is switched back on if it was on at entry.

    On a normal exit with GC on at entry, every tracked object, the caller's
    young ones too, is first promoted to the oldest generation by
    `gc.freeze()` and `gc.unfreeze()`, which make no pass over them: else
    the first collection after the build would scan the whole new graph as
    young. Only a full collection (`gc.collect()`) visits them, and still
    frees any cycle among them. A caller whose heap is frozen
    (`gc.get_freeze_count()` not 0) gets no promotion, so its frozen
    objects are never thawed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        if enabled and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
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


@dataclass(slots=True, eq=False)
class EdgeView(Sequence):
    """A graph's edge records in id order, read-only; reading a DDG edge
    builds its record."""
    _cpg: "Cpg"

    def __len__(self) -> int:
        return len(self._cpg._props)

    def __getitem__(self, i):   # an int or a slice, negative ones too
        ids = range(len(self))[i]
        return self._cpg._records(ids) if isinstance(ids, range) else self._cpg._record(ids)

    def __iter__(self) -> Iterator[Edge]:
        return map(self._cpg._record, range(len(self)))


class EdgeRows(list):
    """One edge type's `(src, dst, type, map)` rows, in order, for one
    `Cpg.add_edges`: `add` hands out one shared map per distinct value,
    `{key: value}`, or `{}` for None. A value is keyed with its type, since
    `True == 1` would give a bool arm a br_table slot's map."""

    def __init__(self, edge_type: str, key: str | None = None) -> None:
        super().__init__()
        self.edge_type, self.key = edge_type, key
        self._maps: dict[tuple[type, object], dict[str, Any]] = {}

    def add(self, src: int, dst: int, value: object = None) -> None:
        props = self._maps.get((type(value), value))
        if props is None:
            props = self._maps[type(value), value] = {} if value is None else {self.key: value}
        self.append((src, dst, self.edge_type, props))


class Cpg:
    """The mutable-then-frozen code property graph."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._src, self._dst = array("i"), array("i")   # the edge columns, by id
        self._types = bytearray()                       # each edge's _CODE
        self._props: list[dict[str, Any]] = []
        self._recs: dict[int, Edge] = {}   # every AST/CFG/CG record, DDG ones once read
        # node -> type -> records in id order; DDG ones once read, when frozen
        self._out: list[dict[str, list[Edge]]] = []
        self._in: list[dict[str, list[Edge]]] = []
        self._ddg_in: dict[int, list[range]] = {}   # consumer -> runs of DDG ids
        self._ddg_out: dict[int, array] | None = None   # origin -> its DDG ids
        # direction -> node -> ddgType -> DDG records in id order, when frozen
        self._splits: dict[str, dict[int, dict[str, list[Edge]]]] = {"in": {}, "out": {}}
        self._frozen = False
        # Function id -> instType (None: all) -> instruction ids, ascending
        self._inst_index: dict[int, dict[str | None, tuple[int, ...]]] | None = None

    # -- construction --------------------------------------------------------
    def _writable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen")

    def add_node(self, kind: str, properties: dict[str, Any] | None = None) -> int:
        self._writable()
        props = _checked(_NODE_SCHEMAS, kind, properties)
        nid = len(self.nodes)
        self.nodes.append(Node(nid, kind, props))
        self._out.append({})
        self._in.append({})
        return nid

    def add_edge(self, src: int, dst: int, edge_type: str,
                 properties: dict[str, Any] | None = None) -> int:
        """Append one edge between two int node ids (a bool is none)."""
        self._writable()
        if type(src) is not int or type(dst) is not int or \
                not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise GraphError(f"dangling edge endpoint {src!r}->{dst!r}")
        props = _checked(_EDGE_SCHEMAS, edge_type, properties)
        if edge_type == DDG:
            self._put_ddg(dst, [src], (props,))
        else:
            self._put(src, dst, edge_type, props)
        return len(self._props) - 1

    def _put(self, src: int, dst: int, edge_type: str, props: dict[str, Any]) -> None:
        """Append one checked AST, CFG or CG edge, with its record."""
        eid = len(self._props)
        self._src.append(src)
        self._dst.append(dst)
        self._types.append(_CODE[edge_type])
        self._props.append(props)
        edge = self._recs[eid] = Edge(eid, src, dst, edge_type, props)
        self._out[src].setdefault(edge_type, []).append(edge)
        self._in[dst].setdefault(edge_type, []).append(edge)

    def _put_ddg(self, dst: int, srcs: Sequence[int], maps: Iterable[dict]) -> None:
        """Append checked DDG edges `src -> dst` of `srcs`, a list or a slice
        of the src column, with the stored `maps`, as one run of dst's
        in-adjacency."""
        start, k = len(self._props), len(srcs)
        if type(srcs) is list:
            self._src.fromlist(srcs)
        else:   # a column slice: one copy at C level
            self._src.extend(srcs)
        if k == 1:   # add_edge's, where a one-id array would cost more
            self._dst.append(dst)
        else:
            self._dst.extend(array("i", (dst,)) * k)
        self._types += _DDG_BYTE * k
        self._props.extend(maps)
        runs = self._ddg_in.get(dst)
        if runs is None:
            self._ddg_in[dst] = [range(start, start + k)]
        elif runs[-1].stop == start:
            runs[-1] = range(runs[-1].start, start + k)
        else:
            runs.append(range(start, start + k))
        self._ddg_out = None

    def add_edges(self, rows: Iterable[tuple[int, int, str, dict[str, Any]]]) -> int:
        """Append edges from `(src, dst, type, properties)` rows, in order. The
        first row with a given map and type goes through `add_edge`, which
        validates and copies the map; later rows with that map and type
        share the copy. An endpoint must be an int node id, as for
        `add_edge`. Returns the count added; rows before a failing one stay
        added. `build_ast`, `build_cfg` and `build_cg` each write their
        edges with one call, from an `EdgeRows`, which hands out one map
        object per distinct map, as `import_json` does with the AST, CFG
        and CG edges of a file."""
        self._writable()
        n_nodes, first = len(self.nodes), len(self._props)
        shared: dict[tuple, tuple] = {}   # (id(map), type) -> (map, copy), map kept alive
        for src, dst, edge_type, props in rows:
            seen = shared.get((id(props), edge_type)) if isinstance(edge_type, str) else None
            if seen is None:
                eid = self.add_edge(src, dst, edge_type, props)
                shared[id(props), edge_type] = (props, self._props[eid])
            elif type(src) is not int or type(dst) is not int or \
                    not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise GraphError(f"dangling edge endpoint {src!r}->{dst!r}")
            elif edge_type == DDG:
                self._put_ddg(dst, [src], (seen[1],))
            else:
                self._put(src, dst, edge_type, seen[1])
        return len(self._props) - first

    def _add_ddg_run(self, dst: int, srcs: list[int], maps: Iterable[dict[str, Any]]) -> None:
        """Append the DDG edges `src -> dst` of `srcs`, in order, as one run of
        dst's in-adjacency, the i-th storing the i-th of `maps`. It trusts its
        maps, each a `checked_map` of DDG, and neither checks nor copies them;
        the endpoints are checked with no Python-level step per edge."""
        self._writable()
        maps = list(maps)
        if not srcs or len(maps) != len(srcs):
            raise GraphError(f"a run of {len(srcs)} DDG edges with {len(maps)} maps")
        n_nodes = len(self.nodes)
        if type(dst) is not int or not 0 <= dst < n_nodes or \
                set(map(type, srcs)) != _INT_TYPE or min(srcs) < 0 or max(srcs) >= n_nodes:
            raise GraphError(f"dangling edge endpoint in a run into {dst!r}")
        self._put_ddg(dst, srcs, maps)

    def add_ddg_rows(self, rows: Sequence[tuple[int, int]], origins: Sequence[int],
                     props_of: Callable[[int], dict[str, Any]]) -> int:
        """Append the DDG edges of each row `(dst, bits)`, in order: one edge
        `origins[k] -> dst` per set bit k of `bits`, lowest first. Each
        origin's first edge goes through `add_edge`, which validates and
        copies `props_of(origin)`; its later edges share the copy. A row
        holds a first edge exactly where `bits & ~seen` is set, `seen` being
        the union of the rows before it; the rest of it is decoded at C
        level. A bitset that more than one row holds is decoded once: its
        first row leaves every origin stored, so that row's id span fills
        the bitset's `_row_memo` slot, and each later row copies the span's
        sources and maps with one C-level slice and extend per column.
        A row whose `dst` or `bits` is not an int (a bool is none) is a
        `GraphError` before it writes anything. Returns the count added;
        edges before a failing one stay added."""
        self._writable()
        n_nodes, first, limit = len(self.nodes), len(self._props), 1 << len(origins)
        memo = _row_memo(rows)
        maps: list = [None] * len(origins)   # bit k -> the map origin k's edges share
        seen = 0
        for dst, bits in rows:
            if type(dst) is not int or not 0 <= dst < n_nodes:
                raise GraphError(f"dangling edge endpoint {dst!r}")
            if type(bits) is not int:
                raise GraphError(f"a row's bits {bits!r} are not an int")
            row = memo.get(bits)
            if row is not None:   # every origin stored: a copy of the first row
                self._put_ddg(dst, self._src[row], self._props[row])
                continue
            if not 0 <= bits < limit:
                raise GraphError(f"a row of bits {bits:#x} outside its {len(origins)} origins")
            flags = bit_flags(bits)
            srcs, stored = list(compress(origins, flags)), list(compress(maps, flags))
            new, seen, start, row_start = bits & ~seen, seen | bits, 0, len(self._props)
            while new:   # each new origin's first edge, lowest first
                low = new & -new
                new ^= low
                i = (bits & (low - 1)).bit_count()   # its place in the row
                if start < i:
                    self._put_ddg(dst, srcs[start:i], stored[start:i])
                eid = self.add_edge(srcs[i], dst, DDG, props_of(srcs[i]))
                # read by id: a wrapped add_edge may store its edge elsewhere
                maps[low.bit_length() - 1] = self._props[eid]
                start = i + 1
            if start < len(srcs):
                self._put_ddg(dst, srcs[start:], stored[start:])
            if bits in memo:
                memo[bits] = slice(row_start, len(self._props))
        return len(self._props) - first

    def freeze(self) -> "Cpg":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- access ---------------------------------------------------------------
    @property
    def edges(self) -> EdgeView:
        return EdgeView(self)

    def edge_columns(self) -> tuple[array, array, bytes, tuple[dict[str, Any], ...]]:
        """The edge columns, edge i's at place i of each: its src and dst
        ids, its type as an index into EDGE_TYPES, and its stored map.
        Copies, so no reader can change the store; no record is built."""
        return self._src[:], self._dst[:], bytes(self._types), tuple(self._props)

    def edge_rows(self) -> Iterator[tuple[int, int, str, dict[str, Any]]]:
        """(src, dst, type, properties) of each edge, the i-th row edge i's:
        `edge_columns` zipped."""
        src, dst, types, maps = self.edge_columns()
        return zip(src, dst, map(EDGE_TYPES.__getitem__, types), maps)

    def edge_runs(self) -> Iterator[tuple[int, Sequence[int], str, Sequence[dict]]]:
        """(dst, srcs, type, maps) of each run of edges, in id order: the DDG
        edges into one consumer between two edges that are not are one run,
        and every other edge is a run of its own. A DDG run's srcs and maps
        are slices of the columns, so no Python-level step runs per edge."""
        at = 0
        for run in sorted(chain.from_iterable(self._ddg_in.values()), key=attrgetter("start")):
            yield from self._singles(at, run.start)
            yield self._dst[run.start], self._src[run.start:run.stop], DDG, \
                self._props[run.start:run.stop]
            at = run.stop
        yield from self._singles(at, len(self._props))

    def _singles(self, start: int, stop: int) -> Iterator[tuple]:
        """`edge_runs`' run of each edge from `start` to `stop`, none a DDG one."""
        return zip(self._dst[start:stop], zip(self._src[start:stop]),
                   map(EDGE_TYPES.__getitem__, self._types[start:stop]),
                   zip(self._props[start:stop]))

    def node(self, nid: int) -> Node:
        if not 0 <= nid < len(self.nodes):
            raise GraphError(f"unknown node id {nid}")
        return self.nodes[nid]

    def edge(self, eid: int) -> Edge:
        if not 0 <= eid < len(self._props):
            raise GraphError(f"unknown edge id {eid}")
        return self._record(eid)

    def _record(self, eid: int) -> Edge:
        rec = self._recs.get(eid)
        if rec is None:   # a DDG edge's first read; setdefault keeps one record
            rec = self._recs.setdefault(eid, Edge(
                eid, self._src[eid], self._dst[eid], DDG, self._props[eid]))
        return rec

    def _records(self, ids: Sequence[int]) -> list[Edge]:
        """The records of `ids`: a C-level lookup once every one is built."""
        try:
            return list(map(self._recs.__getitem__, ids))
        except KeyError:
            return list(map(self._record, ids))

    def node_property(self, nid: int, key: str) -> Any:
        """The partial property map: absent keys answer None, not an error."""
        n = self.node(nid)
        if key == "id":
            return n.id
        if key == "type":
            return n.kind
        return n.properties.get(key)

    def _ddg_out_index(self) -> dict[int, array]:
        """Each origin's DDG edge ids, ascending: built whole on the first
        out-read, since no build step reads them, and dropped by a DDG
        write."""
        index = self._ddg_out
        if index is None:
            index = defaultdict(partial(array, "i"))
            for span in _DDG_SPAN.finditer(self._types):   # consecutive DDG ids
                start, end = span.span()
                # each id onto its origin's array, with no Python-level call per id
                deque(map(array.append, map(index.__getitem__, self._src[start:end]),
                          range(start, end)), maxlen=0)
            self._ddg_out = index
        return index

    def _ddg_list(self, table: list[dict[str, list[Edge]]], nid: int) -> list[Edge]:
        """nid's DDG records in `table`, in id order, built on the first read;
        a frozen graph keeps the list, which callers copy."""
        found = table[nid].get(DDG)
        if found is None:
            ids = self._ddg_out_index().get(nid, ()) if table is self._out else \
                list(chain.from_iterable(self._ddg_in.get(nid, ())))
            found = self._records(ids)
            if self._frozen:
                table[nid][DDG] = found
        return found

    def _edges(self, table: list[dict[str, list[Edge]]], nid: int,
               edge_type: str | None) -> list[Edge]:
        self.node(nid)
        by_type = table[nid]
        if edge_type is None:
            if DDG not in by_type:
                by_type = {**by_type, DDG: self._ddg_list(table, nid)}
            return sorted(chain.from_iterable(by_type.values()), key=attrgetter("id"))
        if edge_type not in EDGE_TYPES:
            raise GraphError(f"unknown edge type {edge_type!r}")
        found = by_type.get(edge_type)
        if found is None:   # no AST/CFG/CG edge, or a DDG list not yet read
            if edge_type != DDG:
                return []
            found = self._ddg_list(table, nid)
        return list(found)

    def out_edges(self, nid: int, edge_type: str | None = None) -> list[Edge]:
        """A fresh list: one type's edges, or every type's merged in id order."""
        return self._edges(self._out, nid, edge_type)

    def in_edges(self, nid: int, edge_type: str | None = None) -> list[Edge]:
        return self._edges(self._in, nid, edge_type)

    def _edge_lists(self, nids: Iterable[int], edge_type: str,
                    direction: str = "out") -> list[Sequence[Edge]]:
        """Each of `nids`' AST, CFG or CG records of `edge_type` in one
        direction, in id order: the graph's own lists, borrowed, with no copy
        or id check per node, for the dataflow engine, whose node ids are the
        graph's own. A caller must not change them."""
        table = {"out": self._out, "in": self._in}.get(direction)
        if table is None or edge_type not in EDGE_TYPES or edge_type == DDG:
            raise GraphError(f"no stored {direction!r} lists of {edge_type!r} edges")
        return [table[n].get(edge_type, ()) for n in nids]

    def ddg_edges(self, nid: int, ddg_type: str, direction: str) -> list[Edge]:
        """A fresh list of nid's DDG in- or out-edges of one `ddgType`, in id
        order. A frozen graph splits a node's DDG records by ddgType in one
        pass on the first such read and keeps the split apart from the typed
        lists, so the untyped merge never sees it."""
        if ddg_type not in DDG_TYPES:
            raise GraphError(f"unknown ddgType {ddg_type!r}")
        splits = self._splits.get(direction)
        if splits is None:
            raise GraphError(f"bad direction {direction!r}")
        self.node(nid)
        split = splits.get(nid)
        if split is None:
            split = {}
            for e in self._ddg_list(self._in if direction == "in" else self._out, nid):
                split.setdefault(e.properties["ddgType"], []).append(e)
            if self._frozen:
                splits[nid] = split
        return list(split.get(ddg_type, ()))

    def adjacency(self, nid: int, edge_type: str, direction: str = "out") -> list[int]:
        """Neighbor ids in edge insertion order (AST child order matters)."""
        if direction == "out":
            return [e.dst for e in self.out_edges(nid, edge_type)]
        if direction == "in":
            return [e.src for e in self.in_edges(nid, edge_type)]
        raise GraphError(f"bad direction {direction!r}")

    def nodes_of_kind(self, kind: str) -> list[Node]:
        if kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {kind!r}")
        return [n for n in self.nodes if n.kind == kind]

    def edges_of_type(self, edge_type: str) -> list[Edge]:
        if edge_type not in EDGE_TYPES:
            raise GraphError(f"unknown edge type {edge_type!r}")
        return self._records(list(compress(count(), map(
            _CODE[edge_type].__eq__, self._types))))

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
