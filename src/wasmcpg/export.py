"""Serialization of a frozen graph: canonical JSON (lossless, versioned),
DOT, Datalog fact files, and Neo4j bulk-import CSV.

All outputs are byte-deterministic for a given graph: elements are written in
id order and property keys sorted. The lossy formats (DOT/facts/CSV) project
the graph; JSON round-trips exactly. Edges are read from `Cpg.edge_columns`
or `edge_runs`, building no record, and each distinct map is rendered once:
the DOT, fact and CSV line of an edge is joined at C level from a text per
node and a text per map, so no Python-level step runs per edge.

JSON (schema 2) is compact, a record per line, ids implied by order, in four
lists: `edges`, a `{"dst","map","src","type"}` per AST, CFG or CG edge and a
`{"dst":d,"src":[...]}` per run of DDG edges into one consumer; `maps`, each
distinct edge map's text once (indexes follow from texts, so a reload writes
the same bytes); `nodes`, `{"kind","properties"}`; `origins`, `[origin, map
index]` per DDG origin, its first edge's map. A run lists `"maps"`, an index
per edge, only where an edge's map is not its origin's. `import_json` reads
it with one `json.load`, checks each (edge type, map) once and writes each
run with one `Cpg.add_ddg_run`; texts that differ only in type or sign (`1`,
`1.0`, `true`; `0.0`, `-0.0`) stay apart. A file of another schema version
is an `ExportError`; a graph file is rebuilt from its `.wat` by `wasmcpg build`.

Each format renders its files' text, JSON in chunks of records, and
`_write_whole` writes them all or none (the CLI's findings too).
"""

from __future__ import annotations

import json
import os
import re
import shutil
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from operator import is_, not_
from typing import Iterable, Iterator, Sequence

from .errors import ExportError, GraphError
from . import graph as g

SCHEMA_VERSION = 2

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

EDGE_COLORS = {g.AST: "green", g.CFG: "red", g.DDG: "blue", g.CG: "black"}

FORMATS = ("json", "dot", "datalog", "neo4j-csv")


@dataclass
class ExportManifest:
    format: str
    path: str
    edge_types: tuple[str, ...] = field(default=g.EDGE_TYPES)  # DOT filter

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ExportError(f"unsupported export format {self.format!r}")
        unknown = [t for t in self.edge_types if t not in g.EDGE_TYPES]
        if unknown:
            raise ExportError(f"unknown edge types {unknown}; expected some of "
                              f"{', '.join(g.EDGE_TYPES)}")


# -- JSON --------------------------------------------------------------------

def to_json(cpg: g.Cpg) -> str:
    """The graph as compact JSON, one record per line (see the module doc)."""
    return "".join(_json_chunks(cpg))


_CHUNK = 4096   # records per chunk of the JSON text
_PARTS = ("edges", "maps", "nodes", "origins")   # a schema-2 document's lists, in text order
_SINGLE = {t: '{"dst":%%d,"map":%%d,"src":%%d,"type":%s}' % _encode(t)
           for t in g.EDGE_TYPES if t != g.DDG}   # one AST, CFG or CG edge's record


def _json_chunks(cpg: g.Cpg) -> Iterator[str]:
    """`to_json`'s text, in chunks of up to _CHUNK records each."""

    def joined(records: Iterator[str]) -> Iterator[str]:
        """The records joined by ",\n", then "\n" if there was one."""
        sep = ""
        for chunk in iter(lambda: ",\n".join(islice(records, _CHUNK)), ""):
            yield sep + chunk
            sep = ",\n"
        if sep:
            yield "\n"

    texts: dict[str, int] = {}     # a map's text -> its place in the table
    places: dict[int, int] = {}    # id(map) -> its text's place
    by_repr: dict[str, str] = {}   # repr(map) -> its text: repr tells 1, 1.0, True apart
    firsts: dict[int, dict] = {}   # DDG origin -> the map of its first edge
    names = list(map(str, range(len(cpg.nodes))))   # each node id's text

    text = lambda p: by_repr.get(repr(p)) or by_repr.setdefault(repr(p), _encode(p))
    place = lambda p: places[id(p)] if id(p) in places else \
        places.setdefault(id(p), texts.setdefault(text(p), len(texts)))

    def edge_records() -> Iterator[str]:
        # each edge's map enters the table in id order on either branch
        for dst, srcs, edge_type, maps in cpg.edge_runs():
            if edge_type != g.DDG:
                yield _SINGLE[edge_type] % (dst, place(maps[0]), srcs[0])
                continue
            srcs, known = srcs.tolist(), len(firsts)
            origin = list(map(firsts.setdefault, srcs, maps))   # their first edges' maps
            uniform = all(map(is_, origin, maps))
            if len(firsts) != known or not uniform:   # enter the maps not yet seen
                unseen = map(not_, map(places.__contains__, map(id, maps)))
                list(map(place, compress(maps, unseen)))
            own = None if uniform else list(map(places.__getitem__, map(id, maps)))
            src = ",".join(map(names.__getitem__, srcs))
            if own is None or own == list(map(places.__getitem__, map(id, origin))):
                yield '{"dst":%d,"src":[%s]}' % (dst, src)
            else:   # an edge whose map's text is not its origin's
                yield '{"dst":%d,"maps":%s,"src":[%s]}' % (dst, str(own).replace(" ", ""), src)

    kinds = {kind: _encode(kind) for kind in {n.kind for n in cpg.nodes}}
    yield '{"edges":[\n'
    yield from joined(edge_records())
    yield '],"maps":[\n'
    yield from joined(iter(texts))
    yield '],"nodes":[\n'
    yield from joined('{"kind":%s,"properties":%s}' % (kinds[n.kind], text(n.properties))
                      for n in cpg.nodes)
    yield '],"origins":[\n'
    yield from joined("[%d,%d]" % (n, places[id(props)]) for n, props in sorted(firsts.items()))
    yield '],"schema":%d}\n' % SCHEMA_VERSION


def import_json(path: str) -> g.Cpg:
    """Rebuild a frozen graph from a file `to_json` wrote. A file that
    cannot be opened raises `OSError`; one that is not a schema-2 graph,
    `ExportError`."""
    with g.gc_paused():
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:   # bad UTF-8, JSON or nesting
                raise ExportError(f"cannot load graph file {path}: {exc}")
        if not isinstance(doc, dict) or "schema" not in doc:
            raise ExportError("not a serialized graph file")
        if type(doc["schema"]) is not int or doc["schema"] != SCHEMA_VERSION:
            raise ExportError(f"unsupported schema version {doc['schema']!r}; rebuild "
                              f"the graph from its .wat with `wasmcpg build`")
        try:
            return _load_runs(doc).freeze()
        except (KeyError, TypeError, ValueError) as exc:
            # a record that is not an object, lacks a field or has ill-typed values
            raise ExportError(f"malformed graph record: {type(exc).__name__}: {exc}") from exc
        except GraphError as exc:   # outside the schema, or an endpoint out of range
            raise ExportError(f"malformed graph file: {exc}") from exc


def _load_runs(doc: dict) -> g.Cpg:
    """The graph of a schema-2 document: single edges through `add_edges`,
    which checks and copies each (edge type, map) once, as DDG maps are
    here, and each DDG run through one `add_ddg_run`."""
    edges, maps, nodes, origins = parts = [doc.get(k) for k in _PARTS]
    if not all(type(part) is list for part in parts):
        raise ExportError(f"a schema-2 file needs the lists {', '.join(_PARTS)}")
    cpg = g.Cpg()
    for node in nodes:
        if len(node) != 2 or not isinstance(node["kind"], str) or \
                type(node["properties"]) is not dict:
            raise ExportError(f"node record {node!r} is not a kind and properties")
        cpg.add_node(node["kind"], node["properties"])   # add_node copies the map

    def entry(i: int) -> dict:
        if type(i) is not int or not 0 <= i < len(maps) or type(maps[i]) is not dict:
            raise ExportError(f"map index {i!r} names no map of the {len(maps)}")
        return maps[i]

    copies: dict[int, dict] = {}   # map index (an int) -> its checked copy as a DDG map
    ddg = lambda i: copies.get(i) or copies.setdefault(i, g.checked_map(g.DDG, entry(i)))
    own: dict[int, dict] = {}   # DDG origin -> its map
    for origin, i in origins:
        if type(origin) is not int or not 0 <= origin < len(nodes) or origin in own \
                or type(i) is not int:
            raise ExportError(f"origin entry {[origin, i]!r} names no node, or a node twice")
        own[origin] = ddg(i)
    singles: list[tuple] = []   # the AST, CFG and CG rows since the last run
    for record in edges:
        if len(record) == 4:   # one AST, CFG or CG edge
            if record["type"] not in _SINGLE:
                raise ExportError(f"a single-edge record of type {record['type']!r}")
            singles.append((record["src"], record["dst"], record["type"], entry(record["map"])))
            continue
        cpg.add_edges(singles)
        singles.clear()
        srcs, places = record["src"], record["maps"] if len(record) == 3 else None
        if type(srcs) is not list or places is None and not own.keys() >= set(srcs):
            raise ExportError(f"a run's src {srcs!r} is not a list of DDG origins")
        if places is not None:
            if type(places) is not list or set(map(type, places)) != {int}:
                raise ExportError(f"a run's maps {places!r} are not map indexes")
            for i in set(places):
                ddg(i)
        cpg.add_ddg_run(record["dst"], srcs, map(own.__getitem__, srcs) if places is None
                        else map(copies.__getitem__, places))
    cpg.add_edges(singles)
    return cpg


# -- edge columns -------------------------------------------------------------------

def _edges(columns: tuple, kept: Iterable[str] = g.EDGE_TYPES
           ) -> tuple[Sequence[int], Sequence[int], list[int], dict[int, tuple[str, dict]]]:
    """The src and dst columns of the edges of the `kept` types, cut from a
    graph's `edge_columns()`, each one's map named by the first of them that
    holds it (one C-level pass), and the type and map of each such first
    edge, so each distinct map is rendered once."""
    src, dst, types, maps = columns
    mask = types.translate(bytes(t in kept for t in g.EDGE_TYPES).ljust(256, b"\0"))
    start, stop = mask.find(1), mask.rfind(1) + 1
    if mask.count(1) == stop - start:   # consecutive, as each type's edges are in a built graph
        src, dst, types, maps = (column[start:stop] for column in (src, dst, types, maps))
    else:
        src, dst, types, maps = (list(compress(column, mask)) for column in (src, dst, types, maps))
    first: dict[int, int] = {}   # id(map) -> the first edge that holds it
    at = list(map(first.setdefault, map(id, maps), count()))
    return src, dst, at, {i: (g.EDGE_TYPES[types[i]], maps[i]) for i in first.values()}


def _lines(texts: Iterable[str], src: Iterable[int], dst: Iterable[int], heads: list[str],
           ends: list[str] | None = None) -> str:
    """Every edge's line, `heads[src]`, dst, its text (and `ends[src]`), in one
    C-level join of texts made once per node and per map, none per line."""
    ids = list(map(str, range(len(heads))))
    columns = [map(heads.__getitem__, src), map(ids.__getitem__, dst), texts]
    if ends is not None:
        columns.append(map(ends.__getitem__, src))
    return "".join(chain.from_iterable(zip(*columns)))


# -- DOT ----------------------------------------------------------------------

def _dot_label(node: g.Node) -> str:
    p = node.properties
    if node.kind == g.INSTRUCTION:
        extra = p.get("value") if p.get("label") is None else p["label"]
        text = p.get("instType", "") + ("" if extra is None else f" {extra}")
    else:
        text = f"Function {p.get('name', '')}" if node.kind == g.FUNCTION else node.kind
    return f"{node.id}: {text}"


def _dot_text(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(cpg: g.Cpg, edge_types: tuple[str, ...] = g.EDGE_TYPES) -> str:
    src, dst, at, maps = _edges(cpg.edge_columns(), edge_types)
    label = lambda p: "" if p.get("label") is None else f', label="{_dot_text(p["label"])}"'
    attrs = {i: f" [color={EDGE_COLORS[t]}{label(p)}];\n" for i, (t, p) in maps.items()}
    heads = [f"  n{i} -> n" for i in range(len(cpg.nodes))]
    nodes = (f'  n{n.id} [label="{_dot_text(_dot_label(n))}"];\n' for n in cpg.nodes)
    return "".join(["digraph cpg {\n  node [shape=box, fontsize=10];\n", *nodes,
                    _lines(map(attrs.__getitem__, at), src, dst, heads), "}\n"])


# -- Datalog facts ---------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return "" if value is None else str(value)


def _fact_cell(value) -> str:
    r"""A `.facts` cell with backslash, tab, LF and CR written as `\\`, `\t`,
    `\n` and `\r`, so that each fact is one line."""
    if type(value) is int:   # most cells: ids and counts
        return str(value)
    return _cell(value).replace("\\", "\\\\").replace("\t", "\\t") \
        .replace("\n", "\\n").replace("\r", "\\r")


# instType -> (predicate, the properties of its cells after the node id)
_INST_FACTS = {"Loop": ("loop", ("label", "nresults")), "BrIf": ("brIf", ("label",)),
               "Store": ("store", ("offset",)), "Binary": ("binary", ("opcode",)),
               "Compare": ("compare", ("opcode",))}

# edge type -> (predicate, the properties of its cells after src and dst); a
# ddgEdge row ends with its origin, the src again
_EDGE_FACTS = {g.AST: ("astEdge", ("childIndex",)), g.CFG: ("cfgEdge", ("label",)),
               g.CG: ("cgEdge", ()), g.DDG: ("ddgEdge", ("label", "ddgType", "valueType", "value"))}


_NO_CALLEE = {"nargs": "", "nresults": ""}


def _node_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    """Predicate name -> rows, with every edge predicate still empty."""
    facts: dict[str, list[tuple]] = {name: [] for name in ("instruction", "function", "call", *(
        name for name, _ in (*_INST_FACTS.values(), *_EDGE_FACTS.values())))}
    for n in cpg.nodes:
        p = n.properties
        if n.kind == g.FUNCTION:
            facts["function"].append((n.id, p["name"], p["index"], p["nargs"], p["nlocals"],
                                      p["nresults"], _cell(p["isImport"]), _cell(p["isExport"])))
        elif n.kind == g.INSTRUCTION:
            t = p["instType"]
            facts["instruction"].append((n.id, t))
            if t == "Call":   # empty counts unless its first CG edge reaches a Function
                targets = cpg.out_edges(n.id, g.CG)
                callee = cpg.node(targets[0].dst) if targets else None
                tp = callee.properties if callee and callee.kind == g.FUNCTION else _NO_CALLEE
                facts["call"].append((n.id, p["label"], tp["nargs"], tp["nresults"]))
            elif t in _INST_FACTS:
                name, keys = _INST_FACTS[t]
                facts[name].append((n.id, *(p[k] for k in keys)))
    return facts


def datalog_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    """Predicate name -> rows. Missing optional fields are empty strings."""
    facts, columns = _node_facts(cpg), cpg.edge_columns()
    for t, (name, keys) in _EDGE_FACTS.items():
        src, dst, at, maps = _edges(columns, (t,))
        cells = {i: tuple(_cell(p.get(k)) for k in keys) for i, (_, p) in maps.items()}
        rows = map(tuple.__add__, zip(src, dst), map(cells.__getitem__, at))
        facts[name] = list(map(tuple.__add__, rows, zip(src)) if t == g.DDG else rows)
    return facts


def _datalog_files(cpg: g.Cpg) -> dict[str, str]:
    """`<predicate>.facts` -> its text, tab-separated, in name order."""
    files = {}
    for name, rows in _node_facts(cpg).items():
        files[name] = "".join("\t".join(map(_fact_cell, row)) + "\n" for row in rows)
    heads = [f"{i}\t" for i in range(len(cpg.nodes))]
    origins = [f"\t{i}\n" for i in range(len(cpg.nodes))]   # a ddgEdge row ends with its origin
    columns = cpg.edge_columns()   # read once, cut per edge type
    for t, (name, keys) in _EDGE_FACTS.items():
        src, dst, at, maps = _edges(columns, (t,))
        end = "" if t == g.DDG else "\n"
        tails = {i: "".join("\t" + _fact_cell(p.get(k)) for k in keys) + end
                 for i, (_, p) in maps.items()}
        files[name] = _lines(map(tails.__getitem__, at), src, dst, heads,
                             origins if t == g.DDG else None)
    return {f"{name}.facts": files[name] for name in sorted(files)}


# -- Neo4j CSV ---------------------------------------------------------------------

def neo4j_csv(cpg: g.Cpg) -> tuple[str, str]:
    """The nodes' and the edges' CSV: a row template per node key shape."""
    shapes: dict[tuple, tuple] = dict.fromkeys(tuple(n.properties) for n in cpg.nodes)
    node_keys = sorted({k for shape in shapes for k in shape})
    for shape in shapes:   # -> its row template, and its keys in column order
        shapes[shape] = (",".join(["%d", "%s", *("%s" if k in shape else "" for k in node_keys)]),
                         [k for k in node_keys if k in shape])

    def row(n: g.Node) -> str:
        template, keys = shapes[tuple(n.properties)]
        return template % (n.id, n.kind, *map(_csv_cell, map(n.properties.__getitem__, keys)))
    nodes_csv = "\n".join([",".join([":ID", ":LABEL", *node_keys]), *map(row, cpg.nodes)]) + "\n"
    src, dst, at, maps = _edges(cpg.edge_columns())
    edge_keys = sorted({k for _, p in maps.values() for k in p})
    tails = {i: ",".join(["", t, *(_csv_cell(p.get(k)) for k in edge_keys)]) + "\n"
             for i, (t, p) in maps.items()}
    heads = [f"{i}," for i in range(len(cpg.nodes))]
    return nodes_csv, ",".join([":START_ID", ":END_ID", ":TYPE", *edge_keys]) + "\n" + \
        _lines(map(tails.__getitem__, at), src, dst, heads)


_CSV_QUOTED = re.compile(r'[,"\n\r]')   # a cell holding one of these is quoted


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


# -- entry point ---------------------------------------------------------------------

def _write_whole(files: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Write each (path, chunks) file. A regular file, or a new one, is
    written beside its target, and all are moved over their targets once
    every one is whole, so a write that fails partway leaves every old
    file; a pipe or a device is written in place."""
    moves = []   # (part, target, whether the target is a regular file)
    try:
        for path, chunks in files:
            real = os.path.realpath(path)
            regular = os.path.isfile(real)
            part = real + ".part" if regular or not os.path.exists(real) else real
            try:
                fh = open(part, "w", encoding="utf-8", newline="\n")
            except OSError as exc:
                exc.filename = path   # the name the caller gave, not the part file's
                raise
            with fh:
                if part != real:
                    moves.append((part, real, regular))
                fh.writelines(chunks)
        for part, real, regular in moves:
            if regular:
                shutil.copymode(real, part)
            os.replace(part, real)
    except BaseException:
        for part, _, _ in moves:
            with suppress(OSError):
                os.unlink(part)
        raise


def export(cpg: g.Cpg, manifest: ExportManifest) -> list[str]:
    """Write the graph's files in `manifest.format`; returns their paths."""
    if not cpg.frozen:
        raise ExportError("export requires a frozen graph")
    fmt, path = manifest.format, manifest.path
    if fmt in ("json", "dot"):
        files = [(path, _json_chunks(cpg) if fmt == "json" else
                  (to_dot(cpg, manifest.edge_types),))]
    else:
        os.makedirs(path, exist_ok=True)
        texts = _datalog_files(cpg) if fmt == "datalog" else \
            dict(zip(("nodes.csv", "edges.csv"), neo4j_csv(cpg)))
        files = [(os.path.join(path, name), (text,)) for name, text in texts.items()]
    _write_whole(files)
    return [written for written, _ in files]
