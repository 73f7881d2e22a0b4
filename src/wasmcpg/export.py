"""Serialization of a frozen graph: canonical JSON (lossless, versioned),
DOT, Datalog fact files, and Neo4j bulk-import CSV.

All outputs are byte-deterministic for a given graph: elements are written in
id order and property keys sorted. The lossy formats (DOT/facts/CSV) project
the graph; JSON round-trips exactly.

JSON is compact, with one node or edge record per line between the lines
`{"edges":[`, `],"nodes":[` and `],"schema":1}`.

Edges are read through `graph.Cpg.edge_rows`, straight from the graph's
columns, so an export builds no edge record. Every path costs one unit of
work per distinct property map plus a cheap append per edge: the graph
shares one map among edges of one type, and a map never serves two types,
so each map's rendering (a JSON record template with the ids left open, DOT
attributes, Datalog cells, CSV cells) is memoised by its id. The JSON save
is streamed: `_json_chunks` yields the text in chunks of records, which
`to_json` joins and `export` writes as they come to a file beside the
target, moved over it once whole. `import_json` reads that layout line by
line and decodes and validates each distinct (type, property text) once,
so its edges share one map again; texts that differ only in type or sign
(`1`, `1.0`, `true`; `0.0`, `-0.0`) stay apart.
It accepts any other layout of the same document, such as files
pretty-printed by older versions, through `json.load`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from .errors import ExportError, WasmCpgError
from . import graph as g

SCHEMA_VERSION = 1

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


def _json_chunks(cpg: g.Cpg) -> Iterator[str]:
    """`to_json`'s text, in chunks of up to _CHUNK records each."""
    memo: dict[int, str] = {}   # id(obj) -> encoding; the graph keeps obj alive

    def enc(obj) -> str:
        text = memo.get(id(obj))
        if text is None:
            text = memo[id(obj)] = _encode(obj)
        return text

    def joined(records: Iterator[str]) -> Iterator[str]:
        """The records joined by ",\n", then "\n" if there was one."""
        sep = ""
        for chunk in iter(lambda: ",\n".join(islice(records, _CHUNK)), ""):
            yield sep + chunk
            sep = ",\n"
        if sep:
            yield "\n"

    def edge_records() -> Iterator[str]:
        templates: dict[int, str] = {}   # id(map) -> its edges' record, ids left open
        for eid, (src, dst, edge_type, props) in enumerate(cpg.edge_rows()):
            text = templates.get(id(props))
            if text is None:   # a map belongs to the edges of one type
                text = templates[id(props)] = \
                    '{"dst":%%d,"id":%%d,"properties":%s,"src":%%d,"type":%s}' % (
                        _encode(props).replace("%", "%%"), _encode(edge_type))
            yield text % (dst, eid, src)

    yield '{"edges":[\n'
    yield from joined(edge_records())
    yield '],"nodes":[\n'
    yield from joined('{"id":%d,"kind":%s,"properties":%s}'
                      % (n.id, enc(n.kind), enc(n.properties)) for n in cpg.nodes)
    yield '],"schema":%d}\n' % SCHEMA_VERSION


# One record line of the layout `to_json` writes; ids use JSON's integer grammar.
_INT = r"(-?(?:0|[1-9][0-9]*))"
_EDGE_LINE = re.compile(r'\{"dst":%s,"id":%s,"properties":(\{.*\}),"src":%s,'
                        r'"type":"([A-Z]+)"\}(,?)\n' % (_INT, _INT, _INT))
_NODE_LINE = re.compile(r'\{"id":%s,"kind":"([A-Za-z]+)","properties":(\{.*\})\}(,?)\n'
                        % _INT)


def import_json(path: str) -> g.Cpg:
    """Rebuild a frozen graph from a file `to_json` wrote. A file that cannot
    be opened raises `OSError`; one that is not a graph raises `ExportError`.

    A file in `to_json`'s layout is read line by line, and each distinct
    (edge type, property text) is decoded and validated once, its edges
    sharing one map. Any other file, and any fault on the way, sends the
    whole file to `json.load`, which reports every error."""
    with g.gc_paused():
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return _read_lines(fh).freeze()
            except (ValueError, KeyError, TypeError, RecursionError, WasmCpgError):
                fh.seek(0)
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:   # bad UTF-8, JSON or nesting
                raise ExportError(f"cannot load graph file {path}: {exc}")
        if not isinstance(doc, dict) or "schema" not in doc:
            raise ExportError("not a serialized graph file")
        if doc["schema"] != SCHEMA_VERSION:
            raise ExportError(f"unsupported schema version {doc['schema']}")
        nodes, edges = doc.get("nodes", []), doc.get("edges", [])
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise ExportError("nodes and edges must be lists")
        cpg = g.Cpg()
        try:
            for i, node in enumerate(nodes):
                if node["id"] != i:
                    raise ExportError("node ids must be dense and ordered")
                if not isinstance(node["kind"], str):
                    raise TypeError(f"node kind {node['kind']!r} is not a string")
                cpg.add_node(node["kind"], node.get("properties", {}))
            for i, edge in enumerate(edges):
                if edge["id"] != i:
                    raise ExportError("edge ids must be dense and ordered")
                cpg.add_edge(edge["src"], edge["dst"], edge["type"],
                             edge.get("properties", {}))
        except (KeyError, TypeError, ValueError) as exc:
            # a record that is not an object, lacks a field or has ill-typed values
            raise ExportError(f"malformed node or edge record: "
                              f"{type(exc).__name__}: {exc}") from exc
        return cpg.freeze()


def _records(lines: Iterator[str], pattern: re.Pattern, close: str) -> Iterator[tuple]:
    """The regex groups of each record line up to the line `close`; the last
    group is the line's trailing comma. A line out of `to_json`'s layout
    raises ValueError."""
    comma = line = None     # after a record: "," if another must follow, else ""
    for line in lines:
        m = pattern.fullmatch(line)
        if m is None or comma == "":
            break
        groups = m.groups()
        comma = groups[-1]
        yield groups
    if line != close or comma == ",":
        raise ValueError("not the layout to_json writes")


def _read_lines(lines: Iterator[str]) -> g.Cpg:
    if next(lines, None) != '{"edges":[\n':
        raise ValueError("not the layout to_json writes")
    memo: dict[tuple[str, str], tuple[str, dict]] = {}

    def interned(kind: str, text: str) -> tuple[str, dict]:
        """(edge type or node kind, property text) -> one shared (kind, map)."""
        found = memo.get((kind, text))
        if found is None:
            found = memo[kind, text] = (sys.intern(kind), json.loads(text))
        return found

    rows: list[tuple] = []
    for dst, eid, text, src, edge_type, _ in _records(lines, _EDGE_LINE, '],"nodes":[\n'):
        if int(eid) != len(rows):
            raise ValueError("edge ids must be dense and ordered")
        rows.append((int(src), int(dst)) + interned(edge_type, text))
    cpg = g.Cpg()
    for nid, kind, text, _ in _records(lines, _NODE_LINE,
                                       '],"schema":%d}\n' % SCHEMA_VERSION):
        if int(nid) != len(cpg.nodes):
            raise ValueError("node ids must be dense and ordered")
        cpg.add_node(*interned(kind, text))   # add_node copies the map
    if next(lines, None) is not None:
        raise ValueError("data after the document")
    cpg.add_edges(rows)
    return cpg


# -- DOT ----------------------------------------------------------------------

def _dot_label(cpg: g.Cpg, node: g.Node) -> str:
    if node.kind == g.INSTRUCTION:
        text = node.properties.get("instType", "")
        extra = node.properties.get("label")
        if extra is None and "value" in node.properties:
            extra = node.properties["value"]
        if extra is not None:
            text = f"{text} {extra}"
    elif node.kind == g.FUNCTION:
        text = f"Function {node.properties.get('name', '')}"
    else:
        text = node.kind
    return f"{node.id}: {text}"


def _dot_text(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(cpg: g.Cpg, edge_types: tuple[str, ...] = g.EDGE_TYPES) -> str:
    lines = ["digraph cpg {", "  node [shape=box, fontsize=10];"]
    for node in cpg.nodes:
        lines.append(f'  n{node.id} [label="{_dot_text(_dot_label(cpg, node))}"];')
    attrs: dict[int, str] = {}   # id(map) -> attributes, "" for a type left out
    for src, dst, edge_type, props in cpg.edge_rows():
        attr = attrs.get(id(props))
        if attr is None:   # a map belongs to the edges of one type
            attr = ""
            if edge_type in edge_types:
                attr = f"color={EDGE_COLORS[edge_type]}"
                lab = props.get("label")
                if lab is not None:
                    attr += f', label="{_dot_text(lab)}"'
            attrs[id(props)] = attr
        if attr:
            lines.append(f"  n{src} -> n{dst} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- Datalog facts ---------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


# edge type -> (predicate, the properties of its cells after src and dst); a
# ddgEdge row ends with its origin, the src again
_EDGE_FACTS = {g.AST: ("astEdge", ("childIndex",)), g.CFG: ("cfgEdge", ("label",)),
               g.CG: ("cgEdge", ()),
               g.DDG: ("ddgEdge", ("label", "ddgType", "valueType", "value"))}


def _node_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    """Predicate name -> rows, with every edge predicate still empty."""
    facts: dict[str, list[tuple]] = {
        "instruction": [], "function": [], "call": [], "loop": [],
        "brIf": [], "store": [], "binary": [], "compare": [],
        **{name: [] for name, _ in _EDGE_FACTS.values()},
    }
    for n in cpg.nodes:
        if n.kind == g.FUNCTION:
            p = n.properties
            facts["function"].append((
                n.id, p["name"], p["index"], p["nargs"], p["nlocals"],
                p["nresults"], _cell(p["isImport"]), _cell(p["isExport"])))
        if n.kind != g.INSTRUCTION:
            continue
        t = n.properties["instType"]
        facts["instruction"].append((n.id, t))
        if t == "Call":
            nargs = nresults = ""
            targets = cpg.out_edges(n.id, g.CG)
            if targets:
                tp = cpg.node(targets[0].dst).properties
                nargs, nresults = tp["nargs"], tp["nresults"]
            facts["call"].append((n.id, n.properties["label"], nargs, nresults))
        elif t == "Loop":
            facts["loop"].append((n.id, n.properties["label"],
                                  n.properties["nresults"]))
        elif t == "BrIf":
            facts["brIf"].append((n.id, n.properties["label"]))
        elif t == "Store":
            facts["store"].append((n.id, n.properties["offset"]))
        elif t == "Binary":
            facts["binary"].append((n.id, n.properties["opcode"]))
        elif t == "Compare":
            facts["compare"].append((n.id, n.properties["opcode"]))
    return facts


def _edge_facts(cpg: g.Cpg) -> Iterator[tuple[int, int, str,
                                              tuple[str, tuple[str, ...], str]]]:
    """Each edge's src, dst and type with its predicate and its cells
    between src/dst and the DDG origin, as a tuple and as tab-led text,
    rendered once per map (a map belongs to the edges of one type)."""
    memo: dict[int, tuple[str, tuple[str, ...], str]] = {}
    for src, dst, edge_type, props in cpg.edge_rows():
        fact = memo.get(id(props))
        if fact is None:
            name, keys = _EDGE_FACTS[edge_type]
            cells = tuple(_cell(props.get(k)) for k in keys)
            fact = memo[id(props)] = (name, cells, "".join("\t" + c for c in cells))
        yield src, dst, edge_type, fact


def datalog_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    """Predicate name -> rows. Missing optional fields are empty strings."""
    facts = _node_facts(cpg)
    for src, dst, edge_type, (name, cells, _) in _edge_facts(cpg):
        row = (src, dst, *cells)
        facts[name].append(row + (src,) if edge_type == g.DDG else row)
    return facts


def write_datalog(cpg: g.Cpg, outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    lines = {name: ["\t".join(_cell(v) for v in row) for row in rows]
             for name, rows in _node_facts(cpg).items()}
    for src, dst, edge_type, (name, _, text) in _edge_facts(cpg):
        lines[name].append(f"{src}\t{dst}{text}\t{src}" if edge_type == g.DDG
                           else f"{src}\t{dst}{text}")
    written = []
    for name, rows in sorted(lines.items()):
        path = os.path.join(outdir, f"{name}.facts")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(row + "\n" for row in rows))
        written.append(path)
    return written


# -- Neo4j CSV ---------------------------------------------------------------------

def neo4j_csv(cpg: g.Cpg) -> tuple[str, str]:
    node_keys = sorted({k for n in cpg.nodes for k in n.properties})
    lines = [",".join([":ID", ":LABEL"] + node_keys)]
    for n in cpg.nodes:
        row = [str(n.id), n.kind]
        for k in node_keys:
            row.append(_csv_cell(n.properties.get(k)))
        lines.append(",".join(row))
    nodes_csv = "\n".join(lines) + "\n"

    maps = {id(p): p for _, _, _, p in cpg.edge_rows()}   # each distinct map once
    edge_keys = sorted({k for p in maps.values() for k in p})
    lines = [",".join([":START_ID", ":END_ID", ":TYPE"] + edge_keys)]
    tails: dict[int, str] = {}   # id(map) -> cells after src,dst; a map has one type
    for src, dst, edge_type, props in cpg.edge_rows():
        tail = tails.get(id(props))
        if tail is None:
            tail = tails[id(props)] = ",".join(
                [edge_type] + [_csv_cell(props.get(k)) for k in edge_keys])
        lines.append(f"{src},{dst},{tail}")
    return nodes_csv, "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_neo4j(cpg: g.Cpg, outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    nodes_csv, edges_csv = neo4j_csv(cpg)
    paths = [os.path.join(outdir, "nodes.csv"), os.path.join(outdir, "edges.csv")]
    for path, text in zip(paths, (nodes_csv, edges_csv)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return paths


# -- entry point ---------------------------------------------------------------------

def _write_whole(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to `path`. A regular file, or a new one, is written
    beside it and moved over it once whole, so a save that fails partway
    leaves the old file; a pipe or a device is written in place."""
    real = os.path.realpath(path)
    regular = os.path.isfile(real)
    part = real + ".part" if regular or not os.path.exists(real) else real
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        if part != real:
            if regular:
                shutil.copymode(real, part)
            os.replace(part, real)
    except BaseException:
        if part != real:
            with suppress(OSError):
                os.unlink(part)
        raise


def export(cpg: g.Cpg, manifest: ExportManifest) -> list[str]:
    if not cpg.frozen:
        raise ExportError("export requires a frozen graph")
    if manifest.format in ("json", "dot"):
        chunks = _json_chunks(cpg) if manifest.format == "json" else \
            (to_dot(cpg, manifest.edge_types),)
        _write_whole(manifest.path, chunks)
        return [manifest.path]
    if manifest.format == "datalog":
        return write_datalog(cpg, manifest.path)
    return write_neo4j(cpg, manifest.path)
