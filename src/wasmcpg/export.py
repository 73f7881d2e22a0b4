"""Serialization of a frozen graph: canonical JSON (lossless, versioned),
DOT, Datalog fact files, and Neo4j bulk-import CSV.

All outputs are byte-deterministic for a given graph: elements are written in
id order and property keys sorted. The lossy formats (DOT/facts/CSV) project
the graph; JSON round-trips exactly. JSON is compact, with one node or edge
record per line between the lines `{"edges":[`, `],"nodes":[` and
`],"schema":1}`.

Edges are read through `graph.Cpg.edge_rows`, so an export builds no edge
record, and each distinct property map is rendered once, memoised by its id
(the graph shares one map among edges of one type, and a map never serves
two types).

Each format renders its files' text, JSON in chunks of records
(`_json_chunks`), and `_write_whole` writes every output file, the CLI's
findings too, beside its target and moves each into place once all are
whole, so a write that fails partway leaves every old file; a pipe or a
device is written in place.

`import_json` reads `to_json`'s layout line by line, decoding and validating
each distinct (type, property text) once, so its edges share one map again;
texts that differ only in type or sign (`1`, `1.0`, `true`; `0.0`, `-0.0`)
stay apart. Any other layout of the same document, such as a file
pretty-printed by an older version, loads through `json.load`. Both readers
hand the same nodes and edge rows, ids checked, to one rebuild.
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

    # every node owns its map, so only the kinds repeat
    kinds = {kind: _encode(kind) for kind in {n.kind for n in cpg.nodes}}
    yield '{"edges":[\n'
    yield from joined(edge_records())
    yield '],"nodes":[\n'
    yield from joined('{"id":%d,"kind":%s,"properties":%s}'
                      % (n.id, kinds[n.kind], _encode(n.properties)) for n in cpg.nodes)
    yield '],"schema":%d}\n' % SCHEMA_VERSION


# One record line of the layout `to_json` writes; ids use JSON's integer grammar.
_INT = r"-?(?:0|[1-9][0-9]*)"
_EDGE_LINE = re.compile(r'\{"dst":(%s),"id":(?P<id>%s),"properties":(\{.*\}),"src":(%s),'
                        r'"type":"([A-Z]+)"\}(,?)\n' % (_INT, _INT, _INT))
_NODE_LINE = re.compile(r'\{"id":(?P<id>%s),"kind":"([A-Za-z]+)","properties":(\{.*\})\}'
                        r'(,?)\n' % _INT)


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
                return _rebuild(*_read_lines(fh))
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
        try:
            return _rebuild(((n["kind"], n.get("properties", {}))
                             for n in _checked(nodes, "node")),
                            ((e["src"], e["dst"], e["type"], e.get("properties", {}))
                             for e in _checked(edges, "edge")))
        except (KeyError, TypeError, ValueError) as exc:
            # a record that is not an object, lacks a field or has ill-typed values
            raise ExportError(f"malformed node or edge record: "
                              f"{type(exc).__name__}: {exc}") from exc


def _checked(records: list, what: str) -> Iterator[dict]:
    """A loaded document's records, each checked as the rebuild reaches it,
    so the first fault in the file is the one reported."""
    for i, record in enumerate(records):
        if record["id"] != i:
            raise ExportError(f"{what} ids must be dense and ordered")
        if what == "node" and not isinstance(record["kind"], str):
            raise TypeError(f"node kind {record['kind']!r} is not a string")
        yield record


def _rebuild(nodes: Iterable[tuple[str, dict]], rows: Iterable[tuple]) -> g.Cpg:
    """The frozen graph of `(kind, properties)` nodes and `(src, dst, type,
    properties)` edge rows, each in id order."""
    cpg = g.Cpg()
    for kind, props in nodes:
        cpg.add_node(kind, props)   # add_node copies the map
    cpg.add_edges(rows)
    return cpg.freeze()


def _records(lines: Iterator[str], pattern: re.Pattern, close: str) -> Iterator[tuple]:
    """The regex groups of each record line up to the line `close`; the last
    group is the line's trailing comma. A line out of `to_json`'s layout, or
    a record whose id is not its index, raises ValueError."""
    at = pattern.groupindex["id"] - 1   # the id's place among the groups
    comma = line = None     # after a record: "," if another must follow, else ""
    for i, line in enumerate(lines):
        m = pattern.fullmatch(line)
        groups = m and m.groups()
        if m is None or comma == "" or int(groups[at]) != i:
            break
        comma = groups[-1]
        yield groups
    if line != close or comma == ",":
        raise ValueError("not the layout to_json writes")


def _read_lines(lines: Iterator[str]) -> tuple[list, list]:
    """`_rebuild`'s nodes and edge rows from `to_json`'s layout."""
    if next(lines, None) != '{"edges":[\n':
        raise ValueError("not the layout to_json writes")
    memo: dict[tuple[str, str], tuple[str, dict]] = {}

    def interned(kind: str, text: str) -> tuple[str, dict]:
        """(edge type or node kind, property text) -> one shared (kind, map)."""
        found = memo.get((kind, text))
        if found is None:
            found = memo[kind, text] = (sys.intern(kind), json.loads(text))
        return found

    rows = [(int(src), int(dst)) + interned(edge_type, text) for dst, _, text, src, edge_type, _
            in _records(lines, _EDGE_LINE, '],"nodes":[\n')]
    nodes = [interned(kind, text) for _, kind, text, _
             in _records(lines, _NODE_LINE, '],"schema":%d}\n' % SCHEMA_VERSION)]
    if next(lines, None) is not None:
        raise ValueError("data after the document")
    return nodes, rows


# -- DOT ----------------------------------------------------------------------

def _dot_label(node: g.Node) -> str:
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
        lines.append(f'  n{node.id} [label="{_dot_text(_dot_label(node))}"];')
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


# instType -> (predicate, the properties of its cells after the node id)
_INST_FACTS = {"Loop": ("loop", ("label", "nresults")), "BrIf": ("brIf", ("label",)),
               "Store": ("store", ("offset",)), "Binary": ("binary", ("opcode",)),
               "Compare": ("compare", ("opcode",))}

# edge type -> (predicate, the properties of its cells after src and dst); a
# ddgEdge row ends with its origin, the src again
_EDGE_FACTS = {g.AST: ("astEdge", ("childIndex",)), g.CFG: ("cfgEdge", ("label",)),
               g.CG: ("cgEdge", ()),
               g.DDG: ("ddgEdge", ("label", "ddgType", "valueType", "value"))}


def _node_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    """Predicate name -> rows, with every edge predicate still empty."""
    facts: dict[str, list[tuple]] = {name: [] for name in (
        "instruction", "function", "call",
        *(name for name, _ in (*_INST_FACTS.values(), *_EDGE_FACTS.values())))}
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
        elif t in _INST_FACTS:
            name, keys = _INST_FACTS[t]
            facts[name].append((n.id, *(n.properties[k] for k in keys)))
    return facts


def _edge_facts(cpg: g.Cpg) -> Iterator[tuple[int, int, str, tuple]]:
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


def _datalog_files(cpg: g.Cpg) -> dict[str, str]:
    """`<predicate>.facts` -> its text, tab-separated, in name order."""
    lines = {name: ["\t".join(_cell(v) for v in row) for row in rows]
             for name, rows in _node_facts(cpg).items()}
    for src, dst, edge_type, (name, _, text) in _edge_facts(cpg):
        lines[name].append(f"{src}\t{dst}{text}\t{src}" if edge_type == g.DDG
                           else f"{src}\t{dst}{text}")
    return {f"{name}.facts": "".join(row + "\n" for row in lines.pop(name))
            for name in sorted(lines)}


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
