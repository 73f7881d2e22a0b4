"""Serialization of a frozen graph: canonical JSON (lossless, versioned),
DOT, Datalog fact files, and Neo4j bulk-import CSV.

All outputs are byte-deterministic for a given graph: elements are written in
id order and property keys sorted. The lossy formats (DOT/facts/CSV) project
the graph; JSON round-trips exactly.

JSON is compact, with one node or edge record per line between the lines
`{"edges":[`, `],"nodes":[` and `],"schema":1}`. Each distinct property map
is encoded once, so the DDG edges of one origin, which share a map, cost one
encoding. `import_json` accepts any layout of the same document, including
files pretty-printed by older versions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import ExportError
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


# -- JSON --------------------------------------------------------------------

def to_json(cpg: g.Cpg) -> str:
    """The graph as compact JSON, one record per line (see the module doc)."""
    memo: dict[int, str] = {}   # id(obj) -> encoding; the graph keeps obj alive

    def enc(obj) -> str:
        text = memo.get(id(obj))
        if text is None:
            text = memo[id(obj)] = _encode(obj)
        return text

    edges = ",\n".join(['{"dst":%d,"id":%d,"properties":%s,"src":%d,"type":%s}'
                        % (e.dst, e.id, enc(e.properties), e.src, enc(e.type))
                        for e in cpg.edges])
    nodes = ",\n".join(['{"id":%d,"kind":%s,"properties":%s}'
                        % (n.id, enc(n.kind), enc(n.properties))
                        for n in cpg.nodes])
    parts = ('{"edges":[', edges, '],"nodes":[', nodes,
             '],"schema":%d}' % SCHEMA_VERSION)
    return "\n".join(p for p in parts if p) + "\n"


def import_json(path: str) -> g.Cpg:
    """Rebuild a frozen graph from a file `to_json` wrote. A file that cannot
    be opened raises `OSError`; one that is not a graph raises `ExportError`."""
    with g.gc_paused():
        try:
            with open(path, "r", encoding="utf-8") as fh:
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


def to_dot(cpg: g.Cpg, edge_types: tuple[str, ...] = g.EDGE_TYPES) -> str:
    lines = ["digraph cpg {", "  node [shape=box, fontsize=10];"]
    for node in cpg.nodes:
        label = _dot_label(cpg, node).replace('"', '\\"')
        lines.append(f'  n{node.id} [label="{label}"];')
    for e in cpg.edges:
        if e.type not in edge_types:
            continue
        color = EDGE_COLORS[e.type]
        lab = e.properties.get("label")
        attr = f'color={color}'
        if lab is not None:
            text = str(lab).replace('"', '\\"')
            attr += f', label="{text}"'
        lines.append(f"  n{e.src} -> n{e.dst} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- Datalog facts ---------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def datalog_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    """Predicate name -> rows. Missing optional fields are empty strings."""
    facts: dict[str, list[tuple]] = {
        "instruction": [], "function": [], "call": [], "loop": [],
        "brIf": [], "store": [], "binary": [], "compare": [],
        "astEdge": [], "cfgEdge": [], "cgEdge": [], "ddgEdge": [],
    }
    cg_target: dict[int, int] = {}
    for e in cpg.edges:
        if e.type == g.CG and e.src not in cg_target:
            cg_target[e.src] = e.dst
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
            target = cg_target.get(n.id)
            if target is not None:
                tp = cpg.node(target).properties
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
    for e in cpg.edges:
        if e.type == g.AST:
            facts["astEdge"].append((e.src, e.dst,
                                     _cell(e.properties.get("childIndex"))))
        elif e.type == g.CFG:
            facts["cfgEdge"].append((e.src, e.dst,
                                     _cell(e.properties.get("label"))))
        elif e.type == g.CG:
            facts["cgEdge"].append((e.src, e.dst))
        elif e.type == g.DDG:
            p = e.properties
            facts["ddgEdge"].append((
                e.src, e.dst, _cell(p.get("label")), p["ddgType"],
                _cell(p.get("valueType")), _cell(p.get("value")), e.src))
    return facts


def write_datalog(cpg: g.Cpg, outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, rows in sorted(datalog_facts(cpg).items()):
        path = os.path.join(outdir, f"{name}.facts")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write("\t".join(_cell(v) for v in row) + "\n")
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

    edge_keys = sorted({k for e in cpg.edges for k in e.properties})
    lines = [",".join([":START_ID", ":END_ID", ":TYPE"] + edge_keys)]
    for e in cpg.edges:
        row = [str(e.src), str(e.dst), e.type]
        for k in edge_keys:
            row.append(_csv_cell(e.properties.get(k)))
        lines.append(",".join(row))
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

def export(cpg: g.Cpg, manifest: ExportManifest) -> list[str]:
    if not cpg.frozen:
        raise ExportError("export requires a frozen graph")
    if manifest.format in ("json", "dot"):
        text = to_json(cpg) if manifest.format == "json" else \
            to_dot(cpg, manifest.edge_types)
        with open(manifest.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return [manifest.path]
    if manifest.format == "datalog":
        return write_datalog(cpg, manifest.path)
    return write_neo4j(cpg, manifest.path)
