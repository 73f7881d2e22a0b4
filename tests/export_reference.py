"""Row-by-row renderers of DOT, Datalog facts and Neo4j CSV: each edge read
as one `Cpg.edge_rows` row and formatted in Python, each node's CSV row
with every column. The column renderers in `wasmcpg.export` must give the
same bytes; these are kept simple so that they can be read as the spec."""

from __future__ import annotations

from wasmcpg import graph as g

EDGE_COLORS = {g.AST: "green", g.CFG: "red", g.DDG: "blue", g.CG: "black"}


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
    lines = ["digraph cpg {", "  node [shape=box, fontsize=10];",
             *(f'  n{node.id} [label="{_dot_text(_dot_label(node))}"];' for node in cpg.nodes)]
    for src, dst, edge_type, props in cpg.edge_rows():
        if edge_type in edge_types:
            attr = f"color={EDGE_COLORS[edge_type]}"
            if props.get("label") is not None:
                attr += f', label="{_dot_text(props["label"])}"'
            lines.append(f"  n{src} -> n{dst} [{attr}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


_INST_FACTS = {"Loop": ("loop", ("label", "nresults")), "BrIf": ("brIf", ("label",)),
               "Store": ("store", ("offset",)), "Binary": ("binary", ("opcode",)),
               "Compare": ("compare", ("opcode",))}
_EDGE_FACTS = {g.AST: ("astEdge", ("childIndex",)), g.CFG: ("cfgEdge", ("label",)),
               g.CG: ("cgEdge", ()),
               g.DDG: ("ddgEdge", ("label", "ddgType", "valueType", "value"))}


def _node_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    facts: dict[str, list[tuple]] = {name: [] for name in (
        "instruction", "function", "call",
        *(name for name, _ in (*_INST_FACTS.values(), *_EDGE_FACTS.values())))}
    for n in cpg.nodes:
        if n.kind == g.FUNCTION:
            p = n.properties
            facts["function"].append((
                n.id, p["name"], p["index"], p["nargs"], p["nlocals"],
                p["nresults"], cell(p["isImport"]), cell(p["isExport"])))
        if n.kind != g.INSTRUCTION:
            continue
        t = n.properties["instType"]
        facts["instruction"].append((n.id, t))
        if t == "Call":
            nargs = nresults = ""
            targets = cpg.out_edges(n.id, g.CG)
            if targets and cpg.node(targets[0].dst).kind == g.FUNCTION:
                tp = cpg.node(targets[0].dst).properties
                nargs, nresults = tp["nargs"], tp["nresults"]
            facts["call"].append((n.id, n.properties["label"], nargs, nresults))
        elif t in _INST_FACTS:
            name, keys = _INST_FACTS[t]
            facts[name].append((n.id, *(n.properties[k] for k in keys)))
    return facts


def datalog_facts(cpg: g.Cpg) -> dict[str, list[tuple]]:
    facts = _node_facts(cpg)
    for src, dst, edge_type, props in cpg.edge_rows():
        name, keys = _EDGE_FACTS[edge_type]
        row = (src, dst, *(cell(props.get(k)) for k in keys))
        facts[name].append(row + (src,) if edge_type == g.DDG else row)
    return facts


def fact_cell(value) -> str:
    """A `.facts` cell: backslash, tab, LF and CR written as two characters."""
    return cell(value).replace("\\", "\\\\").replace("\t", "\\t") \
        .replace("\n", "\\n").replace("\r", "\\r")


def datalog_files(cpg: g.Cpg) -> dict[str, str]:
    return {f"{name}.facts": "".join("\t".join(map(fact_cell, row)) + "\n" for row in rows)
            for name, rows in sorted(datalog_facts(cpg).items())}


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def neo4j_csv(cpg: g.Cpg) -> tuple[str, str]:
    node_keys = sorted({k for n in cpg.nodes for k in n.properties})
    lines = [",".join([":ID", ":LABEL"] + node_keys)]
    lines += [",".join([str(n.id), n.kind, *(csv_cell(n.properties.get(k)) for k in node_keys)])
              for n in cpg.nodes]
    nodes_csv = "\n".join(lines) + "\n"
    rows = list(cpg.edge_rows())
    edge_keys = sorted({k for *_, props in rows for k in props})
    lines = [",".join([":START_ID", ":END_ID", ":TYPE"] + edge_keys)]
    lines += [",".join([str(src), str(dst), edge_type, *(csv_cell(props.get(k)) for k in edge_keys)])
              for src, dst, edge_type, props in rows]
    return nodes_csv, "\n".join(lines) + "\n"
