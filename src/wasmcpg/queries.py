"""The built-in vulnerability detectors (query ids 1..10).

All of them are pure graph passes over a frozen CPG, parameterized by a scan
configuration (sources/sinks/dangerous functions/format functions/allocator
pairs/taint depth). Sanitization is not modeled; taint queries over-approximate.
The detectors share two tests: `_is_call` (a Call to one of a set of names)
and `_ddg_labels` (the labels of a node's incoming DDG edges of one ddgType).
Each has a query-language twin in `queries_wql/`, the independent reference
the findings are checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .findings import Finding
from . import graph as g
from . import query as q


@dataclass
class ScanConfig:
    sources: list[str] = field(default_factory=list)
    sinks: list[str] = field(default_factory=list)
    dangerous_functions: list[str] = field(default_factory=list)
    format_functions: dict[str, int] = field(default_factory=dict)
    alloc_pairs: dict[str, str] = field(default_factory=dict)
    taint_depth: int = 3  # call-graph hops for the tainted-parameter query

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        if not isinstance(data, dict):
            raise ConfigError("scan configuration must be a JSON object")

        def names(key: str) -> list[str]:
            value = data.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ConfigError(f"{key} must be an array of strings")
            return list(value)

        def table(key: str, valid, what: str) -> dict:
            value = data.get(key, {})
            if not isinstance(value, dict) or not all(map(valid, value.values())):
                raise ConfigError(f"{key} must be an object of {what}")
            return dict(value)

        def is_int(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        depth = data.get("taintDepth", 3)
        if not is_int(depth) or depth < 0:
            raise ConfigError("taintDepth must be an integer >= 0")
        config = cls(sources=names("sources"), sinks=names("sinks"),
                     dangerous_functions=names("dangerousFunctions"),
                     format_functions=table("formatFunctions", is_int, "integers"),
                     alloc_pairs=table("allocPairs", lambda v: isinstance(v, str),
                                       "strings"),
                     taint_depth=depth)
        for alloc, dealloc in config.alloc_pairs.items():
            if alloc == dealloc:
                raise ConfigError(f"allocator pair maps {alloc} to itself")
        for name, idx in config.format_functions.items():
            if idx < 0:
                raise ConfigError(f"format argument index for {name} must be >= 0")
        return config

    @classmethod
    def from_file(cls, path: str) -> "ScanConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError) as exc:   # bad UTF-8, JSON or nesting
            raise ConfigError(f"cannot load scan configuration {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_wql_bindings(self) -> dict:
        return {
            "sources": list(self.sources),
            "sinks": list(self.sinks),
            "dangerousFunctions": list(self.dangerous_functions),
            "formatFunctions": dict(self.format_functions),
            "allocPairs": dict(self.alloc_pairs),
            # name used by older query files for the allocator map
            "pairMalloc": dict(self.alloc_pairs),
            "taintDepth": self.taint_depth,
        }


def _fname(cpg: g.Cpg, fnode: int) -> str:
    return cpg.node_property(fnode, "name")


def _is_call(cpg: g.Cpg, node: int, names) -> bool:
    return cpg.node_property(node, "instType") == "Call" and \
        cpg.node_property(node, "label") in names


def _calls(cpg: g.Cpg, fnode: int, names) -> list[int]:
    return q.instructions(cpg, [fnode], lambda n: cpg.node_property(n, "label") in names,
                          inst_type="Call")


def _ddg_labels(cpg: g.Cpg, node: int, ddg_type: str) -> set:
    """Labels of the node's incoming DDG edges of one `ddgType`."""
    return {e.properties.get("label") for e in cpg.ddg_edges(node, ddg_type, "in")}


# -- 1. format strings ---------------------------------------------------------

def q1_format_strings(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    """Format calls whose format argument is reached by no constant."""
    findings = []
    if not config.format_functions:
        return findings
    for fnode in q.functions(cpg):
        for call in _calls(cpg, fnode, config.format_functions):
            label = cpg.node_property(call, "label")
            idx = config.format_functions[label]
            args = cpg.ast_children(call)
            fmt_arg = args[idx] if idx < len(args) else None
            direct_const = fmt_arg is not None and \
                cpg.node_property(fmt_arg, "instType") == "Const"
            if direct_const or _ddg_labels(cpg, call, "Const"):
                continue
            findings.append(Finding(
                1, "FormatString", _fname(cpg, fnode), label,
                f"format argument of {label} has no constant dependency",
                [call]))
    return findings


# -- 2. dangerous functions ------------------------------------------------------

def q2_dangerous_functions(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    findings = []
    banned = set(config.dangerous_functions)
    if not banned:
        return findings
    for fnode in q.functions(cpg):
        for call in _calls(cpg, fnode, banned):
            label = cpg.node_property(call, "label")
            findings.append(Finding(
                2, "DangerousFunction", _fname(cpg, fnode), label,
                f"call to dangerous function {label}", [call]))
    return findings


# -- 3/4. use-after-free and double free -------------------------------------------

def _alloc_dealloc_triples(cpg: g.Cpg, fnode: int, alloc: str, dealloc: str):
    """(alloc call, dealloc call, nodes after the dealloc still using the value)."""
    for n1 in _calls(cpg, fnode, {alloc}):
        deallocs = [
            n2 for n2 in q.descendants_cfg(cpg, n1)
            if _is_call(cpg, n2, {dealloc}) and q.reaches_ddg(cpg, n1, n2, "Function", alloc)
        ]
        for n2 in deallocs:
            uses = [
                n3 for n3 in q.descendants_cfg(cpg, n2)
                if q.reaches_ddg(cpg, n1, n3, "Function", alloc)
            ]
            yield n1, n2, uses


def q3_use_after_free(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    findings = []
    for fnode in q.functions(cpg):
        for alloc, dealloc in config.alloc_pairs.items():
            for n1, n2, uses in _alloc_dealloc_triples(cpg, fnode, alloc, dealloc):
                # a release, or an operand feeding one, is not a use
                real_uses = [
                    n3 for n3 in uses
                    if not any(_is_call(cpg, n, {dealloc})
                               for n in [n3, *cpg.adjacency(n3, g.AST, "in")])
                ]
                if real_uses:
                    findings.append(Finding(
                        3, "Use after free", _fname(cpg, fnode), dealloc,
                        f"value from {alloc} used after {dealloc}",
                        [n1, n2, real_uses[0]]))
    return findings


def q4_double_free(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    findings = []
    for fnode in q.functions(cpg):
        for alloc, dealloc in config.alloc_pairs.items():
            reported: set[int] = set()
            for n1, n2, uses in _alloc_dealloc_triples(cpg, fnode, alloc, dealloc):
                if n1 in reported:
                    continue
                refrees = [n3 for n3 in uses if _is_call(cpg, n3, {dealloc})]
                if refrees:
                    reported.add(n1)
                    findings.append(Finding(
                        4, "Double free", _fname(cpg, fnode), dealloc,
                        f"value from {alloc} released twice via {dealloc}",
                        [n1, n2, refrees[0]]))
    return findings


# -- 5/6. taint flows ---------------------------------------------------------------

def q5_tainted_call_indirect(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    """Indirect calls whose operands carry a dependency on a source's result.

    The table index is the last operand; edge granularity is per call, so any
    tainted operand flags the call.
    """
    findings = []
    sources = set(config.sources)
    if not sources:
        return findings
    for fnode in q.functions(cpg):
        for node in q.instructions(cpg, [fnode], inst_type="CallIndirect"):
            if _ddg_labels(cpg, node, "Function") & sources:
                findings.append(Finding(
                    5, "Tainted CallIndirect", _fname(cpg, fnode),
                    "call_indirect",
                    "indirect call target influenced by a source", [node]))
    return findings


def q6_tainted_func_to_func(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    findings = []
    sources = set(config.sources)
    sinks = set(config.sinks)
    if not sources or not sinks:
        return findings
    for fnode in q.functions(cpg):
        for sink in _calls(cpg, fnode, sinks):
            if _ddg_labels(cpg, sink, "Function") & sources:
                findings.append(Finding(
                    6, "Tainted", _fname(cpg, fnode),
                    cpg.node_property(sink, "label"),
                    "a source result reaches this sink", [sink]))
    return findings


# -- 7. tainted parameter to function ---------------------------------------------

def _param_var_nodes(cpg: g.Cpg, fnode: int) -> list[int]:
    sig = next((c for c in cpg.ast_children(fnode)
                if cpg.node(c).kind == g.FUNCTION_SIGNATURE), None)
    if sig is None:
        return []
    params = next((c for c in cpg.ast_children(sig)
                   if cpg.node(c).kind == g.PARAMETERS), None)
    if params is None:
        return []
    return cpg.ast_children(params)


def q7_tainted_local_to_func(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    """Parameters of exported functions flowing, unsanitized, into sinks.

    The walk crosses calls: when a tainted parameter reaches a call's
    operands, every parameter of every callee is treated as tainted, up to
    `taint_depth` hops.
    """
    findings = []
    sinks = set(config.sinks)
    if not sinks:
        return findings
    reported: set[tuple[str, int]] = set()
    for root in q.functions(cpg):
        if not cpg.node_property(root, "isExport"):
            continue
        root_name = _fname(cpg, root)
        worklist: list[tuple[int, int, int]] = []   # (function, origin var, depth)
        seen_origins: set[int] = set()
        for p in _param_var_nodes(cpg, root):
            worklist.append((root, p, 0))
            seen_origins.add(p)
        while worklist:
            fnode, origin, depth = worklist.pop()
            pname = cpg.node_property(origin, "name")
            for sink in _calls(cpg, fnode, sinks):
                if q.reaches_ddg(cpg, origin, sink, "Local", pname):
                    key = (root_name, sink)
                    if key not in reported:
                        reported.add(key)
                        findings.append(Finding(
                            7, "Tainted Local", root_name,
                            cpg.node_property(sink, "label"),
                            f"parameter {pname} of exported {root_name} "
                            f"reaches a sink", [origin, sink]))
            if depth >= config.taint_depth:
                continue
            for call in sorted(q.instructions(cpg, [fnode], inst_type="Call") +
                               q.instructions(cpg, [fnode], inst_type="CallIndirect")):
                if not q.reaches_ddg(cpg, origin, call, "Local", pname):
                    continue
                for callee in q.children(cpg, call, g.CG):
                    for p in _param_var_nodes(cpg, callee):
                        if p not in seen_origins:
                            seen_origins.add(p)
                            worklist.append((callee, p, depth + 1))
    findings.sort(key=lambda f: f.nodes[-1])
    return findings


# -- 8/9. static buffer overflows ----------------------------------------------------

def _frame_setup(cpg: g.Cpg, fnode: int) -> tuple[str | None, int]:
    """Detect the stack-frame prologue: global read minus a constant, stored
    into a frame-pointer local. Returns (fp local name, frame size)."""
    for sub in q.instructions(cpg, [fnode], q.p_property(cpg, "opcode", "i32.sub"),
                              inst_type="Binary"):
        kids = cpg.ast_children(sub)
        if len(kids) != 2:
            continue
        if cpg.node_property(kids[0], "instType") != "GlobalGet":
            continue
        if cpg.node_property(kids[1], "instType") != "Const":
            continue
        parent = cpg.ast_parent(sub)
        if parent is None:
            continue
        if cpg.node_property(parent, "instType") in ("LocalSet", "LocalTee"):
            return cpg.node_property(parent, "label"), \
                int(cpg.node_property(kids[1], "value"))
    return None, 0


def _fp_offset(cpg: g.Cpg, node: int, fp: str) -> int | None:
    """Offset into the frame if `node` computes fp or fp + constant."""
    t = cpg.node_property(node, "instType")
    if t in ("LocalGet", "LocalTee") and cpg.node_property(node, "label") == fp:
        return 0
    if t == "Binary" and cpg.node_property(node, "opcode") == "i32.add":
        kids = cpg.ast_children(node)
        if len(kids) == 2:
            kinds = [cpg.node_property(k, "instType") for k in kids]
            labels = [cpg.node_property(k, "label") for k in kids]
            values = [cpg.node_property(k, "value") for k in kids]
            for i, j in ((0, 1), (1, 0)):
                if kinds[i] in ("LocalGet", "LocalTee") and labels[i] == fp \
                        and kinds[j] == "Const":
                    return int(values[j])
    return None


def _last_const_arg(cpg: g.Cpg, call: int, skip: int | None = None) -> int | None:
    value = None
    for kid in cpg.ast_children(call):
        if kid == skip:
            continue
        if cpg.node_property(kid, "instType") == "Const":
            value = int(cpg.node_property(kid, "value"))
    return value


def q8_bo_static_buffer(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    """Constant-size writes through a frame pointer larger than the buffer.

    Buffer extents are gaps between the constant frame offsets in use; global
    static buffers (bare constant pointers) are not judged, so their size is
    never inferred and nothing is reported for them.
    """
    findings = []
    sinks = set(config.sinks)
    if not sinks:
        return findings
    for fnode in q.functions(cpg):
        fp, frame_size = _frame_setup(cpg, fnode)
        if fp is None:
            continue
        offsets = {0}
        for add in q.instructions(cpg, [fnode], q.p_property(cpg, "opcode", "i32.add"),
                                  inst_type="Binary"):
            off = _fp_offset(cpg, add, fp)
            if off is not None:
                offsets.add(off)
        for call in _calls(cpg, fnode, sinks):
            dest_off = None
            dest_kid = None
            for kid in cpg.ast_children(call):
                off = _fp_offset(cpg, kid, fp)
                if off is not None:
                    dest_off = off
                    dest_kid = kid
                    break
            if dest_off is None:
                continue
            size = _last_const_arg(cpg, call, skip=dest_kid)
            if size is None:
                continue
            higher = [o for o in offsets | {frame_size} if o > dest_off]
            extent = (min(higher) - dest_off) if higher else frame_size - dest_off
            if size > extent:
                findings.append(Finding(
                    8, "BO StaticBuffer", _fname(cpg, fnode),
                    cpg.node_property(call, "label"),
                    f"writes {size} bytes into a {extent}-byte stack buffer "
                    f"at frame offset {dest_off}", [call]))
    return findings


def q9_bo_static_malloc(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    """Constant-size writes exceeding a constant-size allocation they depend on."""
    findings = []
    sinks = set(config.sinks)
    if not sinks or not config.alloc_pairs:
        return findings
    for fnode in q.functions(cpg):
        for alloc in config.alloc_pairs:
            for acall in _calls(cpg, fnode, {alloc}):
                akids = cpg.ast_children(acall)
                if not akids or cpg.node_property(akids[0], "instType") != "Const":
                    continue
                alloc_size = int(cpg.node_property(akids[0], "value"))
                for sink in _calls(cpg, fnode, sinks):
                    if not q.reaches_ddg(cpg, acall, sink, "Function", alloc):
                        continue
                    size = _last_const_arg(cpg, sink)
                    if size is not None and size > alloc_size:
                        findings.append(Finding(
                            9, "BO StaticMalloc", _fname(cpg, fnode),
                            cpg.node_property(sink, "label"),
                            f"writes {size} bytes into a {alloc_size}-byte "
                            f"allocation from {alloc}", [acall, sink]))
    return findings


# -- 10. loop buffer overflows ---------------------------------------------------------

def q10_bo_loops(cpg: g.Cpg, config: ScanConfig) -> list[Finding]:
    """Loops writing through an incremented index with no bound check on it.

    One pass per loop: the indexes are the Local dependencies of each i32.add
    with a Const dependency under one of the loop's stores; the checked
    variables are the Local dependencies of the comparisons under its
    br_ifs. The loop is flagged when some index is not checked.
    """
    findings = []
    for fnode in q.functions(cpg):
        for loop in q.instructions(cpg, [fnode], inst_type="Loop"):
            insts = q.descendants_ast(cpg, loop)
            stored: set[int] = set()
            for st in insts:
                if cpg.node_property(st, "instType") == "Store":
                    stored.update(q.descendants_ast(cpg, st))
            indexes: set = set()
            for add in stored:
                if cpg.node_property(add, "instType") == "Binary" and \
                        cpg.node_property(add, "opcode") == "i32.add" and \
                        _ddg_labels(cpg, add, "Const"):
                    indexes |= _ddg_labels(cpg, add, "Local")
            if not indexes:
                continue
            checked: set = set()
            for brif in insts:
                if cpg.node_property(brif, "instType") != "BrIf":
                    continue
                for comp in q.descendants_ast(cpg, brif):
                    if cpg.node_property(comp, "instType") == "Compare":
                        checked |= _ddg_labels(cpg, comp, "Local")
            if indexes - checked:
                findings.append(Finding(
                    10, "BO Loops", _fname(cpg, fnode),
                    cpg.node_property(loop, "label"),
                    "loop stores through an incremented index without a "
                    "bound check", [loop]))
    return findings


QUERIES = {
    1: q1_format_strings,
    2: q2_dangerous_functions,
    3: q3_use_after_free,
    4: q4_double_free,
    5: q5_tainted_call_indirect,
    6: q6_tainted_func_to_func,
    7: q7_tainted_local_to_func,
    8: q8_bo_static_buffer,
    9: q9_bo_static_malloc,
    10: q10_bo_loops,
}


def run_all(cpg: g.Cpg, config: ScanConfig,
            enabled: set[int] | None = None) -> list[Finding]:
    """Run the built-in queries; findings concatenate in query-id order."""
    out: list[Finding] = []
    for qid in sorted(QUERIES):
        if enabled is not None and qid not in enabled:
            continue
        out.extend(QUERIES[qid](cpg, config))
    return out
