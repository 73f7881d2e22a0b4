"""AST construction: module/function hierarchy plus operand-tree folding.

The folding is the validating stack walk of `ir.validate_function`, run with
a hook that adds AST edges: an instruction's operands are the producers it
pops (childIndex 0 is the deepest operand); instructions producing no value
are rooted statements. Each construct's children are its condition (an
`if`), then its body's statements and leftover values, bracketed by the
BeginBlock/EndLoop/Else nodes. A function's statements hang off its node and
its leftover values off the synthetic exit node. The edge rows go through one
`graph.EdgeRows`; each node's instType comes from `opcodes.INST_TYPE`.

Node ids follow source order inside each function (Module, then per function:
Function node, body instructions, synthetic exit, signature subtree), which
the dependency notation of the DDG relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import ELSE, ENTER, PLAIN, FunctionIR, InstructionIR, ModuleIR, \
    validate_function, walk
from . import graph as g
from . import opcodes as op


@dataclass
class FunctionLayout:
    """Node bookkeeping one function's CFG/DDG builders need."""
    func: FunctionIR
    func_node: int
    exit_node: int | None = None
    inst_node: dict[int, int] = field(default_factory=dict)       # id(inst) -> node
    begin_node: dict[int, int] = field(default_factory=dict)      # id(block inst) -> BeginBlock
    end_node: dict[int, int] = field(default_factory=dict)        # id(loop inst) -> EndLoop
    else_node: dict[int, int] = field(default_factory=dict)       # id(if inst) -> Else
    param_var_node: dict[str, int] = field(default_factory=dict)  # param name -> VarNode


@dataclass
class BuildContext:
    module: ModuleIR
    cpg: g.Cpg
    module_node: int = -1
    layouts: dict[str, FunctionLayout] = field(default_factory=dict)


def _instruction_props(inst: InstructionIR, inst_type: str | None = None) -> dict:
    """The map of `inst`'s node, or of the BeginBlock/EndLoop `inst_type` it brings."""
    t = inst_type or op.INST_TYPE[inst.opcode]
    props: dict = {"instType": t}
    if t == op.CONST:
        props["valueType"] = inst.value_type
        props["value"] = inst.value
    elif t in (op.BINARY, op.COMPARE, op.UNARY, op.CONVERT):
        props["opcode"] = inst.opcode
    elif t in (op.LOAD, op.STORE):
        props["offset"] = inst.offset
    elif t in (op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE, op.GLOBAL_GET, op.GLOBAL_SET):
        props["label"] = inst.var
    elif t == op.CALL:
        props["label"] = inst.callee
    elif t in (op.BR, op.BR_IF, op.BEGIN_BLOCK):
        props["label"] = inst.label
    elif t in (op.BLOCK, op.LOOP, op.END_LOOP):
        props["label"] = inst.label
        props["nresults"] = inst.nresults
    elif t == op.IF:
        props["label"] = inst.label
        props["hasElse"] = inst.has_else
    return props


def _create_nodes(ctx: BuildContext, layout: FunctionLayout,
                  seq: list[InstructionIR]) -> None:
    cpg = ctx.cpg
    for inst, ev in walk(seq):
        if ev == PLAIN or ev == ENTER:
            layout.inst_node[id(inst)] = cpg.add_node(
                g.INSTRUCTION, _instruction_props(inst))
            if inst.opcode == "block":
                layout.begin_node[id(inst)] = cpg.add_node(
                    g.INSTRUCTION, _instruction_props(inst, op.BEGIN_BLOCK))
        elif ev == ELSE:
            layout.else_node[id(inst)] = cpg.add_node(g.ELSE)
        elif inst.opcode == "loop":
            layout.end_node[id(inst)] = cpg.add_node(
                g.INSTRUCTION, _instruction_props(inst, op.END_LOOP))


def _ast_hook(rows: g.EdgeRows, layout: FunctionLayout):
    """The hook that turns the validating walk's folds into AST edge rows.

    Children are numbered by `childIndex` in walk order; `None` producers
    (entry values of a dead construct) get no edge.
    """
    inst_node = layout.inst_node
    add = rows.add
    then_count: dict[int, int] = {}   # if node -> condition + then children

    def wire(parent: int, kids, start: int = 0) -> int:
        for kid in kids:
            if kid is not None:
                add(parent, inst_node[id(kid)], start)
                start += 1
        return start

    def hook(owner, body, rooted, values) -> None:
        if body is None:   # an instruction's operands
            wire(inst_node[id(owner)], rooted)
            return
        if owner is layout.func:
            # statements hang off the function; leftover values are the
            # return expression, under the exit node
            idx = wire(layout.func_node, rooted, 1)
            wire(layout.exit_node, values)
            add(layout.func_node, layout.exit_node, idx)
            return
        node = inst_node[id(owner)]
        o = owner.opcode
        if o == "block":
            add(node, layout.begin_node[id(owner)], 0)
            wire(node, rooted + values, 1)
        elif o == "loop":
            idx = wire(node, rooted + values)
            add(node, layout.end_node[id(owner)], idx)
        elif body is owner.body:
            then_count[node] = wire(node, rooted + values)
        else:
            enode = layout.else_node[id(owner)]
            wire(enode, rooted + values)
            add(node, enode, then_count[node])

    return hook


def _build_signature(ctx: BuildContext, layout: FunctionLayout, rows: g.EdgeRows) -> int:
    cpg = ctx.cpg
    func = layout.func
    sig = cpg.add_node(g.FUNCTION_SIGNATURE)
    results = [(f"$r{i}", ty) for i, ty in enumerate(func.results)]
    for index, (kind, pairs) in enumerate(((g.PARAMETERS, func.params),
                                           (g.LOCALS, func.locals),
                                           (g.RESULTS, results))):
        group = cpg.add_node(kind)
        rows.add(sig, group, index)
        for i, (name, ty) in enumerate(pairs):
            var = cpg.add_node(g.VAR_NODE, {"name": name, "varType": ty})
            if kind == g.PARAMETERS:
                layout.param_var_node[name] = var
            rows.add(group, var, i)
    return sig


def build_ast(module: ModuleIR) -> BuildContext:
    """Create all nodes and the AST edge set for a parsed module: the edges
    are collected in order in an `EdgeRows`, one `{"childIndex": k}` map
    per k, and written with one `Cpg.add_edges`."""
    cpg = g.Cpg()
    ctx = BuildContext(module=module, cpg=cpg)
    ctx.module_node = cpg.add_node(g.MODULE, {"name": module.name})
    rows = g.EdgeRows(g.AST, "childIndex")

    for func in module.functions:
        fn_node = cpg.add_node(g.FUNCTION, {
            "name": func.name,
            "index": func.index,
            "nargs": func.nargs,
            "nlocals": len(func.locals),
            "nresults": func.nresults,
            "isImport": func.is_import,
            "isExport": func.is_export,
        })
        rows.add(ctx.module_node, fn_node, func.index)
        layout = FunctionLayout(func=func, func_node=fn_node)
        ctx.layouts[func.name] = layout

        if not func.is_import:
            _create_nodes(ctx, layout, func.body)
            layout.exit_node = cpg.add_node(g.INSTRUCTION, {"instType": "Return"})

        sig = _build_signature(ctx, layout, rows)
        rows.add(fn_node, sig, 0)

        if not func.is_import:
            validate_function(func, module, _ast_hook(rows, layout))
    cpg.add_edges(rows)
    return ctx
