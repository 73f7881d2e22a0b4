"""CFG construction over instruction nodes.

WebAssembly control flow is structured, so edges are mostly linear. Branch
targets: a block's label jumps forward to its exit node, a loop's label jumps
back to the loop header. `if`/`br_if` fan out with true/false labels and
`br_table` with one labeled edge per case plus a default. Dead code keeps its
nodes but gets no CFG edges, in or out: the walk stops at an instruction no
edge reaches, and a block or loop continues only if its end is reachable.
"""

from __future__ import annotations

from .ast_builder import BuildContext, FunctionLayout
from .errors import GraphError
from .ir import InstructionIR
from . import graph as g

# (node, branch label or None) pairs waiting for their successor
Pending = list[tuple[int, object]]


def _connect(cpg: g.Cpg, pending: Pending, target: int) -> None:
    for node, label in pending:
        props = {} if label is None else {"label": label}
        cpg.add_edge(node, target, g.CFG, props)


class _FuncCfg:
    def __init__(self, ctx: BuildContext, layout: FunctionLayout):
        self.ctx = ctx
        self.cpg = ctx.cpg
        self.layout = layout
        # innermost last: [label, branch target node, targeted by a branch]
        self.stack: list[list] = []

    def resolve(self, label: str) -> int:
        if label == "$__func__":
            return self.layout.exit_node
        for frame in reversed(self.stack):
            if frame[0] == label:
                frame[2] = True
                return frame[1]
        raise GraphError(f"unresolved branch label {label}")

    def walk(self, seq: list[InstructionIR], incoming: Pending) -> Pending:
        cpg = self.cpg
        layout = self.layout
        cur = incoming
        for inst in seq:
            if not cur:
                break   # dead code
            node = layout.inst_node[id(inst)]
            o = inst.opcode
            if o == "block":
                begin = layout.begin_node[id(inst)]
                _connect(cpg, cur, begin)
                frame = [inst.label, node, False]
                self.stack.append(frame)
                body_out = self.walk(inst.body, [(begin, None)])
                self.stack.pop()
                _connect(cpg, body_out, node)
                cur = [(node, None)] if body_out or frame[2] else []
            elif o == "loop":
                _connect(cpg, cur, node)
                end = layout.end_node[id(inst)]
                self.stack.append([inst.label, node, False])
                body_out = self.walk(inst.body, [(node, None)])
                self.stack.pop()
                _connect(cpg, body_out, end)
                cur = [(end, None)] if body_out else []
            elif o == "if":
                _connect(cpg, cur, node)
                then_out = self.walk(inst.body, [(node, True)])
                if inst.has_else:
                    enode = layout.else_node[id(inst)]
                    cpg.add_edge(node, enode, g.CFG, {"label": False})
                    else_out = self.walk(inst.else_body, [(enode, None)])
                    cur = then_out + else_out
                else:
                    cur = then_out + [(node, False)]
            elif o == "br":
                _connect(cpg, cur, node)
                cpg.add_edge(node, self.resolve(inst.label), g.CFG)
                cur = []
            elif o == "br_if":
                _connect(cpg, cur, node)
                cpg.add_edge(node, self.resolve(inst.label), g.CFG, {"label": True})
                cur = [(node, False)]
            elif o == "br_table":
                _connect(cpg, cur, node)
                cases, default = inst.br_targets[:-1], inst.br_targets[-1]
                for i, target in enumerate(cases):
                    cpg.add_edge(node, self.resolve(target), g.CFG, {"label": i})
                cpg.add_edge(node, self.resolve(default), g.CFG,
                             {"label": "default"})
                cur = []
            elif o == "return":
                _connect(cpg, cur, node)
                cpg.add_edge(node, self.layout.exit_node, g.CFG)
                cur = []
            elif o == "unreachable":
                _connect(cpg, cur, node)
                cur = []
            else:
                _connect(cpg, cur, node)
                cur = [(node, None)]
        return cur


def build_cfg(ctx: BuildContext) -> None:
    for layout in ctx.layouts.values():
        if layout.func.is_import:
            continue
        walker = _FuncCfg(ctx, layout)
        leftovers = walker.walk(layout.func.body, [(layout.func_node, None)])
        _connect(ctx.cpg, leftovers, layout.exit_node)
