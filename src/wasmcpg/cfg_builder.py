"""CFG construction over instruction nodes.

WebAssembly control flow is structured, so edges are mostly linear. Branch
targets: a block's label jumps forward to its exit node, a loop's label jumps
back to the loop header. `if`/`br_if` fan out with true/false labels and
`br_table` with one labeled edge per case plus a default. Dead code keeps its
nodes but gets no CFG edges, in or out: the walk skips from an instruction no
edge reaches (one after an `opcodes.ENDS_REACH` opcode) to the end of its
body, and a block or loop continues only if its end is reachable. Edge maps
come from one `graph.EdgeRows`: `{}` for an unlabeled edge, one map per bool
arm, per br_table slot and for "default".
"""

from __future__ import annotations

from .ast_builder import BuildContext, FunctionLayout
from .errors import GraphError
from .ir import ELSE, ENTER, EXIT, walk
from . import graph as g
from . import opcodes as op

# (node, branch label or None) pairs waiting for their successor
Pending = list[tuple[int, object]]


def _connect(rows: g.EdgeRows, pending: Pending, target: int) -> None:
    for node, label in pending:
        rows.add(node, target, label)


def _func_cfg(rows: g.EdgeRows, layout: FunctionLayout) -> Pending:
    """Add one function's CFG edge rows; returns what flows into its exit node."""
    # innermost last: [label, branch target node, targeted by a branch,
    # then-body exits]; an if is no branch target, so its label is None
    frames: list[list] = []

    def resolve(label: str) -> int:
        if label == "$__func__":
            return layout.exit_node
        for frame in reversed(frames):
            if frame[0] == label:
                frame[2] = True
                return frame[1]
        raise GraphError(f"unresolved branch label {label}")

    cur: Pending = [(layout.func_node, None)]
    skip = 0   # open constructs inside the dead code being skipped
    for inst, ev in walk(layout.func.body):
        o = inst.opcode
        if ev == ELSE or ev == EXIT:
            if skip:
                if ev == EXIT:
                    skip -= 1
                continue
        elif skip or not cur:   # dead code: skip to the end of its body
            if ev == ENTER:
                skip += 1
            continue
        node = layout.inst_node[id(inst)]
        if ev == ENTER:
            # a block is entered at its BeginBlock, a loop or an if at itself
            entry = layout.begin_node[id(inst)] if o == "block" else node
            _connect(rows, cur, entry)
            frames.append([None if o == "if" else inst.label, node, False, None])
            cur = [(entry, True if o == "if" else None)]
        elif ev == ELSE:
            frames[-1][3] = cur
            enode = layout.else_node[id(inst)]
            rows.add(node, enode, False)
            cur = [(enode, None)]
        elif ev == EXIT:
            frame = frames.pop()
            if o == "block":
                _connect(rows, cur, node)
                cur = [(node, None)] if cur or frame[2] else []
            elif o == "loop":
                end = layout.end_node[id(inst)]
                _connect(rows, cur, end)
                cur = [(end, None)] if cur else []
            else:
                cur = frame[3] + cur if inst.has_else else cur + [(node, False)]
        else:
            _connect(rows, cur, node)
            cur = [(node, None)]
            if o == "br_if":
                rows.add(node, resolve(inst.label), True)
                cur = [(node, False)]
            elif o == "br":
                rows.add(node, resolve(inst.label))
            elif o == "br_table":
                last = len(inst.br_targets) - 1
                for i, target in enumerate(inst.br_targets):
                    rows.add(node, resolve(target), "default" if i == last else i)
            elif o == "return":
                rows.add(node, layout.exit_node)
            if o in op.ENDS_REACH:
                cur = []
    return cur


def build_cfg(ctx: BuildContext) -> None:
    """Add every function's CFG edges, collected in order in an `EdgeRows`
    and written with one `Cpg.add_edges`."""
    rows = g.EdgeRows(g.CFG, "label")
    for layout in ctx.layouts.values():
        if not layout.func.is_import:
            _connect(rows, _func_cfg(rows, layout), layout.exit_node)
    ctx.cpg.add_edges(rows)
