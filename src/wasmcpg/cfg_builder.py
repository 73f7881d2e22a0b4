"""CFG construction over instruction nodes.

WebAssembly control flow is structured, so edges are mostly linear. Branch
targets: a block's label jumps forward to its exit node, a loop's label jumps
back to the loop header. `if`/`br_if` fan out with true/false labels and
`br_table` with one labeled edge per case plus a default. Dead code keeps its
nodes but gets no CFG edges, in or out: the walk skips from an instruction no
edge reaches to the end of its body, and a block or loop continues only if its
end is reachable.
"""

from __future__ import annotations

from .ast_builder import BuildContext, FunctionLayout
from .errors import GraphError
from .ir import ELSE, ENTER, EXIT, walk
from . import graph as g

# (node, branch label or None) pairs waiting for their successor
Pending = list[tuple[int, object]]


class _CfgRows(list):
    """A build's CFG edge rows, in order, for one `Cpg.add_edges`: one map
    per label, made once and shared: `{}` for None, one per bool arm, one
    per br_table slot and one for "default". A label is keyed with its type,
    since `True == 1` would give an if arm a br_table slot's map."""

    def __init__(self) -> None:
        super().__init__()
        self._maps: dict[tuple[type, object], dict] = {}

    def add(self, node: int, target: int, label: object = None) -> None:
        props = self._maps.get((type(label), label))
        if props is None:
            props = self._maps[type(label), label] = {} if label is None else {"label": label}
        self.append((node, target, g.CFG, props))

    def connect(self, pending: Pending, target: int) -> None:
        for node, label in pending:
            self.add(node, target, label)


def _func_cfg(rows: _CfgRows, layout: FunctionLayout) -> Pending:
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
            rows.connect(cur, entry)
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
                rows.connect(cur, node)
                cur = [(node, None)] if cur or frame[2] else []
            elif o == "loop":
                end = layout.end_node[id(inst)]
                rows.connect(cur, end)
                cur = [(end, None)] if cur else []
            else:
                cur = frame[3] + cur if inst.has_else else cur + [(node, False)]
        else:
            rows.connect(cur, node)
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
            if o in ("br", "br_table", "return", "unreachable"):
                cur = []
    return cur


def build_cfg(ctx: BuildContext) -> None:
    """Add every function's CFG edges, collected in order and written with
    one `Cpg.add_edges`."""
    rows = _CfgRows()
    for layout in ctx.layouts.values():
        if not layout.func.is_import:
            rows.connect(_func_cfg(rows, layout), layout.exit_node)
    ctx.cpg.add_edges(rows)
