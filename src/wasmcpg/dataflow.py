"""Dependency dataflow over the CFG and DDG edge materialization.

Tracks four dependency kinds (constant, function result, global, local) per
abstract state (global store, local store, value stack, open-label list) and
propagates them with a LIFO worklist. Loops are processed modularly: edges
leaving a loop are buffered until no work remains inside it, and a loop header
whose joined input gained nothing is not re-expanded, so stabilized inner
loops are not re-swept by outer iterations.

The transfer pops each node's operands and pushes by its instType. Operand
counts come from `ir.instruction_arity`, the arity the validating walk uses,
taken without label or function context, so a branch or `return` pops only
its own operands (the br_if/br_table index). The values it carries stay on
the abstract stack for the edge fixups below.

Stack/label fixups for block and loop exits are applied when traversing an
edge into the construct's exit node: the frame entry records the base height,
the top `nresults` sets survive, and values abandoned by a branch are dropped.

Linear memory is deliberately untracked: a load pushes the empty set, so a
store followed by a load never induces an edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .ast_builder import BuildContext, FunctionLayout
from .errors import DataflowError
from .ir import InstructionIR, instruction_arity
from . import graph as g
from . import opcodes as op

CONST_DEP = "Const"
FUNCTION_DEP = "Function"
GLOBAL_DEP = "Global"
LOCAL_DEP = "Local"


class Dep(NamedTuple):
    kind: str
    origin: int                      # originating node id
    name: str | None = None          # variable / function name
    value: int | float | None = None  # constant payload
    value_type: str | None = None

    def sort_key(self):
        return (self.origin, self.kind, self.name or "", repr(self.value))


EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class State:
    """(global store, local store, abstract stack, open labels)."""
    globals_: tuple[tuple[str, frozenset], ...] = ()
    locals_: tuple[tuple[str, frozenset], ...] = ()
    stack: tuple[frozenset, ...] = ()
    labels: tuple[tuple[str, int], ...] = ()

    def get_global(self, name: str) -> frozenset:
        return next((v for k, v in self.globals_ if k == name), EMPTY)

    def get_local(self, name: str) -> frozenset:
        return next((v for k, v in self.locals_ if k == name), EMPTY)

    def set_global(self, name: str, deps: frozenset) -> "State":
        return State(_store_set(self.globals_, name, deps), self.locals_,
                     self.stack, self.labels)

    def set_local(self, name: str, deps: frozenset) -> "State":
        return State(self.globals_, _store_set(self.locals_, name, deps),
                     self.stack, self.labels)

    def push(self, deps: frozenset) -> "State":
        return State(self.globals_, self.locals_, self.stack + (deps,), self.labels)

    def pop(self, n: int) -> tuple[list[frozenset], "State"]:
        if n == 0:
            return [], self
        if len(self.stack) < n:
            raise DataflowError(
                f"abstract stack underflow: need {n}, have {len(self.stack)}")
        popped = list(self.stack[len(self.stack) - n:])
        return popped, State(self.globals_, self.locals_,
                             self.stack[:len(self.stack) - n], self.labels)


def _store_set(store: tuple, name: str, deps: frozenset) -> tuple:
    out = tuple((k, v) for k, v in store if k != name)
    if deps:
        out = out + ((name, deps),)
    return tuple(sorted(out))


def join(a: Optional[State], b: State) -> tuple[State, bool]:
    """Pointwise union; returns (joined, grew-relative-to-a)."""
    if a is None:
        return b, True
    if len(a.stack) != len(b.stack):
        raise DataflowError(
            f"join of states with mismatched stack heights "
            f"{len(a.stack)} vs {len(b.stack)}")
    if a.labels != b.labels:
        raise DataflowError("join of states with mismatched label stacks")
    stack = tuple(x | y for x, y in zip(a.stack, b.stack))
    grew = any(len(u) != len(x) for u, x in zip(stack, a.stack))
    ga, grew_g = _join_store(a.globals_, b.globals_)
    la, grew_l = _join_store(a.locals_, b.locals_)
    if not (grew or grew_g or grew_l):
        return a, False
    return State(tuple(sorted((k, v) for k, v in ga.items() if v)),
                 tuple(sorted((k, v) for k, v in la.items() if v)),
                 stack, a.labels), True


def _join_store(a: tuple, b: tuple) -> tuple[dict, bool]:
    merged, grew = dict(a), False
    for k, v in b:
        old = merged.get(k, EMPTY)
        merged[k] = old | v
        grew = grew or len(merged[k]) != len(old)
    return merged, grew


# ---------------------------------------------------------------------------
# Per-node transfer information

EXIT = "Exit"   # tag of the synthetic exit node (its instType, Return, is taken)


@dataclass
class NodeInfo:
    """What the transfer needs about one CFG node. `tag` is the node's
    instType (or EXIT, Else, Function); `nargs` is how many values it pops."""
    tag: str
    nargs: int = 0
    nresults: int = 0
    var: str | None = None
    name: str | None = None
    value: int | float | None = None
    value_type: str | None = None
    label: str | None = None
    params: int = 0                  # BeginBlock: values entering the frame


@dataclass
class FunctionDataflow:
    """Everything the engine needs about one function's nodes."""
    layout: FunctionLayout
    info: dict[int, NodeInfo] = field(default_factory=dict)
    loops_of: dict[int, tuple[int, ...]] = field(default_factory=dict)
    nodes: list[int] = field(default_factory=list)
    phi_static: int = 0
    n_locals: int = 0
    n_globals: int = 0


_ANCHORS = frozenset((op.CONST, op.LOCAL_GET, op.GLOBAL_GET))
_CALLS = frozenset((op.CALL, op.CALL_INDIRECT))


def _prepare(ctx: BuildContext, layout: FunctionLayout) -> FunctionDataflow:
    fd = FunctionDataflow(layout=layout)
    module = ctx.module
    func = layout.func
    fd.n_locals = len(func.params) + len(func.locals)
    fd.n_globals = len(module.globals)
    fd.phi_static = len(func.params)

    def add(node: int, info: NodeInfo, loops: tuple[int, ...]) -> None:
        fd.info[node] = info
        fd.loops_of[node] = loops
        fd.nodes.append(node)

    def visit(seq: Iterable[InstructionIR], loops: tuple[int, ...]) -> None:
        for inst in seq:
            node = layout.inst_node[id(inst)]
            o = inst.opcode
            if o == "block":
                add(node, NodeInfo(op.BLOCK, label=inst.label,
                                   nresults=inst.nresults), loops)
                add(layout.begin_node[id(inst)], NodeInfo(
                    op.BEGIN_BLOCK, label=inst.label, params=inst.block_params), loops)
                visit(inst.body, loops)
            elif o == "loop":
                add(node, NodeInfo(op.LOOP, label=inst.label), loops + (node,))
                visit(inst.body, loops + (node,))
                add(layout.end_node[id(inst)], NodeInfo(
                    op.END_LOOP, label=inst.label, nresults=inst.nresults), loops)
            else:
                tag = op.opcode_inst_type(o)
                nargs, nresults = instruction_arity(inst, module)
                name = inst.callee if o == "call" else \
                    inst.type_use.text() if o == "call_indirect" else None
                add(node, NodeInfo(tag, nargs, nresults, var=inst.var, name=name,
                                   value=inst.value, value_type=inst.value_type), loops)
                if tag in _ANCHORS or (nresults and tag in _CALLS):
                    fd.phi_static += 1
                if o == "if":
                    visit(inst.body, loops)
                    if inst.has_else:
                        add(layout.else_node[id(inst)], NodeInfo(g.ELSE), loops)
                        visit(inst.else_body, loops)

    visit(func.body, ())
    add(layout.exit_node, NodeInfo(EXIT, nresults=func.nresults), ())
    fd.info[layout.func_node] = NodeInfo(g.FUNCTION)
    fd.loops_of[layout.func_node] = ()
    return fd


# ---------------------------------------------------------------------------
# Transfer function

_UNIONS = frozenset((op.BINARY, op.COMPARE, op.UNARY, op.CONVERT, op.SELECT))
_UNTRACKED = frozenset((op.LOAD, op.MEMORY_SIZE, op.MEMORY_GROW))
_FRAME_EXITS = frozenset((op.BLOCK, op.END_LOOP, op.LOOP))


def transfer(node: int, info: NodeInfo, s: State) -> tuple[State, list[frozenset]]:
    """One instruction's effect; returns (out state, popped dependency sets).

    Every node pops its `nargs` operands; what it pushes follows its tag.
    Values a branch carries to its target are not popped: they stay on the
    stack until `adjust_for_edge` applies the target's frame.
    """
    popped, s = s.pop(info.nargs)
    t = info.tag
    if t in _UNIONS:
        # a select's third operand is its condition
        return s.push(popped[0] | popped[1] if len(popped) > 1 else popped[0]), popped
    if t == op.LOCAL_GET:
        dep = Dep(LOCAL_DEP, node, name=info.var)
        return s.push(s.get_local(info.var) | {dep}), popped
    if t == op.CONST:
        dep = Dep(CONST_DEP, node, value=info.value, value_type=info.value_type)
        return s.push(frozenset((dep,))), popped
    if t == op.LOCAL_SET:
        return s.set_local(info.var, popped[0]), popped
    if t == op.LOCAL_TEE:
        return s.set_local(info.var, popped[0]).push(popped[0]), popped
    if t == op.GLOBAL_GET:
        dep = Dep(GLOBAL_DEP, node, name=info.var)
        return s.push(s.get_global(info.var) | {dep}), popped
    if t == op.GLOBAL_SET:
        return s.set_global(info.var, popped[0]), popped
    if t in _UNTRACKED:
        return s.push(EMPTY), popped   # memory contents are untracked
    if t in _CALLS:
        if info.nresults:
            s = s.push(frozenset((Dep(FUNCTION_DEP, node, name=info.name),)))
        return s, popped
    if t == op.BEGIN_BLOCK or t == op.LOOP:
        # frame base sits below any values entering as block parameters
        labels = s.labels + ((info.label, len(s.stack) - info.params),)
        return State(s.globals_, s.locals_, s.stack, labels), popped
    return s, popped


def adjust_for_edge(s: State, target_info: NodeInfo) -> State:
    """Frame fixup when an edge enters a construct exit or a loop header: the
    innermost frame of that label closes, keeping its top `nresults` values."""
    tag = target_info.tag
    if tag in _FRAME_EXITS:
        label = target_info.label
        for i in range(len(s.labels) - 1, -1, -1):
            if s.labels[i][0] == label:
                base, r = s.labels[i][1], target_info.nresults
                stack = s.stack[:base] + (s.stack[len(s.stack) - r:] if r else ())
                return State(s.globals_, s.locals_, stack, s.labels[:i])
        if tag != op.LOOP:
            raise DataflowError(f"label {label!r} not open at a construct exit")
        return s   # loop entry; the frame is not open yet
    if tag == EXIT:
        r = target_info.nresults
        stack = s.stack[len(s.stack) - r:] if r else ()
        return State(s.globals_, s.locals_, stack, ())
    return s


# ---------------------------------------------------------------------------
# Worklist engine

@dataclass
class AnalysisStats:
    pops: int = 0
    growth_revisits: int = 0
    max_stack: int = 0
    phi_static: int = 0
    n_locals: int = 0
    n_globals: int = 0
    transfer_counts: dict[int, int] = field(default_factory=dict)
    cfg_nodes: int = 0

    @property
    def height_bound(self) -> int:
        return (self.n_globals + self.n_locals + self.max_stack) * self.phi_static


@dataclass
class FunctionAnalysis:
    res: dict[int, State]
    stats: AnalysisStats
    fd: FunctionDataflow


def initial_state(fd: FunctionDataflow) -> State:
    seeds = []
    for name, _ty in fd.layout.func.params:
        var_node = fd.layout.param_var_node[name]
        seeds.append((name, frozenset((Dep(LOCAL_DEP, var_node, name=name),))))
    return State(locals_=tuple(sorted(seeds)))


def analyze_function(ctx: BuildContext, func_name: str) -> FunctionAnalysis:
    """LIFO worklist with loop-exit buffering; res maps nodes to joined inputs."""
    layout = ctx.layouts[func_name]
    fd = _prepare(ctx, layout)
    cpg = ctx.cpg
    stats = AnalysisStats(phi_static=fd.phi_static, n_locals=fd.n_locals,
                          n_globals=fd.n_globals, cfg_nodes=len(fd.nodes))
    res: dict[int, State] = {}
    if layout.func.is_import:
        return FunctionAnalysis(res, stats, fd)

    entry_edges = cpg.out_edges(layout.func_node, g.CFG)
    if not entry_edges:
        return FunctionAnalysis(res, stats, fd)
    entry = entry_edges[0].dst

    worklist: list[tuple[int, State]] = []
    pending_in_loop: dict[int, int] = {}
    exit_buffer: dict[int, list[tuple[int, State]]] = {}

    def push(node: int, state: State) -> None:
        worklist.append((node, state))
        for loop in fd.loops_of.get(node, ()):
            pending_in_loop[loop] = pending_in_loop.get(loop, 0) + 1

    def propagate(src: int, out: State) -> None:
        src_loops = fd.loops_of.get(src, ())
        for edge in cpg.out_edges(src, g.CFG):
            succ = edge.dst
            adjusted = adjust_for_edge(out, fd.info[succ])
            succ_loops = fd.loops_of.get(succ, ())
            left = [l for l in src_loops if l not in succ_loops]
            if left:
                outermost = min(left)
                exit_buffer.setdefault(outermost, []).append((succ, adjusted))
            else:
                push(succ, adjusted)

    def flush_ready(candidates: tuple[int, ...]) -> None:
        # innermost first; flushing only ever re-opens enclosing loops, so the
        # candidate set never grows beyond the popped node's own loop nest
        for loop in sorted(candidates, reverse=True):
            if pending_in_loop.get(loop, 0) == 0 and exit_buffer.get(loop):
                for node, state in exit_buffer.pop(loop):
                    push(node, state)

    push(entry, initial_state(fd))
    while worklist:
        node, incoming = worklist.pop()
        stats.pops += 1
        node_loops = fd.loops_of.get(node, ())
        for loop in node_loops:
            pending_in_loop[loop] -= 1
        seen = node in res
        joined, grew = join(res.get(node), incoming)
        if seen and not grew:
            flush_ready(node_loops)
            continue
        if seen:
            stats.growth_revisits += 1
        res[node] = joined
        stats.max_stack = max(stats.max_stack, len(joined.stack))
        out, _ = transfer(node, fd.info[node], joined)
        stats.max_stack = max(stats.max_stack, len(out.stack))
        stats.transfer_counts[node] = stats.transfer_counts.get(node, 0) + 1
        propagate(node, out)
        flush_ready(node_loops)
    if any(exit_buffer.values()):
        raise DataflowError("loop exit buffer not drained")
    return FunctionAnalysis(res, stats, fd)


def emit_ddg_edges(ctx: BuildContext, analysis: FunctionAnalysis) -> int:
    """Add one DDG edge per (origin, consumer), consumers in id order.

    An origin node yields the same `Dep` wherever its value flows, so a
    consumer's popped sets name each origin once, and all edges from one
    origin share one property map.
    """
    info = analysis.fd.info
    props_of: dict[Dep, dict] = {}

    def rows():
        for node in sorted(analysis.res):
            _, popped = transfer(node, info[node], analysis.res[node])
            for dep in sorted(EMPTY.union(*popped), key=Dep.sort_key):
                props = props_of.get(dep)
                if props is None:
                    props = props_of[dep] = _ddg_props(dep)
                yield dep.origin, node, props

    return ctx.cpg.add_ddg_edges(rows())


def _ddg_props(dep: Dep) -> dict:
    if dep.kind == CONST_DEP:
        return {"ddgType": dep.kind, "label": dep.value,
                "valueType": dep.value_type, "value": dep.value}
    return {"ddgType": dep.kind, "label": dep.name}


def build_ddg(ctx: BuildContext) -> dict[str, AnalysisStats]:
    stats: dict[str, AnalysisStats] = {}
    for func in ctx.module.functions:
        analysis = analyze_function(ctx, func.name)
        emit_ddg_edges(ctx, analysis)
        stats[func.name] = analysis.stats
    return stats
