"""Dependency dataflow over the CFG and DDG edge materialization.

Tracks four dependency kinds (constant, function result, global, local) per
abstract state (global store, local store, value stack). A store holds one
dependency set per slot: a local's slot is its index among params then
locals, a global's its index in the module. `_prepare` resolves each
`local.*`/`global.*` node's slot once, so a read is a tuple index, and builds
each origin's dependency once (`deps`, read by the transfer and the emitter).
The fixpoint is Bourdoncle's (1993) recursive iteration over a weak topological
order, which structured control flow gives for free: program order, with each
loop a nested component (header, then body) iterated while its header's input
grows. An inner loop whose input is unchanged is not re-swept by outer loops.

The transfer pops each node's operands and pushes by its instType. Operand
counts come from `ir.instruction_arity`, the arity the validating walk uses,
taken without label or function context, so a branch or `return` pops only
its own operands (the br_if/br_table index). The values it carries stay on
the abstract stack for the edge fixups below.

Frame bases are static: in validated code the stack height at each point is
fixed, so `_prepare` records each frame's base height once. An edge into a
construct exit, a loop header or the function exit keeps the values below
the target's base and its top `nresults` sets, dropping values a branch
abandoned.

Edges come from the sets each node popped on its last visit: one row per
consumer, in id order, of its origins, ascending, written by
`graph.Cpg.add_ddg_rows`.

Linear memory is deliberately untracked: a load pushes the empty set, so a
store followed by a load never induces an edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Optional

from .ast_builder import BuildContext, FunctionLayout
from .errors import DataflowError
from .ir import ELSE as ELSE_EV, ENTER as ENTER_EV, EXIT as EXIT_EV, \
    instruction_arity, walk
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


EMPTY: frozenset = frozenset()
_ORIGIN = itemgetter(1)   # Dep.origin: an origin fixes its Dep, so it sorts them


@dataclass(frozen=True)
class State:
    """(global store, local store, abstract stack); a store is one
    dependency set per slot."""
    globals_: tuple[frozenset, ...] = ()
    locals_: tuple[frozenset, ...] = ()
    stack: tuple[frozenset, ...] = ()

    def push(self, deps: frozenset) -> "State":
        return State(self.globals_, self.locals_, self.stack + (deps,))

    def pop(self, n: int) -> tuple[list[frozenset], "State"]:
        if n == 0:
            return [], self
        if len(self.stack) < n:
            raise DataflowError(
                f"abstract stack underflow: need {n}, have {len(self.stack)}")
        popped = list(self.stack[len(self.stack) - n:])
        return popped, State(self.globals_, self.locals_,
                             self.stack[:len(self.stack) - n])


def join(a: Optional[State], b: State) -> tuple[State, bool]:
    """Pointwise union; returns (joined, grew-relative-to-a). Allocates only
    on growth and shares what it can: `a` itself if no slot grew, else a
    state that keeps `a`'s store tuples and sets wherever `b` adds nothing."""
    if a is None:
        return b, True
    if len(a.stack) != len(b.stack):
        raise DataflowError(
            f"join of states with mismatched stack heights "
            f"{len(a.stack)} vs {len(b.stack)}")
    gs, ls, ss = (_join_slots(a.globals_, b.globals_),
                  _join_slots(a.locals_, b.locals_), _join_slots(a.stack, b.stack))
    if gs is a.globals_ and ls is a.locals_ and ss is a.stack:
        return a, False
    return State(gs, ls, ss), True


def _join_slots(xs: tuple, ys: tuple) -> tuple:
    """`xs` itself unless some set of `ys` adds to its slot. A slot that
    does not grow keeps `xs`'s set, one that `ys` covers takes `ys`'s, and
    only the rest are unions."""
    if ys is not xs:
        for i, (x, y) in enumerate(zip(xs, ys)):
            if y is not x and not y <= x:
                return xs[:i] + tuple(x if y is x or y <= x else y if x <= y else x | y
                                      for x, y in zip(xs[i:], ys[i:]))
    return xs


# ---------------------------------------------------------------------------
# Per-node transfer information

EXIT = "Exit"   # tag of the synthetic exit node (its instType, Return, is taken)


@dataclass
class NodeInfo:
    """What the transfer needs about one CFG node. `tag` is the node's
    instType (or EXIT, Else); `nargs` is how many values it pops; `slot`
    is a `local.*`/`global.*` variable's index in its store; `own` is an
    origin's own dependency; `base` is the static stack height below the
    frame a construct exit, loop header or the function exit closes."""
    tag: str
    nargs: int = 0
    nresults: int = 0
    slot: int | None = None
    own: frozenset = EMPTY
    base: int | None = None


@dataclass
class FunctionDataflow:
    """Everything the engine needs about one function's nodes."""
    layout: FunctionLayout
    info: dict[int, NodeInfo] = field(default_factory=dict)
    nodes: list[int] = field(default_factory=list)
    # weak topological order: node ids and (loop header, body order) pairs
    order: list = field(default_factory=list)
    phi_static: int = 0
    n_locals: int = 0
    n_globals: int = 0
    # origin -> its Dep: a parameter's initial one, or an instruction's own
    deps: dict[int, Dep] = field(default_factory=dict)


_ORIGINS = {op.CONST: CONST_DEP, op.LOCAL_GET: LOCAL_DEP, op.GLOBAL_GET: GLOBAL_DEP,
            op.CALL: FUNCTION_DEP, op.CALL_INDIRECT: FUNCTION_DEP}


def _prepare(ctx: BuildContext, layout: FunctionLayout) -> FunctionDataflow:
    fd = FunctionDataflow(layout=layout)
    func = layout.func
    for name, _ty in func.params:
        var = layout.param_var_node[name]
        fd.deps[var] = Dep(LOCAL_DEP, var, name=name)
    if func.is_import:
        return fd
    module = ctx.module
    fd.n_locals = len(func.params) + len(func.locals)
    fd.n_globals = len(module.globals)
    fd.phi_static = len(func.params)
    # locals and globals are separate namespaces: one name->slot map each
    slots = {"local": {name: i for i, (name, _) in enumerate(func.params + func.locals)},
             "global": {gl.name: i for i, gl in enumerate(module.globals)}}
    order = fd.order   # a loop's body order nests under its header
    enclosing: list[list] = []   # the orders open loops interrupt, innermost last
    height = 0      # the static stack height; dead code leaves it unread
    bases: list[int] = []   # open frames' base heights, innermost last
    for inst, ev in walk(func.body):
        node = layout.inst_node[id(inst)]
        o = inst.opcode
        if ev == ENTER_EV:
            if o == "if":
                height -= 1   # an if pops its condition
            bases.append(height - inst.block_params)
        elif ev == ELSE_EV:
            height = bases[-1]
        elif ev == EXIT_EV:
            base = bases.pop()
            height = base + inst.nresults
        if o == "block":
            if ev == ENTER_EV:
                _add(fd, node, NodeInfo(op.BLOCK, nresults=inst.nresults, base=bases[-1]))
                order.append(_add(fd, layout.begin_node[id(inst)], NodeInfo(op.BEGIN_BLOCK)))
            else:
                order.append(node)
        elif o == "loop":
            if ev == ENTER_EV:
                _add(fd, node, NodeInfo(op.LOOP, base=bases[-1]))
                enclosing.append(order)
                order = []
            else:
                body, order = order, enclosing.pop()
                order.append((node, body))
                order.append(_add(fd, layout.end_node[id(inst)], NodeInfo(
                    op.END_LOOP, nresults=inst.nresults, base=base)))
        elif ev == ELSE_EV:
            order.append(_add(fd, layout.else_node[id(inst)], NodeInfo(g.ELSE)))
        elif ev != EXIT_EV:   # a plain instruction or an if
            tag = op.opcode_inst_type(o)
            nargs, nresults = instruction_arity(inst, module)
            if ev != ENTER_EV:
                height += nresults - nargs
            slot = None if inst.var is None else slots[o.partition(".")[0]][inst.var]
            kind, own = _ORIGINS.get(tag), EMPTY
            if kind and nresults:   # a call without results is no origin
                name = inst.callee if o == "call" else \
                    inst.type_use.text() if o == "call_indirect" else inst.var
                fd.deps[node] = Dep(kind, node, name, inst.value, inst.value_type)
                own = frozenset((fd.deps[node],))
                fd.phi_static += 1
            order.append(_add(fd, node, NodeInfo(tag, nargs, nresults, slot, own)))
    fd.order.append(_add(fd, layout.exit_node, NodeInfo(EXIT, nresults=func.nresults, base=0)))
    return fd


def _add(fd: FunctionDataflow, node: int, info: NodeInfo) -> int:
    fd.info[node] = info
    fd.nodes.append(node)
    return node


# ---------------------------------------------------------------------------
# Transfer function

_UNIONS = frozenset((op.BINARY, op.COMPARE, op.UNARY, op.CONVERT, op.SELECT))
_UNTRACKED = frozenset((op.LOAD, op.MEMORY_SIZE, op.MEMORY_GROW))


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
        return s.push(s.locals_[info.slot] | info.own), popped
    if t == op.GLOBAL_GET:
        return s.push(s.globals_[info.slot] | info.own), popped
    if t == op.LOCAL_SET or t == op.LOCAL_TEE:
        i, deps = info.slot, popped[0]
        s = State(s.globals_, s.locals_[:i] + (deps,) + s.locals_[i + 1:],
                  s.stack + (deps,) if t == op.LOCAL_TEE else s.stack)
        return s, popped
    if t == op.GLOBAL_SET:
        i = info.slot
        return State(s.globals_[:i] + (popped[0],) + s.globals_[i + 1:], s.locals_,
                     s.stack), popped
    if info.own or t in _UNTRACKED:   # a constant or a call result; memory is untracked
        return s.push(info.own), popped
    return s, popped


def adjust_for_edge(s: State, target_info: NodeInfo) -> State:
    """Frame fixup on an edge into a construct exit, a loop header or the
    function exit: keep the values below the target's base and the top
    `nresults` values, dropping those a branch abandoned."""
    base, r = target_info.base, target_info.nresults
    if base is None or len(s.stack) == base + r:
        return s
    return State(s.globals_, s.locals_, s.stack[:base] + s.stack[len(s.stack) - r:])


# ---------------------------------------------------------------------------
# Fixpoint engine

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
    # the dependency sets each node popped on its last visit, from res[node]
    popped: dict[int, list[frozenset]] = field(default_factory=dict)


def initial_state(fd: FunctionDataflow) -> State:
    layout = fd.layout
    params = tuple(frozenset((fd.deps[layout.param_var_node[name]],))
                   for name, _ty in layout.func.params)
    return State((EMPTY,) * fd.n_globals,
                 params + (EMPTY,) * (fd.n_locals - len(params)))


def analyze_function(ctx: BuildContext, func_name: str) -> FunctionAnalysis:
    """Recursive iteration over `fd.order`; res maps nodes to joined inputs.

    A node's inbox joins the adjusted states sent to it; the node is dirty
    when its inbox grew. Firing it transfers the inbox and sends the result
    along its CFG out-edges. A pass fires dirty nodes in order and repeats a
    loop component while its header is dirty. Every CFG edge goes forward in
    the order or back to an enclosing loop header, so no node stays dirty.
    """
    layout = ctx.layouts[func_name]
    fd = _prepare(ctx, layout)
    cpg, info = ctx.cpg, fd.info
    stats = AnalysisStats(phi_static=fd.phi_static, n_locals=fd.n_locals,
                          n_globals=fd.n_globals, cfg_nodes=len(fd.nodes))
    analysis = FunctionAnalysis({}, stats, fd)
    res, popped = analysis.res, analysis.popped
    entry_edges = cpg.out_edges(layout.func_node, g.CFG)
    if not entry_edges:
        return analysis
    inbox = {entry_edges[0].dst: initial_state(fd)}
    dirty = set(inbox)

    def fire(node: int) -> None:
        dirty.discard(node)
        if node in res:
            stats.growth_revisits += 1
        s = res[node] = inbox[node]
        out, popped[node] = transfer(node, info[node], s)
        stats.pops += 1
        stats.max_stack = max(stats.max_stack, len(s.stack), len(out.stack))
        stats.transfer_counts[node] = stats.transfer_counts.get(node, 0) + 1
        for edge in cpg.out_edges(node, g.CFG):
            succ = edge.dst
            joined, grew = join(inbox.get(succ), adjust_for_edge(out, info[succ]))
            if grew:
                inbox[succ] = joined
                dirty.add(succ)

    _run(fd.order, dirty, fire)
    return analysis


def _run(order: list, dirty: set, fire) -> None:
    """Fire the dirty nodes of `order`; repeat a loop while its header is dirty."""
    # innermost last: (loop header or None, its body, iterator over the body)
    stack = [(None, order, iter(order))]
    while stack:
        header, body, items = stack[-1]
        for item in items:
            if type(item) is tuple:
                if item[0] in dirty:
                    fire(item[0])
                    stack.append((item[0], item[1], iter(item[1])))
                    break
            elif item in dirty:
                fire(item)
        else:
            if header in dirty:
                fire(header)
                stack[-1] = (header, body, iter(body))
            else:
                stack.pop()


def emit_ddg_edges(ctx: BuildContext, analysis: FunctionAnalysis) -> int:
    """Add one DDG edge per (origin, consumer): one row per consumer, in id
    order, of its origins, ascending; returns the count.

    An origin node yields the same `Dep` wherever its value flows, so a
    consumer's popped sets name each origin once, and all edges from one
    origin share one property map.
    """
    popped, deps = analysis.popped, analysis.fd.deps
    rows = ((node, sorted(map(_ORIGIN, EMPTY.union(*popped[node]))))
            for node in sorted(popped))
    return ctx.cpg.add_ddg_rows(rows, lambda origin: _ddg_props(deps[origin]))


def _ddg_props(dep: Dep) -> dict:
    if dep.kind == CONST_DEP:
        return {"ddgType": dep.kind, "label": dep.value,
                "valueType": dep.value_type, "value": dep.value}
    return {"ddgType": dep.kind, "label": dep.name}
