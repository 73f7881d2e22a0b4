"""Dependency dataflow over the CFG and DDG edge materialization.

Tracks four dependency kinds (constant, function result, global, local) per
abstract state (global store, local store, value stack). A dependency set is
an `int` bitset over the function's origins, the instructions a dependency
starts at and the parameters, which `_prepare` numbers in node-id order:
bit k is the k-th origin, and `fd.deps` maps the origins to their `Dep`s in
bit order. So a join is `|` and growth is `!=` (Kildall's bit-vector
framework). A store holds one set per slot, a local's index among params
then locals or a global's in the module, resolved once per node.

The fixpoint is Bourdoncle's (1993) recursive iteration over a weak topological
order, which structured control flow gives for free: program order, with each
loop a nested component (header, then body) iterated while its header's input
grows. An inner loop whose input is unchanged is not re-swept by outer loops.
Kildall (1973) needs a join only where paths merge: a node with two or more CFG
predecessors, the entry's Function node among them. Any other node's inbox is
the state its one predecessor last sent, which holds every earlier one, since
that inbox only grows and the transfer is monotone; one `!=` finds growth.

The transfer pops each node's operands, by `ir.instruction_arity` without
label or function context, and pushes by its instType: a branch or `return`
pops only its own operands, and the values it carries stay on the stack.
Stack heights are static in validated code, so `_prepare` records each
frame's base once; an edge into a construct exit, a loop header or the
function exit keeps the values below the target's base and its top
`nresults` sets, dropping values a branch abandoned.

Edges come from the bits each node popped on its last visit: their union is
one row per consumer, in id order, which `graph.Cpg.add_ddg_rows` writes as
an edge from each origin whose bit is set, ascending. It sends each origin's
first edge, a bit of `bits & ~seen`, through `add_edge`, decodes the rest at
C level, and decodes a bitset that several rows hold once, copying the
first such row for the others. The pipeline drops the inboxes before
emission, which needs only the popped bits. Linear memory is deliberately
untracked: a load pushes the empty set, so a store then a load makes no edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_
from typing import NamedTuple

from .ast_builder import BuildContext, FunctionLayout
from .errors import DataflowError
from .ir import ELSE as ELSE_EV, ENTER as ENTER_EV, PLAIN as PLAIN_EV, \
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


EMPTY = 0   # the empty dependency set


class State(NamedTuple):
    """(global store, local store, abstract stack); a store is one
    dependency bitset per slot."""
    globals_: tuple[int, ...] = ()
    locals_: tuple[int, ...] = ()
    stack: tuple[int, ...] = ()


def join(a: State | None, b: State) -> tuple[State, bool]:
    """Pointwise union; returns (joined, grew-relative-to-a). Allocates only
    on growth and shares what it can: `a` itself if no slot grew, else a
    state that keeps `a`'s store tuples and sets wherever `b` adds nothing."""
    if a is None:
        return b, True
    if len(a.stack) != len(b.stack):
        raise DataflowError(f"join of states with mismatched stack heights "
                            f"{len(a.stack)} vs {len(b.stack)}")
    gs, ls, ss = (_join_slots(a.globals_, b.globals_),
                  _join_slots(a.locals_, b.locals_), _join_slots(a.stack, b.stack))
    if gs is a.globals_ and ls is a.locals_ and ss is a.stack:
        return a, False
    return State(gs, ls, ss), True


def _join_slots(xs: tuple, ys: tuple) -> tuple:
    """`xs` itself unless some set of `ys` adds to its slot, tested at C
    level. A slot that does not grow keeps `xs`'s set, one that `ys` covers
    takes `ys`'s, and only the rest are unions."""
    if ys is xs or (us := tuple(map(or_, xs, ys))) == xs:
        return xs
    return tuple(x if u == x else y if u == y else u for x, y, u in zip(xs, ys, us))


def deps_of(fd, bits: int) -> list[Dep]:
    """The `Dep`s of a bitset, ascending by origin. `fd` is a
    `FunctionDataflow` or one of its `NodeInfo`s: both hold `deps`."""
    return list(compress(fd.deps.values(), g.bit_flags(bits)))


EXIT = "Exit"   # tag of the synthetic exit node (its instType, Return, is taken)


@dataclass(slots=True)
class NodeInfo:
    """What the transfer needs about one CFG node. `tag` is the node's
    instType (or EXIT, Else); `nargs` is how many values it pops; `slot`
    is a `local.*`/`global.*` variable's index in its store; `own` is an
    origin's own bit; `base` is the static stack height below the frame a
    construct exit, loop header or the function exit closes."""
    tag: str
    nargs: int = 0
    nresults: int = 0
    slot: int | None = None
    own: int = EMPTY
    base: int | None = None
    deps: dict | None = field(default=None, repr=False, compare=False)   # fd.deps


@dataclass
class FunctionDataflow:
    """Everything the engine needs about one function's nodes."""
    layout: FunctionLayout
    info: dict[int, NodeInfo] = field(default_factory=dict)
    nodes: list[int] = field(default_factory=list)
    order: list = field(default_factory=list)   # ids and (loop header, body) pairs
    n_locals: int = 0
    n_globals: int = 0
    max_height: int = 0   # the highest static stack height
    deps: dict[int, Dep] = field(default_factory=dict)   # origin -> Dep, in bit order


_ORIGINS = {op.CONST: CONST_DEP, op.LOCAL_GET: LOCAL_DEP, op.GLOBAL_GET: GLOBAL_DEP,
            op.CALL: FUNCTION_DEP, op.CALL_INDIRECT: FUNCTION_DEP}


def _prepare(ctx: BuildContext, layout: FunctionLayout) -> FunctionDataflow:
    fd = FunctionDataflow(layout=layout)
    func = layout.func
    if func.is_import:
        return fd
    module, deps, info = ctx.module, fd.deps, fd.info
    fd.n_locals, fd.n_globals = len(func.params) + len(func.locals), len(module.globals)
    # locals and globals are separate namespaces: one name->slot map each
    slots = {"local": {name: i for i, (name, _) in enumerate(func.params + func.locals)},
             "global": {gl.name: i for i, gl in enumerate(module.globals)}}
    order = fd.order   # a loop's body order nests under its header
    enclosing: list[list] = []   # the orders open loops interrupt, innermost last
    height = 0      # the static stack height; dead code leaves it unread
    bases: list[int] = []   # open frames' base heights, innermost last
    for inst, ev in walk(func.body):
        node, o = layout.inst_node[id(inst)], inst.opcode
        if ev == PLAIN_EV:
            tag, nargs, nresults = op.SIMPLE_OPCODES.get(o) or (
                op.INST_TYPE[o], *instruction_arity(inst, module))
            height += nresults - nargs
            slot = None if inst.var is None else slots[o.partition(".")[0]][inst.var]
            kind, own = _ORIGINS.get(tag), EMPTY
            if kind and nresults:   # a call without results is no origin
                name = inst.callee if o == "call" else \
                    inst.type_use.text() if o == "call_indirect" else inst.var
                own = 1 << len(deps)
                deps[node] = Dep(kind, node, name, inst.value, inst.value_type)
            info[node] = NodeInfo(tag, nargs, nresults, slot, own, deps=deps)
            order.append(node)
        elif ev == ENTER_EV:
            if o == "if":
                height -= 1   # an if pops its condition
            bases.append(height - inst.block_params)
            if o == "loop":
                info[node] = NodeInfo(op.LOOP, base=bases[-1], deps=deps)
                enclosing.append(order)
                order = []
            elif o == "block":
                info[node] = NodeInfo(op.BLOCK, nresults=inst.nresults, base=bases[-1], deps=deps)
                order.append(_add(fd, layout.begin_node[id(inst)], NodeInfo(op.BEGIN_BLOCK)))
            else:
                order.append(_add(fd, node, NodeInfo(op.IF, 1, inst.nresults)))
        elif ev == ELSE_EV:
            height = bases[-1]
            order.append(_add(fd, layout.else_node[id(inst)], NodeInfo(g.ELSE)))
        else:
            base = bases.pop()
            height = base + inst.nresults
            if o == "block":
                order.append(node)
            elif o == "loop":
                body, order = order, enclosing.pop()
                order.append((node, body))
                order.append(_add(fd, layout.end_node[id(inst)], NodeInfo(
                    op.END_LOOP, nresults=inst.nresults, base=base)))
        if height > fd.max_height:
            fd.max_height = height
    fd.order.append(_add(fd, layout.exit_node, NodeInfo(EXIT, nresults=func.nresults, base=0)))
    fd.nodes = list(info)
    for name, _ty in func.params:   # their var nodes follow the body's
        var = layout.param_var_node[name]
        deps[var] = Dep(LOCAL_DEP, var, name=name)
    return fd


def _add(fd: FunctionDataflow, node: int, info: NodeInfo) -> int:
    info.deps = fd.deps
    fd.info[node] = info
    return node


_UNIONS = frozenset((op.BINARY, op.COMPARE, op.UNARY, op.CONVERT, op.SELECT))
_UNTRACKED = frozenset((op.LOAD, op.MEMORY_SIZE, op.MEMORY_GROW))


def _step(info: NodeInfo, s: State) -> tuple[State, tuple[int, ...]]:
    """`transfer` on bitsets: (out state, popped bitsets); the popped tuple is
    a slice of the stack."""
    globals_, locals_, stack = s
    n, t = info.nargs, info.tag
    if len(stack) < n:
        raise DataflowError(f"abstract stack underflow: need {n}, have {len(stack)}")
    popped, stack = (stack[-n:], stack[:-n]) if n else ((), stack)
    if t in _UNIONS:   # a select's third operand is its condition
        stack += (popped[0] | popped[1] if n > 1 else popped[0],)
    elif t == op.LOCAL_GET:
        stack += (locals_[info.slot] | info.own,)
    elif t == op.GLOBAL_GET:
        stack += (globals_[info.slot] | info.own,)
    elif t == op.LOCAL_SET or t == op.LOCAL_TEE:
        locals_ = locals_[:info.slot] + (popped[0],) + locals_[info.slot + 1:]
        if t == op.LOCAL_TEE:
            stack = s.stack   # a tee pushes back what it popped
    elif t == op.GLOBAL_SET:
        globals_ = globals_[:info.slot] + (popped[0],) + globals_[info.slot + 1:]
    elif info.own or t in _UNTRACKED:   # a constant or a call result; memory is untracked
        stack += (info.own,)
    elif not n:
        return s, popped
    return tuple.__new__(State, (globals_, locals_, stack)), popped


def transfer(node: int, info: NodeInfo, s: State) -> tuple[State, list[frozenset]]:
    """One instruction's effect: `_step`, with the popped sets decoded into
    frozensets of `Dep`s."""
    out, popped = _step(info, s)
    return out, [frozenset(deps_of(info, bits)) for bits in popped]


def adjust_for_edge(s: State, target_info: NodeInfo) -> State:
    """Frame fixup on an edge into a construct exit, a loop header or the
    function exit: keep the values below the target's base and the top
    `nresults` values, dropping those a branch abandoned."""
    base, r = target_info.base, target_info.nresults
    if base is None or len(s.stack) == base + r:
        return s
    return State(s.globals_, s.locals_, s.stack[:base] + s.stack[len(s.stack) - r:])


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
        """One node's lattice height: each of its `n_globals + n_locals +
        max_stack` slots can gain each of the `phi_static` origins once. It
        does not bound a function's growth re-visits, which can re-visit
        every node: a reverse copy chain of 10 locals makes 210 against 156.
        The engine's `DataflowError` bound is `cfg_nodes` times this height,
        taken with the highest static stack height for `max_stack`."""
        return (self.n_globals + self.n_locals + self.max_stack) * self.phi_static


@dataclass
class FunctionAnalysis:
    res: dict[int, State]
    stats: AnalysisStats
    fd: FunctionDataflow
    # the dependency bitsets each node popped on its last visit, from res[node]
    popped: dict[int, tuple[int, ...]] = field(default_factory=dict)


def initial_state(fd: FunctionDataflow) -> State:
    n, nparams = len(fd.deps), len(fd.layout.func.params)   # the params' bits are last
    params = tuple(1 << k for k in range(n - nparams, n))
    return State((EMPTY,) * fd.n_globals, params + (EMPTY,) * (fd.n_locals - nparams))


def analyze_function(ctx: BuildContext, func_name: str) -> FunctionAnalysis:
    """Recursive iteration over `fd.order`; res holds each node's inbox.

    A merge point's inbox joins the adjusted states sent to it, any other's
    is the last one; the node is dirty when its inbox grew. Firing it
    transfers the inbox and sends the result along its CFG out-edges. A pass
    fires dirty nodes in order and repeats a loop component while its header
    is dirty. Every CFG edge goes forward in the order or back to an
    enclosing loop header, so no node stays dirty. An inbox grows at most
    once per bit of its slots: more growth re-visits than that, summed over
    the nodes, is a `DataflowError`."""
    layout = ctx.layouts[func_name]
    fd = _prepare(ctx, layout)
    cpg, info = ctx.cpg, fd.info
    stats = AnalysisStats(phi_static=len(fd.deps), n_locals=fd.n_locals,
                          n_globals=fd.n_globals, cfg_nodes=len(fd.nodes))
    analysis = FunctionAnalysis({}, stats, fd)
    inbox, popped, counts = analysis.res, analysis.popped, stats.transfer_counts
    entry_edges = cpg.out_edges(layout.func_node, g.CFG)
    if not entry_edges:
        return analysis
    entry = entry_edges[0].dst
    inbox[entry] = initial_state(fd)
    dirty = {entry}
    # each node's CFG out-edges, and the (frame or None, merge point?) of each
    # target that is more than a plain set: a frame is the NodeInfo it closes
    succs = dict(zip(fd.nodes, cpg._edge_lists(fd.nodes, g.CFG)))
    special = {n: (i if i.base is not None else None, len(preds) > 1)
               for (n, i), preds in zip(info.items(), cpg._edge_lists(fd.nodes, g.CFG, "in"))
               if len(preds) > 1 or i.base is not None}
    bound = len(fd.nodes) * (fd.n_globals + fd.n_locals + fd.max_height) * len(fd.deps)

    def fire(node: int) -> None:
        dirty.discard(node)
        s = inbox[node]
        out, popped[node] = _step(info[node], s)
        if node in counts:
            counts[node] += 1
            stats.growth_revisits += 1
            if stats.growth_revisits > bound:
                raise DataflowError(f"{func_name}: {stats.growth_revisits} growth "
                                    f"re-visits pass the lattice bound of {bound}")
        else:   # heights are static: the first visit sees the highest stacks
            counts[node] = 1
            stats.max_stack = max(stats.max_stack, len(s.stack), len(out.stack))
        for e in succs[node]:
            frame, merge = special.get(succ := e.dst, (None, False))
            sent = out if frame is None else adjust_for_edge(out, frame)
            sent, grew = join(inbox.get(succ), sent) if merge else (sent, sent != inbox.get(succ))
            if grew:
                inbox[succ] = sent
                dirty.add(succ)

    _run(fd.order, dirty, fire)   # leaves no node dirty: each inbox is its last input
    stats.pops = len(counts) + stats.growth_revisits
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
    order, of its origins, ascending; returns the count. A row is the union
    of the bitsets the consumer popped, handed to `graph.Cpg.add_ddg_rows`
    as it is, with `fd.deps`' keys, the origins in bit order: the store
    decodes each distinct bitset once. An origin's edges share one map."""
    popped, deps = analysis.popped, analysis.fd.deps
    # a consumer that popped one set shares it: `reduce` makes no int for it
    rows = [(node, bits) for node in sorted(popped)
            if popped[node] and (bits := reduce(or_, popped[node]))]
    return ctx.cpg.add_ddg_rows(rows, list(deps), lambda origin: _ddg_props(deps[origin]))


def _ddg_props(dep: Dep) -> dict:
    if dep.kind == CONST_DEP:
        return {"ddgType": dep.kind, "label": dep.value,
                "valueType": dep.value_type, "value": dep.value}
    return {"ddgType": dep.kind, "label": dep.name}
