"""Closure compiler and evaluator. A `Program`'s first run compiles each
syntax node once into a closure over the run's `Interpreter`, kept on the
program: node type, operator and attribute name are dispatched on then, not
per evaluation, and closures hold no run state, so a program runs on many
graphs. Records compare by identity, absent properties read as nil, every
list handed out is fresh, and each loop or range iteration is a budgeted
step. The parser bounds nesting, and with it the recursion here."""

from __future__ import annotations

import copy
import operator
from typing import Any, Callable

from ..errors import GraphError, WqlRuntimeError
from ..findings import Finding
from .. import graph as g
from .. import query as q
from . import ast as A

_MISSING = object()
_BREAK, _CONTINUE = object(), object()   # what break and continue statements return
DEFAULT_BUDGET = 10_000_000   # steps per run: 300x what q10 takes on 1,000 loop instructions


class Interpreter:
    def __init__(self, cpg: g.Cpg, config: dict | None = None, budget: int = DEFAULT_BUDGET):
        self.cpg = cpg
        self.budget, self.steps = budget, 0
        self.config = copy.deepcopy(dict(config or {}))   # the program's own to change
        self.vars: dict[str, Any] = {"config": self.config,
                                     "sources": list(self.config.get("sources", [])),
                                     "sinks": list(self.config.get("sinks", []))}
        self.findings: list[Finding] = []

    def run(self, program: A.Program) -> list[Finding]:
        if program.code is None:
            program.code = _block(program.body)
        program.code(self)
        return self.findings

    def _step(self, line: int, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.budget:
            raise WqlRuntimeError(f"step budget of {self.budget} exceeded", line)

    # -- indexing, methods, builtin functions --------------------------------------
    def _index(self, obj: Any, idx: Any, line: int) -> Any:
        if isinstance(obj, list):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise WqlRuntimeError("list index must be an integer", line)
            if not 0 <= idx < len(obj):
                raise WqlRuntimeError(f"list index {idx} out of range", line)
            return obj[idx]
        if isinstance(obj, dict):
            return obj.get(_key(idx, line))
        raise WqlRuntimeError(f"cannot index {type(obj).__name__}", line)

    def _method(self, obj: Any, name: str, args: list, line: int) -> Any:
        if isinstance(obj, list):
            if name == "empty" and not args:
                return len(obj) == 0
            if name == "size" and not args:
                return len(obj)
            if name == "append" and len(args) == 1:
                obj.append(args[0])
                return obj
            if name == "pop" and not args:
                if not obj:
                    raise WqlRuntimeError("pop from an empty list", line)
                return obj.pop()
        if isinstance(obj, dict):
            if name == "empty" and not args:
                return len(obj) == 0
            if name == "size" and not args:
                return len(obj)
        raise WqlRuntimeError(
            f"unknown method {name!r} on {type(obj).__name__}", line)

    def _builtin(self, name: str, args: list, line: int, inst_type: str | None) -> Any:
        cpg = self.cpg
        if name == "functions" and not args:
            ids = q.functions(cpg)
        elif name == "instructions" and len(args) == 1:
            fns = args[0] if isinstance(args[0], list) else [args[0]]
            ids = q.instructions(cpg, [self._node_id(f, line) for f in fns],
                                 inst_type=inst_type)
        elif name in _WALKS and len(args) == 1:
            ids = _WALKS[name](cpg, self._node_id(args[0], line))
        elif name == "children" and len(args) == 2:
            ids = q.children(cpg, self._node_id(args[0], line), args[1])
        elif name == "reachesDDG" and len(args) == 4:
            return q.reaches_ddg(cpg, self._node_id(args[0], line),
                                 self._node_id(args[1], line), args[2], args[3])
        elif name == "vulnerability" and len(args) in (3, 4):
            kind, func, label = args[0], args[1], args[2]
            desc = args[3] if len(args) == 4 else ""
            self.findings.append(Finding(None, str(kind), str(func),
                                         str(label), str(desc)))
            return None
        elif name == "List":
            return list(args)
        else:
            raise WqlRuntimeError(f"unknown builtin {name!r}", line)
        return [cpg.nodes[n] for n in ids]

    def _node_id(self, v: Any, line: int) -> int:
        if isinstance(v, g.Node):
            return v.id
        raise WqlRuntimeError(f"expected a node, got {type(v).__name__}", line)


# -- the compiler: one closure per syntax node --------------------------------------
def _compile(node) -> Callable:
    return _COMPILERS[type(node)](node)


def _block(stmts: list) -> Callable:
    code = [_compile(s) for s in stmts]

    def block(st):
        for stmt in code:
            signal = stmt(st)
            if signal is _BREAK or signal is _CONTINUE:
                return signal
    return block


def _each(st: Interpreter, var: str, items: Any, line: int, visit: Callable, error: str):
    """`visit()` each item of list `items`, one step each, bound to `var`."""
    if not isinstance(items, list):
        raise WqlRuntimeError(error, line)
    saved = st.vars.get(var, _MISSING)
    try:
        for item in list(items):
            st._step(line)
            st.vars[var] = item
            if visit(item) is _BREAK:
                break
    finally:
        if saved is _MISSING:
            st.vars.pop(var, None)
        else:
            st.vars[var] = saved


def _foreach(node: A.Foreach) -> Callable:
    iterable, body, var, line = _compile(node.iterable), _block(node.body), node.var, node.line

    def foreach(st):
        items = iterable(st)
        items = list(items) if isinstance(items, dict) else items   # a map's keys
        _each(st, var, items, line, lambda item: body(st), "foreach expects a list or map")
    return foreach


def _range(node: A.RangeExpr) -> Callable:
    # type_: the one instType, edge type or (DDG, ddgType) slice to read, or None
    type_, pred = node.plan
    source = _compile(node.source) if type_ is None else \
        (_call if isinstance(node.source, A.CallBuiltin) else _attr)(node.source, type_)
    test, var, line = _compile(pred), node.var, node.line
    if _always(pred):   # every item passes: one copy, its steps taken at once
        def copy_all(st):
            items = source(st)
            if not isinstance(items, list):
                raise WqlRuntimeError("range expression expects a list", line)
            st._step(line, len(items))
            return list(items)
        return copy_all

    def range_(st):
        out = []
        _each(st, var, source(st), line, lambda x: _truth(test(st), line) and out.append(x),
              "range expression expects a list")
        return out
    return range_


def _always(pred) -> bool:
    """Whether `pred` is `true` literals joined by `&&`."""
    if isinstance(pred, A.BinOp):
        return pred.op == "&&" and _always(pred.left) and _always(pred.right)
    return isinstance(pred, A.Literal) and pred.value is True


def _while(node: A.While) -> Callable:
    cond, body, line = _compile(node.cond), _block(node.body), node.line

    def while_(st):
        while _truth(cond(st), line):
            st._step(line)
            if body(st) is _BREAK:
                break
    return while_


def _if(node: A.IfStmt) -> Callable:
    cond, then, orelse = _compile(node.cond), _block(node.then), _block(node.orelse)
    line = node.line
    return lambda st: then(st) if _truth(cond(st), line) else orelse(st)


def _var(node: A.Var) -> Callable:
    name, line = node.name, node.line

    def var(st):
        try:
            return st.vars[name]
        except KeyError:
            raise WqlRuntimeError(f"undefined variable {name!r}", line) from None
    return var


def _assign(node: A.Assign) -> Callable:
    expr, name = _compile(node.expr), node.name

    def assign(st):
        value = st.vars[name] = expr(st)
        return value
    return assign


def _unop(node: A.UnOp) -> Callable:
    operand, line = _compile(node.operand), node.line
    if node.op == "!":
        return lambda st: not _truth(operand(st), line)

    def negate(st):
        v = operand(st)
        if not _is_number(v):
            raise WqlRuntimeError("unary '-' needs a number", line)
        return -v
    return negate


def _binop(node: A.BinOp) -> Callable:
    left, right, op, line = _compile(node.left), _compile(node.right), node.op, node.line
    if op in ("&&", "||"):
        short = op == "||"   # the left value that decides the result
        return lambda st: short if _truth(left(st), line) is short else _truth(right(st), line)
    if op == "=":
        return lambda st: left(st) == right(st)
    if op == "!=":
        return lambda st: left(st) != right(st)
    if op == "in":
        def member(st):
            item, coll = left(st), right(st)
            if isinstance(coll, list):
                return item in coll
            if isinstance(coll, dict):
                return _key(item, line) in coll
            raise WqlRuntimeError("'in' expects a list or map", line)
        return member
    fn, strings = {**_ORDER, **_ARITH}[op], op in _ORDER or op == "+"
    error = "cannot compare {} and {}" if op in _ORDER else "arithmetic on non-numbers"

    def strict(st):
        a, b = left(st), right(st)
        if not (_is_number(a) and _is_number(b)
                or strings and isinstance(a, str) and isinstance(b, str)):
            raise WqlRuntimeError(error.format(type(a).__name__, type(b).__name__), line)
        try:
            return fn(a, b)
        except ZeroDivisionError:
            raise WqlRuntimeError("division by zero", line) from None
        except OverflowError:   # an integer too large for a float
            raise WqlRuntimeError("number too large", line) from None
    return strict


def _attr(node: A.Attr, etype: str | tuple | None = None) -> Callable:
    obj, name, line = _compile(node.obj), node.name, node.line
    on_node, on_edge = _FIELDS.get(name, (None, None))   # None: a property
    if isinstance(etype, tuple):   # (DDG, ddgType): read that slice of the DDG edges
        direction, ddg_type = "in" if name == "inEdges" else "out", etype[1]
        on_node = lambda cpg, n, t: cpg.ddg_edges(n.id, ddg_type, direction)

    def attr(st):
        rec = obj(st)
        if type(rec) is g.Node:
            return rec.properties.get(name) if on_node is None else on_node(st.cpg, rec, etype)
        if type(rec) is g.Edge:
            return rec.properties.get(name) if on_edge is None else on_edge(st.cpg, rec)
        raise WqlRuntimeError(f"attribute {name!r} on "
                              f"{'nil' if rec is None else type(rec).__name__}", line)
    return attr


def _call(node: A.CallBuiltin, inst_type: str | None = None) -> Callable:
    args, name, line = [_compile(a) for a in node.args], node.name, node.line

    def call(st):
        try:
            return st._builtin(name, [a(st) for a in args], line, inst_type)
        except GraphError as exc:   # e.g. instructions() of a non-Function node
            raise WqlRuntimeError(str(exc), line) from None
    return call


def _method_call(node: A.MethodCall) -> Callable:
    obj, name, line = _compile(node.obj), node.name, node.line
    args = [_compile(a) for a in node.args]
    return lambda st: st._method(obj(st), name, [a(st) for a in args], line)


def _index(node: A.Index) -> Callable:
    obj, index, line = _compile(node.obj), _compile(node.index), node.line
    return lambda st: st._index(obj(st), index(st), line)


def _literal(node: A.Literal) -> Callable:
    value = node.value
    return lambda st: value


_COMPILERS: dict[type, Callable] = {
    A.ExprStmt: lambda node: _compile(node.expr), A.Foreach: _foreach, A.While: _while,
    A.IfStmt: _if, A.Break: lambda node: lambda st: _BREAK,
    A.Continue: lambda node: lambda st: _CONTINUE, A.RangeExpr: _range, A.Var: _var,
    A.Assign: _assign, A.UnOp: _unop, A.BinOp: _binop, A.Attr: _attr, A.CallBuiltin: _call,
    A.MethodCall: _method_call, A.Index: _index, A.Literal: _literal,
}
# attribute -> (read on a Node, read on an Edge) where it is no property; None: the property
_FIELDS = {"id": (lambda cpg, n, t: n.id, lambda cpg, e: e.id),
           "type": (lambda cpg, n, t: n.kind, lambda cpg, e: e.type),
           "src": (None, lambda cpg, e: cpg.nodes[e.src]),
           "dst": (None, lambda cpg, e: cpg.nodes[e.dst]),
           "inEdges": (lambda cpg, n, t: cpg.in_edges(n.id, t), None),
           "outEdges": (lambda cpg, n, t: cpg.out_edges(n.id, t), None)}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else a // b}
_WALKS = {"descendantsCFG": q.descendants_cfg, "descendantsAST": q.descendants_ast,
          "ascendantsAST": q.ascendants_ast}


def _truth(v: Any, line: int) -> bool:
    if isinstance(v, bool):
        return v
    raise WqlRuntimeError(f"expected a boolean, got {type(v).__name__}", line)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _key(v: Any, line: int) -> Any:   # any value but a list or a map, which do not hash
    if isinstance(v, (list, dict)):
        raise WqlRuntimeError(f"a {type(v).__name__} cannot be a map key", line)
    return v


def eval_wql(program: A.Program, cpg: g.Cpg, config: dict | None = None,
             budget: int = DEFAULT_BUDGET) -> list[Finding]:
    return Interpreter(cpg, config, budget).run(program)
