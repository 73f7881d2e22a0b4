"""Tree-walking evaluator.

Graph nodes and edges are first-class values: the graph's own `Node` and
`Edge` records, each equal only to itself. Attribute access reads the
property map and answers nil for absent keys. The only mutation an
evaluation performs is appending to its findings list; every list it is
handed, `inEdges` and `outEdges` included, is a fresh copy.

A range expression follows its parse-time `plan`: a pushed-down type test
reads the graph's instruction index or typed adjacency. Each iteration of
`foreach`, `while` or a range filter is a step, and a run has a budget.
"""

from __future__ import annotations

import copy
import operator
from typing import Any

from ..errors import GraphError, WqlRuntimeError
from ..findings import Finding
from .. import graph as g
from .. import query as q
from . import ast as A

_MISSING = object()
DEFAULT_BUDGET = 10_000_000   # steps per run: 300x what q10 takes on 1,000 loop instructions


class _BreakLoop(Exception):
    pass


class _ContinueLoop(Exception):
    pass


class Interpreter:
    def __init__(self, cpg: g.Cpg, config: dict | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.cpg = cpg
        self.budget, self.steps = budget, 0
        self.config = copy.deepcopy(dict(config or {}))   # the program's own to change
        self.vars: dict[str, Any] = {
            "config": self.config,
            "sources": list(self.config.get("sources", [])),
            "sinks": list(self.config.get("sinks", [])),
        }
        self.findings: list[Finding] = []

    # -- statements -----------------------------------------------------------
    def run(self, program: A.Program) -> list[Finding]:
        self.exec_block(program.body)
        return self.findings

    def exec_block(self, stmts: list) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt) -> None:
        if isinstance(stmt, A.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, A.Foreach):
            items = self.eval(stmt.iterable)
            if isinstance(items, dict):
                items = list(items)  # map iteration yields keys
            if not isinstance(items, list):
                raise WqlRuntimeError("foreach expects a list or map", stmt.line)
            saved = self.vars.get(stmt.var, _MISSING)
            try:
                for item in list(items):
                    self._step(stmt.line)
                    self.vars[stmt.var] = item
                    try:
                        self.exec_block(stmt.body)
                    except _ContinueLoop:
                        continue
            except _BreakLoop:
                pass
            finally:
                if saved is _MISSING:
                    self.vars.pop(stmt.var, None)
                else:
                    self.vars[stmt.var] = saved
        elif isinstance(stmt, A.While):
            try:
                while self._bool(self.eval(stmt.cond), stmt.line):
                    self._step(stmt.line)
                    try:
                        self.exec_block(stmt.body)
                    except _ContinueLoop:
                        continue
            except _BreakLoop:
                pass
        elif isinstance(stmt, A.IfStmt):
            if self._bool(self.eval(stmt.cond), stmt.line):
                self.exec_block(stmt.then)
            else:
                self.exec_block(stmt.orelse)
        elif isinstance(stmt, A.Break):
            raise _BreakLoop()
        elif isinstance(stmt, A.Continue):
            raise _ContinueLoop()
        else:
            raise WqlRuntimeError(f"unknown statement {type(stmt).__name__}",
                                  getattr(stmt, "line", None))

    # -- expressions ------------------------------------------------------------
    def eval(self, node) -> Any:
        if isinstance(node, A.Literal):
            return node.value
        if isinstance(node, A.Var):
            if node.name not in self.vars:
                raise WqlRuntimeError(f"undefined variable {node.name!r}", node.line)
            return self.vars[node.name]
        if isinstance(node, A.Assign):
            value = self.eval(node.expr)
            self.vars[node.name] = value
            return value
        if isinstance(node, A.UnOp):
            v = self.eval(node.operand)
            if node.op == "!":
                return not self._bool(v, node.line)
            if node.op == "-":
                if not _is_number(v):
                    raise WqlRuntimeError("unary '-' needs a number", node.line)
                return -v
        if isinstance(node, A.BinOp):
            return self._binop(node)
        if isinstance(node, A.Attr):
            return self._attr(self.eval(node.obj), node.name, node.line)
        if isinstance(node, A.Index):
            return self._index(self.eval(node.obj), self.eval(node.index), node.line)
        if isinstance(node, A.MethodCall):
            return self._method(self.eval(node.obj), node.name,
                                [self.eval(a) for a in node.args], node.line)
        if isinstance(node, A.CallBuiltin):
            return self._call(node)
        if isinstance(node, A.RangeExpr):
            type_, pred = node.plan
            src = node.source
            if type_ is None:
                items = self.eval(src)
            elif isinstance(src, A.CallBuiltin):
                items = self._call(src, type_)
            else:
                items = self._attr(self.eval(src.obj), src.name, src.line, type_)
            if not isinstance(items, list):
                raise WqlRuntimeError("range expression expects a list", node.line)
            saved = self.vars.get(node.var, _MISSING)
            out = []
            try:
                for item in list(items):
                    self._step(node.line)
                    self.vars[node.var] = item
                    if self._bool(self.eval(pred), node.line):
                        out.append(item)
            finally:
                if saved is _MISSING:
                    self.vars.pop(node.var, None)
                else:
                    self.vars[node.var] = saved
            return out
        raise WqlRuntimeError(f"unknown expression {type(node).__name__}",
                              getattr(node, "line", None))

    def _call(self, node: A.CallBuiltin, type_: str | None = None) -> Any:
        args = [self.eval(a) for a in node.args]
        try:
            return self._builtin(node.name, args, node.line, type_)
        except GraphError as exc:   # e.g. instructions() of a non-Function node
            raise WqlRuntimeError(str(exc), node.line) from None

    def _step(self, line: int) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise WqlRuntimeError(f"step budget of {self.budget} exceeded", line)

    def _bool(self, v: Any, line: int) -> bool:
        if isinstance(v, bool):
            return v
        raise WqlRuntimeError(f"expected a boolean, got {type(v).__name__}", line)

    def _binop(self, node: A.BinOp) -> Any:
        op = node.op
        if op == "&&":
            return self._bool(self.eval(node.left), node.line) and \
                self._bool(self.eval(node.right), node.line)
        if op == "||":
            return self._bool(self.eval(node.left), node.line) or \
                self._bool(self.eval(node.right), node.line)
        left = self.eval(node.left)
        right = self.eval(node.right)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "in":
            if isinstance(right, list):
                return left in right
            if isinstance(right, dict):
                return _key(left, node.line) in right
            raise WqlRuntimeError("'in' expects a list or map", node.line)
        if op in _ORDER:   # numbers with numbers, strings with strings
            if not (_is_number(left) and _is_number(right)
                    or isinstance(left, str) and isinstance(right, str)):
                raise WqlRuntimeError(
                    f"cannot compare {type(left).__name__} and "
                    f"{type(right).__name__}", node.line)
            return _ORDER[op](left, right)
        if op in ("+", "-", "*", "/"):
            if isinstance(left, str) and isinstance(right, str) and op == "+":
                return left + right
            if not _is_number(left) or not _is_number(right):
                raise WqlRuntimeError("arithmetic on non-numbers", node.line)
            try:
                if op == "+":
                    return left + right
                if op == "-":
                    return left - right
                if op == "*":
                    return left * right
                if right == 0:
                    raise WqlRuntimeError("division by zero", node.line)
                return left / right if isinstance(left, float) or isinstance(right, float) \
                    else left // right
            except OverflowError:   # an integer too large for a float
                raise WqlRuntimeError("number too large", node.line) from None
        raise WqlRuntimeError(f"unknown operator {op!r}", node.line)

    # -- attributes, indexing, methods -------------------------------------------
    def _attr(self, obj: Any, name: str, line: int, edge_type: str | None = None) -> Any:
        if isinstance(obj, g.Node):
            if name == "inEdges":
                return self.cpg.in_edges(obj.id, edge_type)
            if name == "outEdges":
                return self.cpg.out_edges(obj.id, edge_type)
            return self.cpg.node_property(obj.id, name)
        if isinstance(obj, g.Edge):
            if name == "src":
                return self.cpg.nodes[obj.src]
            if name == "dst":
                return self.cpg.nodes[obj.dst]
            return self.cpg.edge_property(obj.id, name)
        if obj is None:
            raise WqlRuntimeError(f"attribute {name!r} on nil", line)
        raise WqlRuntimeError(
            f"attribute {name!r} on {type(obj).__name__}", line)

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

    # -- builtin functions ---------------------------------------------------------
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


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_WALKS = {"descendantsCFG": q.descendants_cfg, "descendantsAST": q.descendants_ast,
          "ascendantsAST": q.ascendants_ast}


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _key(v: Any, line: int) -> Any:
    """A map key: any value but a list or a map, which do not hash."""
    if isinstance(v, (list, dict)):
        raise WqlRuntimeError(f"a {type(v).__name__} cannot be a map key", line)
    return v


def eval_wql(program: A.Program, cpg: g.Cpg, config: dict | None = None,
             budget: int = DEFAULT_BUDGET) -> list[Finding]:
    try:
        return Interpreter(cpg, config, budget).run(program)
    except RecursionError:   # evaluation recurses once per expression level
        raise WqlRuntimeError("expression nesting too deep") from None
