"""Query-language syntax tree."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .. import graph as g


@dataclass
class NodeBase:
    line: int = field(default=0, kw_only=True)


@dataclass
class Program(NodeBase):
    body: list = field(default_factory=list)


@dataclass
class Foreach(NodeBase):
    var: str = ""
    iterable: Any = None
    body: list = field(default_factory=list)


@dataclass
class While(NodeBase):
    cond: Any = None
    body: list = field(default_factory=list)


@dataclass
class IfStmt(NodeBase):
    cond: Any = None
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


@dataclass
class Break(NodeBase):
    pass


@dataclass
class Continue(NodeBase):
    pass


@dataclass
class ExprStmt(NodeBase):
    expr: Any = None


@dataclass
class Assign(NodeBase):
    name: str = ""
    expr: Any = None


@dataclass
class BinOp(NodeBase):
    op: str = ""
    left: Any = None
    right: Any = None


@dataclass
class UnOp(NodeBase):
    op: str = ""
    operand: Any = None


@dataclass
class Literal(NodeBase):
    value: Any = None


@dataclass
class Var(NodeBase):
    name: str = ""


@dataclass
class CallBuiltin(NodeBase):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class MethodCall(NodeBase):
    obj: Any = None
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class Attr(NodeBase):
    obj: Any = None
    name: str = ""


@dataclass
class Index(NodeBase):
    obj: Any = None
    index: Any = None


@dataclass
class RangeExpr(NodeBase):
    """`[var in source : pred]`, planned at parse time. When pred's leftmost
    conjunct is `var.instType = "T"` over `instructions(...)`, or `var.type =
    "T"` over `x.inEdges`/`x.outEdges`, for a T in the graph schema, `plan` is
    (T, pred with that conjunct made true): only T's slice of the source is
    read. Otherwise it is (None, pred)."""
    var: str = ""
    source: Any = None
    pred: Any = None
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.plan = (None, self.pred)
        src, chain, first = self.source, [], self.pred
        while isinstance(first, BinOp) and first.op == "&&":
            chain.append(first)
            first = first.left
        if isinstance(src, CallBuiltin) and src.name == "instructions" and len(src.args) == 1:
            attr, types = "instType", g.INST_TYPES
        elif isinstance(src, Attr) and src.name in ("inEdges", "outEdges"):
            attr, types = "type", g.EDGE_TYPES
        else:
            return
        if isinstance(first, BinOp) and first.op == "=" and isinstance(first.left, Attr) \
                and first.left.name == attr and isinstance(first.left.obj, Var) \
                and first.left.obj.name == self.var and isinstance(first.right, Literal) \
                and first.right.value in types:
            rest = Literal(value=True, line=first.line)
            for node in reversed(chain):
                rest = replace(node, left=rest)
            self.plan = (first.right.value, rest)
