"""Query-language syntax tree. A range expression is planned when it is
parsed: a leading type test on its variable is pushed down into the graph
(an instType over `instructions(...)`; an edge type, then a `ddgType` after
`DDG`, over `inEdges`/`outEdges`), so only that slice of the source is read."""

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
    # the body compiled to one closure, made on the program's first run
    code: Any = field(default=None, init=False, repr=False, compare=False)


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
    read. A `var.ddgType = "D"` right after `var.type = "DDG"`, for a D in the
    schema, is pushed down too: the plan is ((DDG, D), the rest), and only
    the DDG edges of ddgType D are read. Otherwise it is (None, pred)."""
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
            type_ = self._tested(first, "instType", g.INST_TYPES)
        elif isinstance(src, Attr) and src.name in ("inEdges", "outEdges"):
            type_ = self._tested(first, "type", g.EDGE_TYPES)
            if type_ == g.DDG and chain:
                ddg_type = self._tested(chain[-1].right, "ddgType", g.DDG_TYPES)
                if ddg_type is not None:
                    type_ = (g.DDG, ddg_type)
                    chain.pop()
        else:
            return
        if type_ is not None:
            rest = Literal(value=True, line=first.line)
            for node in reversed(chain):
                rest = replace(node, left=rest)
            self.plan = (type_, rest)

    def _tested(self, conjunct: Any, attr: str, types: tuple[str, ...]) -> str | None:
        """T when `conjunct` is `var.attr = "T"` for a T in `types`, else None."""
        if isinstance(conjunct, BinOp) and conjunct.op == "=" \
                and isinstance(conjunct.left, Attr) and conjunct.left.name == attr \
                and isinstance(conjunct.left.obj, Var) and conjunct.left.obj.name == self.var \
                and isinstance(conjunct.right, Literal) and conjunct.right.value in types:
            return conjunct.right.value
        return None
