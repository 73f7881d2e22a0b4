"""Recursive-descent parser. Operator precedence is conventional
(|| < && < comparisons/in < additive < multiplicative < unary < postfix);
assignment binds loosest and yields its value.

A statement nests at most MAX_DEPTH levels: each syntax node on the way
down from a top-level statement, and each pair of parentheses, is one.
The parser raises WqlSyntaxError at the token that crosses the bound, so
parsing, compiling and evaluating recurse a bounded number of frames: with
the bound at 48, all three succeed at the bound when called 400 frames deep
under Python's default recursion limit of 1,000."""

from __future__ import annotations

from ..errors import WqlSyntaxError
from . import ast as A
from .lexer import Token, tokenize

MAX_DEPTH = 48


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.loops = 0      # foreach/while bodies open at this point
        self.open = 0       # levels entered above the current token
        self.heights: dict[int, int] = {}   # id(node) -> levels it spans, if above 1

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.type != "EOF":
            self.i += 1
        return t

    def at(self, type_: str, value: str | None = None, k: int = 0) -> bool:
        t = self.peek(k)
        return t.type == type_ and (value is None or t.value == value)

    def expect(self, type_: str, value: str | None = None) -> Token:
        t = self.peek()
        if not self.at(type_, value):
            want = value or type_
            raise WqlSyntaxError(f"expected {want!r}, found {t.value or t.type!r}",
                                 t.line, t.col)
        return self.next()

    def enter(self, tok: Token) -> None:
        """Open one level at `tok`; `leave` closes it."""
        self.open += 1
        self.check(tok, 1)

    def leave(self, node):
        self.open -= 1
        return node

    def made(self, node, tok: Token):
        """`node`, made at `tok`, once its height fits under the open levels."""
        height = 1
        for value in vars(node).values():
            for kid in value if isinstance(value, list) else (value,):
                if isinstance(kid, A.NodeBase):
                    height = max(height, 1 + self.heights.get(id(kid), 1))
        self.check(tok, height)
        self.heights[id(node)] = height
        return node

    def check(self, tok: Token, levels: int) -> None:
        if self.open + levels > MAX_DEPTH:
            raise WqlSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.col)

    # -- statements -----------------------------------------------------------
    def program(self) -> A.Program:
        body = self.statements(top=True)
        self.expect("EOF")
        return A.Program(body=body, line=1)

    def statements(self, top: bool = False) -> list:
        out = []
        while True:
            t = self.peek()
            if t.type == "EOF" or t.type == "DEDENT":
                break
            if t.type == "KEYWORD" and t.value == "else":
                break
            out.append(self.statement())
        return out

    def block(self) -> list:
        self.enter(self.peek())
        if self.at("INDENT"):
            self.next()
            body = self.statements()
            self.expect("DEDENT")
            return self.leave(body)
        # single statement on the same line
        return self.leave([self.statement()])

    def loop_body(self) -> list:
        self.loops += 1
        body = self.block()
        self.loops -= 1
        return body

    def statement(self):
        t = self.peek()
        if t.type == "KEYWORD":
            if t.value == "foreach":
                self.next()
                var = self.expect("NAME").value
                self.expect("KEYWORD", "in")
                iterable = self.expression()
                self.expect("OP", ":")
                return self.made(A.Foreach(var=var, iterable=iterable,
                                           body=self.loop_body(), line=t.line), t)
            if t.value == "while":
                self.next()
                cond = self.expression()
                self.expect("OP", ":")
                return self.made(A.While(cond=cond, body=self.loop_body(), line=t.line), t)
            if t.value == "if":
                self.next()
                cond = self.expression()
                self.expect("OP", ":")
                then = self.block()
                orelse: list = []
                if self.at("KEYWORD", "else"):
                    self.next()
                    self.expect("OP", ":")
                    orelse = self.block()
                return self.made(A.IfStmt(cond=cond, then=then, orelse=orelse,
                                          line=t.line), t)
            if t.value in ("break", "continue"):
                if not self.loops:
                    raise WqlSyntaxError(f"{t.value!r} outside a loop", t.line, t.col)
                self.next()
                self.expect("OP", ";")
                return (A.Break if t.value == "break" else A.Continue)(line=t.line)
        expr = self.expression()
        self.expect("OP", ";")
        return self.made(A.ExprStmt(expr=expr, line=t.line), t)

    # -- expressions ------------------------------------------------------------
    def expression(self):
        """An expression, one level below the current one."""
        t = self.peek()
        self.enter(t)
        if self.at("NAME") and self.at("OP", ":=", 1):
            self.next()
            self.next()
            node = self.made(A.Assign(name=t.value, expr=self.expression(), line=t.line), t)
        else:
            node = self.or_expr()
        return self.leave(node)

    def or_expr(self):
        left = self.and_expr()
        while self.at("OP", "||"):
            t = self.next()
            left = self.made(A.BinOp(op="||", left=left, right=self.and_expr(),
                                     line=t.line), t)
        return left

    def and_expr(self):
        left = self.cmp_expr()
        while self.at("OP", "&&"):
            t = self.next()
            left = self.made(A.BinOp(op="&&", left=left, right=self.cmp_expr(),
                                     line=t.line), t)
        return left

    _CMP = ("=", "!=", "<", "<=", ">", ">=")

    def cmp_expr(self):
        left = self.add_expr()
        t = self.peek()
        if t.type == "OP" and t.value in self._CMP or t.type == "KEYWORD" and t.value == "in":
            self.next()
            return self.made(A.BinOp(op=t.value, left=left, right=self.add_expr(),
                                     line=t.line), t)
        return left

    def add_expr(self):
        left = self.mul_expr()
        while self.at("OP", "+") or self.at("OP", "-"):
            t = self.next()
            left = self.made(A.BinOp(op=t.value, left=left, right=self.mul_expr(),
                                     line=t.line), t)
        return left

    def mul_expr(self):
        left = self.unary()
        while self.at("OP", "*") or self.at("OP", "/"):
            t = self.next()
            left = self.made(A.BinOp(op=t.value, left=left, right=self.unary(),
                                     line=t.line), t)
        return left

    def unary(self):
        t = self.peek()
        if self.at("OP", "!") or self.at("OP", "-"):
            self.next()
            self.enter(t)
            operand = self.leave(self.unary())
            return self.made(A.UnOp(op=t.value, operand=operand, line=t.line), t)
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            t = self.peek()
            if self.at("OP", "."):
                self.next()
                name = self.expect("NAME")
                if self.at("OP", "("):
                    args = self._args()
                    node = self.made(A.MethodCall(obj=node, name=name.value, args=args,
                                                  line=name.line), t)
                else:
                    node = self.made(A.Attr(obj=node, name=name.value, line=name.line), t)
            elif self.at("OP", "["):
                self.next()
                idx = self.expression()
                self.expect("OP", "]")
                node = self.made(A.Index(obj=node, index=idx, line=t.line), t)
            else:
                return node

    def _args(self) -> list:
        self.expect("OP", "(")
        args = []
        if not self.at("OP", ")"):
            args.append(self.expression())
            while self.at("OP", ","):
                self.next()
                args.append(self.expression())
        self.expect("OP", ")")
        return args

    def primary(self):
        t = self.peek()
        if t.type == "NUMBER":
            self.next()
            try:
                value = float(t.value) if "." in t.value else int(t.value)
            except ValueError:   # past Python's int-from-string digit limit
                raise WqlSyntaxError("integer literal too long", t.line, t.col) from None
            return A.Literal(value=value, line=t.line)
        if t.type == "STRING":
            self.next()
            return A.Literal(value=t.value, line=t.line)
        if t.type == "KEYWORD" and t.value in ("nil", "true", "false"):
            self.next()
            value = {"nil": None, "true": True, "false": False}[t.value]
            return A.Literal(value=value, line=t.line)
        if t.type == "NAME":
            if self.at("OP", "(", 1):
                name = self.next().value
                args = self._args()
                return self.made(A.CallBuiltin(name=name, args=args, line=t.line), t)
            self.next()
            return A.Var(name=t.value, line=t.line)
        if t.type == "OP" and t.value == "(":
            self.next()
            inner = self.expression()
            self.expect("OP", ")")
            return inner
        if t.type == "OP" and t.value == "[":
            self.next()
            var = self.expect("NAME").value
            self.expect("KEYWORD", "in")
            source = self.expression()
            self.expect("OP", ":")
            pred = self.expression()
            self.expect("OP", "]")
            return self.made(A.RangeExpr(var=var, source=source, pred=pred, line=t.line), t)
        raise WqlSyntaxError(f"unexpected token {t.value or t.type!r}", t.line, t.col)


def parse_wql(source: str) -> A.Program:
    return _Parser(tokenize(source)).program()
