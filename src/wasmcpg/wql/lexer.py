"""Tokenizer with an offside rule: INDENT/DEDENT are emitted at bracket depth
zero only, so bracketed expressions may span lines freely. `//` starts a
comment where a token could start, never inside a string. A string may
escape `"` and `\\` with a backslash, and no other character."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import WqlSyntaxError

KEYWORDS = {"foreach", "while", "if", "else", "break", "continue", "in",
            "nil", "true", "false"}

_TOKEN_RE = re.compile(r"""
      (?P<string>"(?:\\.|[^"\\])*")
    | (?P<number>\d+\.\d+|\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|&&|\|\||!=|<=|>=|[-+*/=<>!:;,.()\[\]])
""", re.VERBOSE)
_ESCAPE_RE = re.compile(r"\\(.)")


@dataclass
class Token:
    type: str      # NAME, NUMBER, STRING, OP, KEYWORD, INDENT, DEDENT, EOF
    value: str
    line: int
    col: int


def _unescape(body: str, line: int, col: int) -> str:
    """A string literal's `body` with its escapes `\\"` and `\\\\` undone, in one
    left-to-right pass; any other escape is a syntax error at the literal."""
    def undo(m: re.Match) -> str:
        if m.group(1) not in '"\\':
            raise WqlSyntaxError(f"unknown escape \\{m.group(1)} in a string", line, col)
        return m.group(1)
    return _ESCAPE_RE.sub(undo, body)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    indents = [0]
    depth = 0
    lines = source.splitlines()
    for lineno, line in enumerate(lines, start=1):
        code = line.lstrip(" \t")
        if not code or code.startswith("//"):   # blank and comment-only lines
            continue
        indent = len(line) - len(code)
        if depth == 0:
            if indent > indents[-1]:
                indents.append(indent)
                tokens.append(Token("INDENT", "", lineno, 1))
            while indent < indents[-1]:
                indents.pop()
                tokens.append(Token("DEDENT", "", lineno, 1))
            if indent != indents[-1]:
                raise WqlSyntaxError("inconsistent indentation", lineno, indent + 1)
        pos = indent
        while pos < len(line):
            if line[pos] in " \t":
                pos += 1
                continue
            if line.startswith("//", pos):      # a comment runs to the line's end
                break
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise WqlSyntaxError(f"stray character {line[pos]!r}", lineno, pos + 1)
            text = m.group(0)
            col = pos + 1
            if m.lastgroup == "string":
                tokens.append(Token("STRING", _unescape(text[1:-1], lineno, col), lineno, col))
            elif m.lastgroup == "number":
                tokens.append(Token("NUMBER", text, lineno, col))
            elif m.lastgroup == "name":
                kind = "KEYWORD" if text in KEYWORDS else "NAME"
                tokens.append(Token(kind, text, lineno, col))
            else:
                if text in "([":
                    depth += 1
                elif text in ")]":
                    depth = max(0, depth - 1)
                tokens.append(Token("OP", text, lineno, col))
            pos = m.end()
    last_line = len(lines) + 1
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", last_line, 1))
    tokens.append(Token("EOF", "", last_line, 1))
    return tokens
