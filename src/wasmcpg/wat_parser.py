"""WAT (WebAssembly text format) frontend.

Parses the MVP subset this package analyzes. One regex-driven loop reads
the S-expressions, skipping `;;` and nested `(; ;)` comments. `_unfold`
rewrites folded instructions into the flat sequence they abbreviate, and one
flat loop then builds the nested block/loop/if bodies, so nothing recurses.
Malformed input raises `ParseError` at the 1-based line:col of the offending
token; unsupported opcodes are hard errors.

Accepted module fields: type, import, func, table, elem, global, export,
memory, data, start (the last three are checked for shape and otherwise
ignored). Imports may appear anywhere; function indices follow declaration
order.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from itertools import count

from .errors import NameResolutionError, ParseError, UnsupportedOpcodeError
from .ir import FunctionIR, GlobalIR, InstructionIR, ModuleIR, Signature, validate_module
from . import opcodes as op


# ---------------------------------------------------------------------------
# S-expression reader

@dataclass
class Atom:
    text: str
    line: int
    col: int


class SExpr(list):
    """A parenthesized list; elements are Atom or SExpr."""

    def __init__(self, line, col):   # born empty, filled by the reader
        self.line = line
        self.col = col


# One alternative per lexical unit, tried in order. `.` takes any other
# character, so every offset matches and an unknown character is an error. A
# string holds no raw control character: `cut` is a string up to one.
_LEX_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<atom>"(?:\\[^\x00-\x1f\x7f]|[^"\\\x00-\x1f\x7f])*"|[^\s()";]+)
  | (?P<block_comment>\(;)
  | (?P<open>\()
  | (?P<close>\))
  | (?P<newline>\n)
  | (?P<line_comment>;;[^\n]*)
  | (?P<cut>"(?:\\[^\x00-\x1f\x7f]|[^"\\\x00-\x1f\x7f])*\\?(?=[\x00-\x1f\x7f]))
  | (?P<stray>.)
""", re.X)
_NESTING_RE = re.compile(r"\(;|;\)")


def _read_sexprs(source: str) -> list:
    """The top-level forms of `source`. Atoms and lists carry the 1-based
    line and column of their first character; comments are skipped."""
    out = top = []
    parents: list[list] = []   # the lists enclosing `out`, innermost last
    line, line_start, pos, n = 1, 0, 0, len(source)
    match = _LEX_RE.match
    while pos < n:
        m = match(source, pos)
        kind = m.lastgroup
        end = m.end()
        if kind == "ws":   # the commonest unit, so tested first
            pass
        elif kind == "atom":
            out.append(Atom(m.group(), line, pos - line_start + 1))
        elif kind == "open":
            sx = SExpr(line, pos - line_start + 1)
            out.append(sx)
            parents.append(out)
            out = sx
        elif kind == "close":
            if not parents:
                raise ParseError("unbalanced ')'", line, pos - line_start + 1)
            out = parents.pop()
        elif kind == "newline":
            line += 1
            line_start = end
        elif kind == "block_comment":   # `(; ... ;)`, nested to any depth
            depth = 1
            for c in _NESTING_RE.finditer(source, end):
                depth += 1 if c.group() == "(;" else -1
                if not depth:
                    break
            else:
                raise ParseError("unterminated block comment", line, pos - line_start + 1)
            end = c.end()
            if nl := source.count("\n", pos, end):
                line += nl
                line_start = source.rindex("\n", pos, end) + 1
        elif kind == "stray":
            raise ParseError(f"stray character {m.group()!r}", line, pos - line_start + 1)
        elif kind == "cut":
            raise ParseError(f"stray character {source[end]!r}", line, end - line_start + 1)
        pos = end
    if parents:
        raise ParseError("unbalanced '('", out.line, out.col)
    return top


def _is_atom(x, text=None) -> bool:
    return isinstance(x, Atom) and (text is None or x.text == text)


def _ref(x) -> Atom:
    """`x`, a function reference, which must be an atom."""
    if not isinstance(x, Atom):
        raise ParseError("expected a function reference", x.line, x.col)
    return x


def _head(sx) -> str | None:
    if isinstance(sx, SExpr) and sx and isinstance(sx[0], Atom):
        return sx[0].text
    return None


def _unquote(atom: Atom) -> str:
    s = atom.text
    if not (s.startswith('"') and s.endswith('"')):
        raise ParseError("expected a string literal", atom.line, atom.col)
    return s[1:-1].replace('\\"', '"').replace("\\\\", "\\")


_INT_RE = re.compile(r"^[+-]?(0x[0-9a-fA-F_]+|\d[\d_]*)$")
_FLOAT_RE = re.compile(r"^[+-]?(\d[\d_]*\.?[\d_]*([eE][+-]?\d+)?|\.\d[\d_]*([eE][+-]?\d+)?)$")


# the integers a literal of each kind may denote: a value type's signed and
# unsigned ranges together, and a memarg's u32
_INT_RANGES = {"i32": (-1 << 31, (1 << 32) - 1), "i64": (-1 << 63, (1 << 64) - 1),
               "u32": (0, (1 << 32) - 1)}


def _parse_number(text: str, kind: str, where: Atom) -> int | float:
    """The value of a literal of `kind`, a value type or "u32"."""
    t = text.replace("_", "")
    bounds = _INT_RANGES.get(kind)
    try:
        if _INT_RE.match(text):
            n = int(t, 16 if "x" in t else 10)
            if bounds is None:
                v = float(n)
            elif bounds[0] <= n <= bounds[1]:
                return n
            else:
                raise ParseError(f"{kind} literal {text!r} out of range",
                                 where.line, where.col)
        elif bounds is None and _FLOAT_RE.match(text):
            v = float(t)
        else:
            raise ValueError(text)
        # a literal that rounds to infinity in its own type is malformed;
        # packing an f32 raises on it
        if kind == "f32":
            struct.pack("<f", v)
        if not math.isinf(v):
            return v
    except (ValueError, OverflowError):   # "0x_", or too large for its type
        pass
    raise ParseError(f"bad {'integer' if bounds else 'float'} literal {text!r}",
                     where.line, where.col)


# ---------------------------------------------------------------------------
# Module parsing

class Parser:
    def __init__(self, source: str):
        self.source = source
        self.types: dict[str, Signature] = {}
        self.type_order: list[Signature] = []
        self.func_index: dict[str, int] = {}
        self.func_names: list[str] = []   # func_index's keys, by index
        self.global_names: set[str] = set()
        self._label_counter = 0
        self._used_labels: set[str] = set()

    # -- label synthesis -----------------------------------------------------
    def _fresh_label(self, kind: str) -> str:
        self._label_counter += 1
        prefix = {"block": "$B", "loop": "$L", "if": "$I"}[kind]
        return f"{prefix}_syn{self._label_counter}"

    # -- signatures ----------------------------------------------------------
    def _parse_params_results(self, forms, i, params, results):
        """Consume (param ...)/(result ...) forms starting at forms[i]."""
        while i < len(forms):
            h = _head(forms[i])
            if h == "param":
                self._read_vars(forms[i], params, 0)
            elif h == "result":
                results.extend(self._valtype(a) for a in forms[i][1:])
            else:
                break
            i += 1
        return i

    def _read_vars(self, sx: SExpr, out: list, base: int) -> None:
        """Append the (name, type) pairs of a (param ...) or (local ...) form
        to `out`. An unnamed one is named `$k` by its index k among the
        function's params and locals, `base` being the index of out[0]."""
        if len(sx) == 3 and _is_atom(sx[1]) and sx[1].text.startswith("$"):
            out.append((sx[1].text, self._valtype(sx[2])))
        else:
            for a in sx[1:]:
                out.append((f"${base + len(out)}", self._valtype(a)))

    def _valtype(self, a) -> str:
        if _is_atom(a) and a.text in op.VALUE_TYPES:
            return a.text
        raise ParseError(f"expected a value type, got {getattr(a, 'text', '(...)')!r}",
                         a.line, a.col)

    def _parse_typeuse(self, forms, i, params) -> tuple[int, Signature]:
        """A type use at forms[i]; its inline params are appended to `params`."""
        results: list[str] = []
        type_form = None
        if i < len(forms) and _head(forms[i]) == "type":
            type_form = forms[i]
            if len(type_form) != 2 or not _is_atom(type_form[1]):
                raise ParseError("expected (type <ref>)", type_form.line, type_form.col)
            i += 1
        i = self._parse_params_results(forms, i, params, results)
        if type_form is not None:
            type_ref = type_form[1].text
            if type_ref not in self.types:
                raise NameResolutionError(f"unknown type {type_ref}",
                                          type_form.line, type_form.col)
            sig = self.types[type_ref]
            if params or results:
                inline = Signature(tuple(t for _, t in params), tuple(results))
                if inline != sig:
                    raise ParseError(f"type use mismatch for {type_ref}",
                                     type_form.line, type_form.col)
            return i, sig
        return i, Signature(tuple(t for _, t in params), tuple(results))

    # -- top level -----------------------------------------------------------
    def parse(self) -> ModuleIR:
        top = _read_sexprs(self.source)
        if len(top) != 1 or _head(top[0]) != "module":
            raise ParseError("expected a single (module ...) form", 1, 1)
        module = ModuleIR()
        fields = top[0][1:]
        if fields and _is_atom(fields[0]) and fields[0].text.startswith("$"):
            module.name = fields[0].text
            fields = fields[1:]

        funcs: list[tuple[SExpr, FunctionIR, list]] = []   # (field, header, body forms)
        table_elems: list[tuple[int, list[Atom]]] = []
        exports: list[tuple[str, str]] = []

        # pass 1: types, function headers, globals, table, exports
        for f in fields:
            if isinstance(f, Atom):
                raise ParseError(f"expected a module field, found {f.text!r}", f.line, f.col)
            h = _head(f)
            try:
                if h == "type":
                    i = 1
                    name = None
                    if _is_atom(f[i]) and f[i].text.startswith("$"):
                        name = f[i].text
                        i += 1
                    if _head(f[i]) != "func":
                        raise ParseError("(type ...) must wrap a (func ...)", f.line, f.col)
                    params, results = [], []
                    self._parse_params_results(list(f[i])[1:], 0, params, results)
                    sig = Signature(tuple(t for _, t in params), tuple(results))
                    self.type_order.append(sig)
                    key = name if name is not None else str(len(self.type_order) - 1)
                    if key in self.types:
                        raise NameResolutionError(f"duplicate type name {key}", f.line, f.col)
                    self.types[key] = sig
                elif h == "import":
                    kind = _head(f[3])
                    if kind == "func":
                        funcs.append((f, *self._scan_func(f, f[3][1:], len(funcs), True)))
                    elif kind in ("global", "memory", "table"):
                        pass  # shape accepted, contents irrelevant to the analysis
                    else:
                        raise ParseError(f"unsupported import kind {kind!r}", f.line, f.col)
                elif h == "func":
                    funcs.append((f, *self._scan_func(f, f[1:], len(funcs), False)))
                elif h == "global":
                    gl = self._parse_global(f, len(module.globals))
                    if gl.name in self.global_names:
                        raise NameResolutionError(f"duplicate global name {gl.name}",
                                                  f.line, f.col)
                    self.global_names.add(gl.name)
                    module.globals.append(gl)
                elif h in ("memory", "data", "start"):
                    pass
                elif h == "table":
                    elems = self._scan_table(f)
                    if elems is not None:
                        table_elems.append((0, elems))
                elif h == "elem":
                    table_elems.append(self._scan_elem(f))
                elif h == "export":
                    name = _unquote(f[1])
                    desc = f[2]
                    if _head(desc) == "func":
                        exports.append((name, _ref(desc[1])))
                else:
                    raise ParseError(f"unsupported module field {h!r}", f.line, f.col)
            except (IndexError, AttributeError, TypeError):   # short, or an atom for a form
                raise ParseError(f"malformed ({h} ...) field", f.line, f.col) from None

        for f, func, _ in funcs:
            if func.name in self.func_index:
                raise ParseError(f"duplicate function name {func.name}", f.line, f.col)
            self.func_index[func.name] = func.index
            module.functions.append(func)
        self.func_names = list(self.func_index)

        for name, ref in exports:
            func = module.functions[self._resolve_func_ref(ref)]
            func.is_export, func.export_name = True, name

        # pass 2: bodies, once every function and global has its name
        for f, func, body in funcs:
            self._locals = [n for n, _ in func.params + func.locals]
            self._local_set = set(self._locals)
            if len(self._local_set) < len(self._locals):
                seen: set[str] = set()
                dup = next(n for n in self._locals if n in seen or seen.add(n))
                raise NameResolutionError(
                    f"duplicate local name {dup} in {func.name}", f.line, f.col)
            if not func.is_import:
                func.body = self._parse_body(body)

        slots: dict[int, int] = {}   # table slot -> function index; later elems win
        for offset, refs in table_elems:
            for slot, ref in enumerate(refs, offset):
                slots[slot] = self._resolve_func_ref(ref)
        module.table = [slots[k] for k in sorted(slots)]
        return module

    def _resolve_func_ref(self, atom: Atom) -> int:
        ref = atom.text
        if ref.startswith("$"):
            if ref not in self.func_index:
                raise NameResolutionError(f"unknown function {ref}", atom.line, atom.col)
            return self.func_index[ref]
        try:
            idx = int(ref)
        except ValueError:
            raise NameResolutionError(f"bad function reference {ref!r}", atom.line, atom.col)
        if not 0 <= idx < len(self.func_index):
            raise NameResolutionError(f"function index {idx} out of range",
                                      atom.line, atom.col)
        return idx

    def _scan_func(self, f: SExpr, forms: list, index: int,
                   in_import: bool) -> tuple[FunctionIR, list]:
        """The header of field `f`'s function, bodiless, and its body forms.
        `forms` follow the `func` keyword, of `f` itself or of its import
        description; an import's params take positional names, and its
        forms past the type use are ignored."""
        func = FunctionIR(name=f"${index}", index=index, is_import=in_import)
        i = 0
        if forms and _is_atom(forms[0]) and forms[0].text.startswith("$"):
            func.name = forms[0].text
            i = 1
        while not in_import and i < len(forms) and _head(forms[i]) in ("export", "import"):
            if _head(forms[i]) == "export":
                func.is_export, func.export_name = True, _unquote(forms[i][1])
            else:
                func.is_import = True
            i += 1
        i, sig = self._parse_typeuse(forms, i, func.params)   # inline params, named
        if in_import or not func.params:
            func.params = [(f"${k}", t) for k, t in enumerate(sig.params)]
        func.results = list(sig.results)
        if len(func.results) > 1:
            raise ParseError("multi-value signatures are not supported", f.line, f.col)
        if in_import:
            return func, []
        while i < len(forms) and _head(forms[i]) == "local":
            self._read_vars(forms[i], func.locals, len(func.params))
            i += 1
        return func, forms[i:]

    def _scan_table(self, f: SExpr):
        for item in f:
            if isinstance(item, SExpr) and _head(item) == "elem":
                return [_ref(a) for a in item[1:]]
        return None

    def _scan_elem(self, f: SExpr) -> tuple[int, list[Atom]]:
        i = 1
        offset = 0
        if i < len(f) and _is_atom(f[i]) and f[i].text.startswith("$"):
            i += 1  # table name
        if i < len(f) and isinstance(f[i], SExpr):
            h = _head(f[i])
            if h in ("i32.const", "offset"):
                inner = f[i]
                if h == "offset":
                    inner = inner[1]
                offset = _parse_number(inner[1].text, "u32", inner[1])
                i += 1
        if i < len(f) and _is_atom(f[i], "func"):
            i += 1
        return offset, [_ref(a) for a in f[i:]]

    def _parse_global(self, f: SExpr, index: int) -> GlobalIR:
        """A global field; an unnamed one is named by its index among all
        the module's globals."""
        i = 1
        name = None
        if _is_atom(f[i]) and f[i].text.startswith("$"):
            name = f[i].text
            i += 1
        mutable = False
        if isinstance(f[i], SExpr) and _head(f[i]) == "mut":
            mutable = True
            vt = self._valtype(f[i][1])
        else:
            vt = self._valtype(f[i])
        if name is None:
            name = f"$g{index}"
        return GlobalIR(name=name, value_type=vt, mutable=mutable)

    # -- instruction parsing ---------------------------------------------------

    def _parse_body(self, forms) -> list[InstructionIR]:
        """Unfold a body, then build its nested lists in one flat loop."""
        out = body = []
        # the open constructs' branch labels, innermost last: numeric branch
        # immediates index into it from the end
        labels: list[str] = []
        open_: list[tuple[InstructionIR, list]] = []   # (construct, list it joins)
        self._orders = count()
        it = _FormCursor(_unfold(forms))
        while not it.done():
            item = it.take()
            # a folded instruction reads its immediates from its own list
            head, src = (item[0], _FormCursor(item[1])) if type(item) is tuple \
                else (item, it)
            if not isinstance(head, Atom):
                raise ParseError(f"unexpected ({_head(head)} ...)", head.line, head.col)
            name = head.text
            if name in ("block", "loop", "if"):
                inst = self._begin_structured(name, src, head)
                labels.append(inst.label)
                if name == "if":
                    inst.label = self._fresh_label("if")
                open_.append((inst, out, head))
                out = inst.body
            elif name in ("else", "end"):
                inst = open_[-1][0] if open_ else None
                if inst is None or name == "else" and (inst.opcode != "if" or inst.has_else):
                    raise ParseError(f"unexpected {name!r}", head.line, head.col)
                if not src.done() and _is_atom(src.peek()) and src.peek().text.startswith("$"):
                    src.take()  # trailing label comment
                if name == "else":
                    inst.has_else = True
                    out = inst.else_body
                else:
                    out = open_.pop()[1]
                    label = labels.pop()
                    out.append(self._finish_if(inst, label) if inst.opcode == "if" else inst)
            else:
                out.append(self._plain_instruction(name, head, src, labels))
            if src is not it and not src.done():
                raise ParseError(f"{name}: unexpected immediate", head.line, head.col)
        if open_:
            head = open_[-1][2]
            raise ParseError("missing 'end' for structured instruction", head.line, head.col)
        return body

    def _begin_structured(self, opname: str, it: "_FormCursor", where: Atom) -> InstructionIR:
        inst = InstructionIR(opcode=opname, source_order=next(self._orders))
        if not it.done() and _is_atom(it.peek()) and it.peek().text.startswith("$"):
            inst.label = it.take().text
        else:
            inst.label = self._fresh_label(opname)
        while not it.done() and _head(it.peek()) == "result":
            for a in it.take()[1:]:
                inst.value_type = self._valtype(a)
                inst.nresults += 1
        if inst.nresults > 1:
            raise ParseError("multi-value blocks are not supported", where.line, where.col)
        return inst

    def _finish_if(self, inst: InstructionIR, label: str) -> InstructionIR:
        # If a branch targets this if's label, give it a real continuation by
        # wrapping the if in a one-parameter block (the parameter re-routes
        # the if condition into the new frame) carrying that label.
        if label not in self._used_labels:
            inst.label = label
            return inst
        inst.label = label + "@inner"
        return InstructionIR(
            opcode="block", source_order=inst.source_order, label=label,
            nresults=inst.nresults, value_type=inst.value_type, body=[inst],
            block_params=1)

    def _plain_instruction(self, opname: str, where: Atom, it: "_FormCursor",
                           labels) -> InstructionIR:
        if opname not in op.INST_TYPE:
            raise UnsupportedOpcodeError(f"unsupported opcode {opname!r}",
                                         where.line, where.col)
        inst = InstructionIR(opcode=opname, source_order=next(self._orders))

        def take_atom(what: str) -> Atom:
            if it.done() or not _is_atom(it.peek()):
                raise ParseError(f"{opname}: expected {what}", where.line, where.col)
            return it.take()

        if opname.endswith(".const"):
            a = take_atom("a literal")
            inst.value_type = opname.split(".")[0]
            inst.value = _parse_number(a.text, inst.value_type, a)
        elif opname.startswith("local.") or opname.startswith("global."):
            a = take_atom("a variable")
            inst.var = self._resolve_var(opname, a)
        elif opname == "call":
            a = take_atom("a function")
            inst.callee = self.func_names[self._resolve_func_ref(a)]
        elif opname == "call_indirect":
            forms = it.take_heads(("type", "param", "result"))
            _, sig = self._parse_typeuse(forms, 0, [])
            inst.type_use = sig
            if len(sig.results) > 1:
                raise ParseError("multi-value signatures are not supported",
                                 where.line, where.col)
        elif opname in ("br", "br_if"):
            a = take_atom("a label")
            inst.label = self._resolve_label(a, labels)
        elif opname == "br_table":
            targets = []
            while not it.done() and _is_atom(it.peek()) and \
                    (it.peek().text.startswith("$") or it.peek().text.isdigit()):
                targets.append(self._resolve_label(it.take(), labels))
            if not targets:
                raise ParseError("br_table needs at least a default target",
                                 where.line, where.col)
            inst.br_targets = targets
        elif op.INST_TYPE[opname] in (op.LOAD, op.STORE):
            while not it.done() and _is_atom(it.peek()) and \
                    ("=" in it.peek().text):
                a = it.take()
                key, _, val = a.text.partition("=")
                if key not in ("offset", "align"):
                    raise ParseError(f"unknown memarg {key!r}", where.line, where.col)
                n = _parse_number(val, "u32", a)
                if key == "offset":
                    inst.offset = n
                elif n & (n - 1) or not n:
                    raise ParseError(f"align={val} is not a power of two", a.line, a.col)
        return inst

    def _resolve_var(self, opname: str, a: Atom) -> str:
        """A variable reference, against the current function's `_locals`
        (and `_local_set`) or the module's globals."""
        ref = a.text
        if opname.startswith("local."):
            if ref.startswith("$"):
                if ref not in self._local_set:
                    raise NameResolutionError(f"unknown local {ref}", a.line, a.col)
                return ref
            if not ref.isdecimal() or int(ref) >= len(self._locals):
                raise NameResolutionError(f"bad local reference {ref!r}", a.line, a.col)
            return self._locals[int(ref)]
        if ref.startswith("$"):
            if ref not in self.global_names:
                raise NameResolutionError(f"unknown global {ref}", a.line, a.col)
            return ref
        raise NameResolutionError("numeric global references are not supported",
                                  a.line, a.col)

    def _resolve_label(self, a: Atom, labels: list[str]) -> str:
        ref = a.text
        if ref.startswith("$"):
            if ref not in labels:
                raise NameResolutionError(f"unresolved label {ref}", a.line, a.col)
            self._used_labels.add(ref)
            return ref
        depth = int(ref) if ref.isdecimal() else -1
        if not 0 <= depth <= len(labels):
            raise NameResolutionError(f"branch target {ref} out of range", a.line, a.col)
        if depth == len(labels):
            return "$__func__"  # function-level target: behaves like return
        name = labels[len(labels) - 1 - depth]
        self._used_labels.add(name)
        return name


class _FormCursor:
    def __init__(self, forms):
        self.forms = list(forms)
        self.i = 0

    def done(self) -> bool:
        return self.i >= len(self.forms)

    def peek(self):
        return self.forms[self.i]

    def take(self):
        f = self.forms[self.i]
        self.i += 1
        return f

    def take_heads(self, heads) -> list:
        out = []
        while not self.done() and _head(self.peek()) in heads:
            out.append(self.take())
        return out


_IMMEDIATE_FORMS = frozenset(("type", "param", "result"))


def _unfold(forms: list) -> list:
    """Rewrite the folded instructions in `forms` as the flat sequence they
    abbreviate in the text format, with an explicit stack of form lists.

    A folded head comes out as one `(atom, immediates)` pair, so its
    immediates cannot consume the next instruction's tokens; the `else` and
    `end` it implies come out as pairs with no immediates. Atoms and the
    `(type ...)`, `(param ...)` and `(result ...)` immediates pass through.
    """
    out: list = []
    stack = [iter(forms)]
    while stack:
        for form in stack[-1]:
            if isinstance(form, SExpr) and _head(form) not in _IMMEDIATE_FORMS:
                stack.append(iter(_unfold_one(form)))
                break
            out.append(form)
        else:
            stack.pop()
    return out


def _unfold_one(sx: SExpr) -> list:
    """One folded instruction, one level down, in flat order:
    - `(op imm* e*)` is `e*` then `op imm*`;
    - `(block ...)` and `(loop ...)` are the same forms followed by `end`;
    - `(if l? r* e* (then a*) (else b*)?)` is `e* if l? r* a* else b* end`.
    """
    h = _head(sx)
    if h is None or h in ("then", "else", "end"):
        raise ParseError(f"unexpected expression ({h or ''} ...)", sx.line, sx.col)
    n, i = len(sx), 1
    if h not in ("block", "loop", "if"):
        while i < n and (isinstance(sx[i], Atom) or _head(sx[i]) in _IMMEDIATE_FORMS):
            i += 1
        for e in sx[i:]:
            if isinstance(e, Atom):
                raise ParseError(f"{h}: unexpected immediate {e.text!r}", e.line, e.col)
        return [*sx[i:], (sx[0], sx[1:i])]
    if i < n and _is_atom(sx[i]) and sx[i].text.startswith("$"):
        i += 1
    while i < n and _head(sx[i]) == "result":
        i += 1
    head, end = (sx[0], sx[1:i]), (Atom("end", sx.line, sx.col), ())
    if h != "if":
        return [head, *sx[i:], end]
    j = i
    while j < n and _head(sx[j]) not in ("then", "else"):
        j += 1
    if j == n or _head(sx[j]) != "then":
        raise ParseError("folded if requires a (then ...) form", sx.line, sx.col)
    parts = [*sx[i:j], head, *sx[j][1:]]
    if j + 1 < n and _head(sx[j + 1]) == "else":
        j += 1
        parts += [(Atom("else", sx[j].line, sx[j].col), ()), *sx[j][1:]]
    if j + 1 < n:
        raise ParseError("junk after folded if", sx.line, sx.col)
    return parts + [end]


def parse_module(source: str) -> ModuleIR:
    """Parse WAT text into a validated ModuleIR."""
    module = Parser(source).parse()
    validate_module(module)
    return module
