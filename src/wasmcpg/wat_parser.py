"""WAT (WebAssembly text format) frontend.

Parses the MVP subset this package analyzes. `_unfold` rewrites folded
instructions into the flat sequence they abbreviate, and one flat loop then
builds the nested block/loop/if bodies, so nothing recurses. Malformed input
raises `ParseError`; unsupported opcodes are hard errors.

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

    def __init__(self, items, line, col):
        super().__init__(items)
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r'"(?:\\.|[^"\\])*"|[()]|[^\s()";]+')


def _tokenize(source: str):
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith(";;", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("(;", i):
            depth = 1
            j = i + 2
            while j < n and depth:
                if source.startswith("(;", j):
                    depth += 1
                    j += 2
                elif source.startswith(";)", j):
                    depth -= 1
                    j += 2
                else:
                    if source[j] == "\n":
                        line += 1
                        col = 0
                    j += 1
            if depth:
                raise ParseError("unterminated block comment", line, col)
            i = j
            continue
        m = _TOKEN_RE.match(source, i)
        if not m:
            raise ParseError(f"stray character {c!r}", line, col)
        text = m.group(0)
        yield Atom(text, line, col)
        col += len(text)
        i = m.end()


def _read_sexprs(source: str) -> list:
    stack: list[list] = [[]]
    meta: list[tuple[int, int]] = [(1, 1)]
    for tok in _tokenize(source):
        if tok.text == "(":
            stack.append([])
            meta.append((tok.line, tok.col))
        elif tok.text == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", tok.line, tok.col)
            items = stack.pop()
            line, col = meta.pop()
            stack[-1].append(SExpr(items, line, col))
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        line, col = meta[-1]
        raise ParseError("unbalanced '('", line, col)
    return stack[0]


def _is_atom(x, text=None) -> bool:
    return isinstance(x, Atom) and (text is None or x.text == text)


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


def _parse_number(text: str, value_type: str, where: Atom) -> int | float:
    t = text.replace("_", "")
    is_int = value_type in ("i32", "i64")
    try:
        if _INT_RE.match(text):
            n = int(t, 16 if "x" in t else 10)
            if is_int:
                return n
            v = float(n)
        elif not is_int and _FLOAT_RE.match(text):
            v = float(t)
        else:
            raise ValueError(text)
        # a literal that rounds to infinity in its own type is malformed;
        # packing an f32 raises on it
        if value_type == "f32":
            struct.pack("<f", v)
        if not math.isinf(v):
            return v
    except (ValueError, OverflowError):   # "0x_", or too large for its type
        pass
    raise ParseError(f"bad {'integer' if is_int else 'float'} literal {text!r}",
                     where.line, where.col)


# ---------------------------------------------------------------------------
# Module parsing

class _FuncDecl:
    """Pre-scanned function field, body parsed in a second pass."""

    def __init__(self, sx: SExpr):
        self.sx = sx
        self.name: str | None = None
        self.is_import = False
        self.export_name: str | None = None
        self.params: list[tuple[str | None, str]] = []
        self.results: list[str] = []
        self.locals: list[tuple[str | None, str]] = []
        self.body_forms: list = []


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
                sx = forms[i]
                if len(sx) == 3 and _is_atom(sx[1]) and sx[1].text.startswith("$"):
                    params.append((sx[1].text, self._valtype(sx[2])))
                else:
                    for a in sx[1:]:
                        params.append((None, self._valtype(a)))
                i += 1
            elif h == "result":
                for a in forms[i][1:]:
                    results.append(self._valtype(a))
                i += 1
            else:
                break
        return i

    def _valtype(self, a) -> str:
        if _is_atom(a) and a.text in op.VALUE_TYPES:
            return a.text
        where = a if isinstance(a, Atom) else Atom("?", a.line, a.col)
        raise ParseError(f"expected a value type, got {getattr(a, 'text', '(...)')!r}",
                         where.line, where.col)

    def _parse_typeuse(self, forms, i, params=None) -> tuple[int, Signature]:
        """A type use at forms[i]; its inline params are appended to `params`."""
        params = [] if params is None else params
        results: list[str] = []
        type_ref: str | None = None
        if i < len(forms) and _head(forms[i]) == "type":
            if len(forms[i]) != 2 or not _is_atom(forms[i][1]):
                raise ParseError("expected (type <ref>)", forms[i].line, forms[i].col)
            type_ref = forms[i][1].text
            i += 1
        i = self._parse_params_results(forms, i, params, results)
        if type_ref is not None:
            if type_ref not in self.types:
                raise NameResolutionError(f"unknown type {type_ref}",
                                          forms[0].line if forms else 0, 0)
            sig = self.types[type_ref]
            if params or results:
                inline = Signature(tuple(t for _, t in params), tuple(results))
                if inline != sig:
                    raise ParseError(f"type use mismatch for {type_ref}", 0, 0)
            return i, sig
        return i, Signature(tuple(t for _, t in params), tuple(results))

    # -- top level -----------------------------------------------------------
    def parse(self) -> ModuleIR:
        top = _read_sexprs(self.source)
        if len(top) != 1 or _head(top[0]) != "module":
            raise ParseError("expected a single (module ...) form", 1, 1)
        msx = top[0]
        module = ModuleIR()
        fields = list(msx[1:])
        if fields and _is_atom(fields[0]) and fields[0].text.startswith("$"):
            module.name = fields[0].text
            fields = fields[1:]

        decls: list[_FuncDecl] = []
        table_elems: list[tuple[int, list[str]]] = []
        exports: list[tuple[str, str]] = []
        global_names: set[str] = set()

        # pass 1: types, names, globals, table, exports
        for f in fields:
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
                    params: list[tuple[str | None, str]] = []
                    results: list[str] = []
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
                        decls.append(self._scan_import_func(f))
                    elif kind in ("global", "memory", "table"):
                        pass  # shape accepted, contents irrelevant to the analysis
                    else:
                        raise ParseError(f"unsupported import kind {kind!r}", f.line, f.col)
                elif h == "func":
                    decls.append(self._scan_func(f))
                elif h == "global":
                    gl = self._parse_global(f, len(module.globals))
                    if gl.name in global_names:
                        raise NameResolutionError(f"duplicate global name {gl.name}",
                                                  f.line, f.col)
                    global_names.add(gl.name)
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
                        exports.append((name, desc[1].text))
                else:
                    raise ParseError(f"unsupported module field {h!r}", f.line, f.col)
            except (IndexError, AttributeError, TypeError):   # short, or an atom for a form
                raise ParseError(f"malformed ({h} ...) field", f.line, f.col) from None

        # assign names and indices
        for idx, d in enumerate(decls):
            if d.name is None:
                d.name = f"${idx}"
            if d.name in self.func_index:
                raise ParseError(f"duplicate function name {d.name}", d.sx.line, d.sx.col)
            self.func_index[d.name] = idx
        self.func_names = list(self.func_index)
        self.global_names = global_names

        for name, ref in exports:
            target = self._resolve_func_ref(ref)
            decls[target].export_name = name

        # pass 2: bodies
        for idx, d in enumerate(decls):
            if len(d.results) > 1:
                raise ParseError("multi-value signatures are not supported",
                                 d.sx.line, d.sx.col)
            func = FunctionIR(
                name=d.name,
                index=idx,
                params=self._positional_names(d.params, 0),
                locals=self._positional_names(d.locals, len(d.params)),
                results=list(d.results),
                is_import=d.is_import,
                is_export=d.export_name is not None,
                export_name=d.export_name,
            )
            seen: set[str] = set()
            for name, _ in func.params + func.locals:
                if name in seen:
                    raise NameResolutionError(
                        f"duplicate local name {name} in {d.name}", d.sx.line, d.sx.col)
                seen.add(name)
            if not d.is_import:
                func.body = self._parse_body(d.body_forms, func)
            module.functions.append(func)

        for offset, names in table_elems:
            slot = offset
            need = offset + len(names)
            if len(module.table) < need:
                module.table.extend([-1] * (need - len(module.table)))
            for nm in names:
                module.table[slot] = self._resolve_func_ref(nm)
                slot += 1
        module.table = [i for i in module.table if i >= 0]
        return module

    def _positional_names(self, pairs, base):
        out = []
        for i, (name, ty) in enumerate(pairs):
            out.append((name if name is not None else f"${base + i}", ty))
        return out

    def _resolve_func_ref(self, ref: str) -> int:
        if ref.startswith("$"):
            if ref not in self.func_index:
                raise NameResolutionError(f"unknown function {ref}")
            return self.func_index[ref]
        try:
            idx = int(ref)
        except ValueError:
            raise NameResolutionError(f"bad function reference {ref!r}")
        if not 0 <= idx < len(self.func_index):
            raise NameResolutionError(f"function index {idx} out of range")
        return idx

    def _func_name_for_ref(self, ref: str) -> str:
        return self.func_names[self._resolve_func_ref(ref)]

    def _scan_import_func(self, f: SExpr) -> _FuncDecl:
        d = _FuncDecl(f)
        d.is_import = True
        desc = f[3]
        forms = list(desc)[1:]
        i = 0
        if forms and _is_atom(forms[0]) and forms[0].text.startswith("$"):
            d.name = forms[0].text
            i = 1
        i, sig = self._parse_typeuse(forms, i)
        d.params = [(None, t) for t in sig.params]
        d.results = list(sig.results)
        return d

    def _scan_func(self, f: SExpr) -> _FuncDecl:
        d = _FuncDecl(f)
        forms = list(f)[1:]
        i = 0
        if forms and _is_atom(forms[i]) and forms[i].text.startswith("$"):
            d.name = forms[i].text
            i += 1
        while i < len(forms) and _head(forms[i]) in ("export", "import"):
            if _head(forms[i]) == "export":
                d.export_name = _unquote(forms[i][1])
            else:
                d.is_import = True
            i += 1
        params: list[tuple[str | None, str]] = []   # inline, with their names
        i, sig = self._parse_typeuse(forms, i, params)
        d.params = params or [(None, t) for t in sig.params]
        d.results = list(sig.results)
        while i < len(forms) and _head(forms[i]) == "local":
            sx = forms[i]
            if len(sx) == 3 and _is_atom(sx[1]) and sx[1].text.startswith("$"):
                d.locals.append((sx[1].text, self._valtype(sx[2])))
            else:
                for a in sx[1:]:
                    d.locals.append((None, self._valtype(a)))
            i += 1
        d.body_forms = forms[i:]
        return d

    def _scan_table(self, f: SExpr):
        for item in f:
            if isinstance(item, SExpr) and _head(item) == "elem":
                return [a.text for a in item[1:]]
        return None

    def _scan_elem(self, f: SExpr) -> tuple[int, list[str]]:
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
                offset = _parse_number(inner[1].text, "i32", inner[1])
                i += 1
        if i < len(f) and _is_atom(f[i], "func"):
            i += 1
        return offset, [a.text for a in f[i:]]

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

    def _parse_body(self, forms, func: FunctionIR) -> list[InstructionIR]:
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
                open_.append((inst, out))
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
                out.append(self._plain_instruction(name, head, src, func, labels))
            if src is not it and not src.done():
                raise ParseError(f"{name}: unexpected immediate", head.line, head.col)
        if open_:
            raise ParseError("missing 'end' for structured instruction", 0, 0)
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
                           func, labels) -> InstructionIR:
        if not op.is_supported(opname):
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
            inst.var = self._resolve_var(opname, a, func)
        elif opname == "call":
            a = take_atom("a function")
            inst.callee = self._func_name_for_ref(a.text)
        elif opname == "call_indirect":
            forms = it.take_heads(("type", "param", "result"))
            _, sig = self._parse_typeuse(forms, 0)
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
        elif opname in op.SIMPLE_OPCODES and \
                op.SIMPLE_OPCODES[opname][0] in (op.LOAD, op.STORE):
            while not it.done() and _is_atom(it.peek()) and \
                    ("=" in it.peek().text):
                a = it.take()
                key, _, val = a.text.partition("=")
                if key == "offset":
                    inst.offset = _parse_number(val, "i32", a)
                elif key != "align":
                    raise ParseError(f"unknown memarg {key!r}", where.line, where.col)
        return inst

    def _resolve_var(self, opname: str, a: Atom, func: FunctionIR) -> str:
        ref = a.text
        if opname.startswith("local."):
            names = [n for n, _ in func.params] + [n for n, _ in func.locals]
            if ref.startswith("$"):
                if ref not in names:
                    raise NameResolutionError(f"unknown local {ref}", a.line, a.col)
                return ref
            if not ref.isdecimal() or int(ref) >= len(names):
                raise NameResolutionError(f"bad local reference {ref!r}", a.line, a.col)
            return names[int(ref)]
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
