"""WAT (WebAssembly text format) frontend.

Parses the MVP subset this package analyzes. Folded expressions such as
``(i32.add (local.get $x) (i32.const 1))`` are linearized at parse time;
block/loop/if keep nested bodies. Unsupported opcodes are hard errors.

Accepted module fields: type, import, func, table, elem, global, export,
memory, data, start (the last three are checked for shape and otherwise
ignored). Imports may appear anywhere; function indices follow declaration
order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    if value_type in ("i32", "i64"):
        if not _INT_RE.match(text):
            raise ParseError(f"bad integer literal {text!r}", where.line, where.col)
        return int(t, 0)
    if not (_INT_RE.match(text) or _FLOAT_RE.match(text)):
        raise ParseError(f"bad float literal {text!r}", where.line, where.col)
    return float(int(t, 0)) if _INT_RE.match(text) else float(t)


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

    def _parse_typeuse(self, forms, i) -> tuple[int, Signature]:
        params: list[tuple[str | None, str]] = []
        results: list[str] = []
        type_ref: str | None = None
        if i < len(forms) and _head(forms[i]) == "type":
            ref = forms[i][1]
            type_ref = ref.text
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
            if h == "type":
                i = 1
                name = None
                if _is_atom(f[i]) and f[i].text.startswith("$"):
                    name = f[i].text
                    i += 1
                if _head(f[i]) != "func":
                    raise ParseError("(type ...) must wrap a (func ...) form", f.line, f.col)
                params: list[tuple[str | None, str]] = []
                results: list[str] = []
                self._parse_params_results(list(f[i])[1:], 0, params, results)
                sig = Signature(tuple(t for _, t in params), tuple(results))
                self.type_order.append(sig)
                key = name if name is not None else str(len(self.type_order) - 1)
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
                gl = self._parse_global(f)
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

        # assign names and indices
        for idx, d in enumerate(decls):
            if d.name is None:
                d.name = f"${idx}"
            if d.name in self.func_index:
                raise ParseError(f"duplicate function name {d.name}", d.sx.line, d.sx.col)
            self.func_index[d.name] = idx
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
                counter = [0]
                func.body = self._parse_body(d.body_forms, func, [], counter)
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

        validate_module(module)
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
        return list(self.func_index)[self._resolve_func_ref(ref)]

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
        if i < len(forms) and _head(forms[i]) == "type":
            j, sig = self._parse_typeuse(forms, i)
            d.params = [(None, t) for t in sig.params]
            d.results = list(sig.results)
            i = j
            # explicit params may still follow for naming; keep the typed ones
        params: list[tuple[str | None, str]] = []
        results: list[str] = []
        i = self._parse_params_results(forms, i, params, results)
        if params:
            d.params = params
        if results:
            d.results = results
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
                offset = int(inner[1].text.replace("_", ""), 0)
                i += 1
        if i < len(f) and _is_atom(f[i], "func"):
            i += 1
        return offset, [a.text for a in f[i:]]

    def _parse_global(self, f: SExpr) -> GlobalIR:
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
            name = f"$g{len(self.global_names)}"
            self.global_names.add(name)
        return GlobalIR(name=name, value_type=vt, mutable=mutable)

    # -- instruction parsing ---------------------------------------------------

    def _parse_body(self, forms, func: FunctionIR, label_stack: list[str],
                    counter: list[int]) -> list[InstructionIR]:
        """Parse a mixed flat/folded sequence until exhaustion.

        `label_stack` holds open labels, innermost last; numeric branch
        immediates index into it from the end.
        """
        out: list[InstructionIR] = []
        it = _FormCursor(forms)
        while not it.done():
            self._parse_one(it, out, func, label_stack, counter)
        return out

    def _parse_one(self, it: "_FormCursor", out: list[InstructionIR],
                   func: FunctionIR, labels: list[str], counter: list[int]) -> None:
        form = it.take()
        if isinstance(form, SExpr):
            self._parse_folded(form, out, func, labels, counter)
            return
        opname = form.text
        if opname in ("block", "loop"):
            inst = self._begin_structured(opname, it, form, counter)
            inst.body = self._parse_flat_block(it, func, labels + [inst.label],
                                               counter, inst, allow_else=False)
            out.append(inst)
            return
        if opname == "if":
            inst = self._begin_structured("if", it, form, counter)
            branch_label = inst.label
            inst.label = self._fresh_label("if")
            inst.body = self._parse_flat_block(it, func, labels + [branch_label],
                                               counter, inst, allow_else=True)
            out.append(self._finish_if(inst, branch_label))
            return
        if opname in ("else", "end"):
            raise ParseError(f"unexpected {opname!r}", form.line, form.col)
        out.append(self._plain_instruction(opname, form, it, func, labels, counter))

    def _begin_structured(self, opname: str, it: "_FormCursor", where: Atom,
                          counter: list[int]) -> InstructionIR:
        inst = InstructionIR(opcode=opname, source_order=counter[0])
        counter[0] += 1
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

    def _parse_flat_block(self, it: "_FormCursor", func, labels, counter,
                          inst: InstructionIR, allow_else: bool) -> list[InstructionIR]:
        body: list[InstructionIR] = []
        current = body
        while True:
            if it.done():
                raise ParseError("missing 'end' for structured instruction", 0, 0)
            nxt = it.peek()
            if _is_atom(nxt, "end"):
                it.take()
                if not it.done() and _is_atom(it.peek()) and it.peek().text.startswith("$"):
                    it.take()  # trailing label comment
                break
            if _is_atom(nxt, "else"):
                if not allow_else:
                    raise ParseError("'else' outside if", nxt.line, nxt.col)
                it.take()
                if not it.done() and _is_atom(it.peek()) and it.peek().text.startswith("$"):
                    it.take()
                inst.has_else = True
                inst.else_body = []
                current = inst.else_body
                continue
            self._parse_one(it, current, func, labels, counter)
        return body

    def _parse_folded(self, sx: SExpr, out: list[InstructionIR], func, labels,
                      counter: list[int]) -> None:
        h = _head(sx)
        if h is None:
            raise ParseError("empty expression", sx.line, sx.col)
        if h in ("block", "loop", "if"):
            it = _FormCursor(list(sx)[1:])
            inst = self._begin_structured(h, it, sx[0], counter)
            if h == "if":
                branch_label = inst.label
                inst.label = self._fresh_label("if")
                # folded if: condition expressions, then (then ...) (else ...)?
                while not it.done() and _head(it.peek()) not in ("then", "else"):
                    self._parse_one(it, out, func, labels, counter)
                if it.done() or _head(it.peek()) != "then":
                    raise ParseError("folded if requires a (then ...) form", sx.line, sx.col)
                then_sx = it.take()
                inst.body = self._parse_body(list(then_sx)[1:], func,
                                             labels + [branch_label], counter)
                if not it.done() and _head(it.peek()) == "else":
                    else_sx = it.take()
                    inst.has_else = True
                    inst.else_body = self._parse_body(list(else_sx)[1:], func,
                                                      labels + [branch_label], counter)
                if not it.done():
                    raise ParseError("junk after folded if", sx.line, sx.col)
                out.append(self._finish_if(inst, branch_label))
                return
            inst.body = self._parse_body(it.rest(), func,
                                         labels + [inst.label], counter)
            out.append(inst)
            return
        # plain folded op: (op imm* operand-exprs*)
        it = _FormCursor(list(sx)[1:])
        inst = self._plain_instruction(h, sx[0], it, func, labels, counter,
                                       folded_operands=out)
        out.append(inst)

    def _plain_instruction(self, opname: str, where: Atom, it: "_FormCursor",
                           func, labels, counter,
                           folded_operands: list | None = None) -> InstructionIR:
        if not op.is_supported(opname):
            raise UnsupportedOpcodeError(f"unsupported opcode {opname!r}",
                                         where.line, where.col)
        inst = InstructionIR(opcode=opname, source_order=counter[0])
        counter[0] += 1

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
                kv = it.take().text
                key, _, val = kv.partition("=")
                if key == "offset":
                    inst.offset = int(val.replace("_", ""), 0)
                elif key != "align":
                    raise ParseError(f"unknown memarg {key!r}", where.line, where.col)

        if folded_operands is not None:
            # remaining forms are operand expressions, evaluated before the op
            while not it.done():
                nxt = it.peek()
                if not isinstance(nxt, SExpr):
                    raise ParseError(f"{opname}: unexpected immediate {nxt.text!r}",
                                     nxt.line, nxt.col)
                self._parse_folded(it.take(), folded_operands, func, labels, counter)
            # re-number: operands execute before this instruction
            inst.source_order = counter[0]
            counter[0] += 1
        return inst

    def _resolve_var(self, opname: str, a: Atom, func: FunctionIR) -> str:
        ref = a.text
        if opname.startswith("local."):
            names = [n for n, _ in func.params] + [n for n, _ in func.locals]
            if ref.startswith("$"):
                if ref not in names:
                    raise NameResolutionError(f"unknown local {ref}", a.line, a.col)
                return ref
            idx = int(ref)
            if idx >= len(names):
                raise NameResolutionError(f"local index {idx} out of range", a.line, a.col)
            return names[idx]
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

    def rest(self):
        r = self.forms[self.i:]
        self.i = len(self.forms)
        return r

    def take_heads(self, heads) -> list:
        out = []
        while not self.done() and _head(self.peek()) in heads:
            out.append(self.take())
        return out


def parse_module(source: str) -> ModuleIR:
    """Parse WAT text into a validated ModuleIR."""
    try:
        return Parser(source).parse()
    except RecursionError:   # the parser recurses once or more per nesting level
        raise ParseError("nesting too deep") from None
