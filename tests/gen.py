"""Random and synthetic WAT program generators for oracle-based tests.

Programs are valid by construction: statement generators are stack-neutral,
expression generators push exactly one value, and branches only target labels
that require no operands.
"""

from __future__ import annotations

import random

from wasmcpg.ir import ELSE, ENTER, PLAIN, instruction_arity, walk

BINOPS = ("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor")
RELOPS = ("i32.eq", "i32.ne", "i32.lt_s", "i32.gt_s")
UNOPS = ("i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz")


class FuncGen:
    def __init__(self, rng: random.Random, max_insts: int = 60,
                 max_loop_depth: int = 3, n_locals: int = 3, n_params: int = 2):
        self.rng = rng
        self.budget = max_insts
        self.max_loop_depth = max_loop_depth
        self.locals = [f"$l{i}" for i in range(n_locals)]
        self.params = [f"$p{i}" for i in range(n_params)]
        self.label_n = 0
        self.lines: list[str] = []

    def spend(self, n: int = 1) -> bool:
        if self.budget < n:
            return False
        self.budget -= n
        return True

    def var(self) -> str:
        return self.rng.choice(self.locals + self.params)

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def expr(self, depth: int = 0) -> None:
        """Push exactly one i32."""
        roll = self.rng.random()
        if depth >= 3 or self.budget < 4 or roll < 0.35:
            if self.rng.random() < 0.5 and self.spend():
                self.emit(f"i32.const {self.rng.randrange(64)}")
            elif self.spend():
                self.emit(f"local.get {self.var()}")
            else:
                self.emit("i32.const 0")
            return
        if roll < 0.45 and self.spend(2):
            self.expr(depth + 1)
            self.emit(self.rng.choice(UNOPS))
            return
        if roll < 0.55 and self.spend():
            self.emit("global.get $g0")
            return
        if roll < 0.65 and self.spend(2):
            self.expr(depth + 1)
            self.emit("call $h1")
            return
        if roll < 0.72 and self.spend():
            self.emit("call $h0")
            return
        if roll < 0.80 and self.spend(4):
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.emit("select")
            return
        if self.spend(3):
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.emit(self.rng.choice(BINOPS + RELOPS))
            return
        self.emit("i32.const 1")

    def statement(self, loop_depth: int, labels: list[str]) -> None:
        roll = self.rng.random()
        if roll < 0.30 and self.spend(2):
            self.expr()
            self.emit(f"local.set {self.rng.choice(self.locals)}")
        elif roll < 0.40 and self.spend(2):
            self.expr()
            self.emit("global.set $g0")
        elif roll < 0.48 and self.spend(2):
            self.expr()
            self.emit("drop")
        elif roll < 0.56 and self.spend(3):
            # accumulate: keeps loop fixpoints non-trivial
            acc = self.rng.choice(self.locals)
            self.emit(f"local.get {acc}")
            self.expr()
            self.emit("i32.add")
            self.emit(f"local.set {acc}")
        elif roll < 0.64 and labels and self.spend(2):
            self.expr()
            self.emit(f"br_if {self.rng.choice(labels)}")
        elif roll < 0.74 and self.spend(5):
            self.expr()
            self.emit("if")
            self.statement(loop_depth, labels)
            self.emit("else")
            self.statement(loop_depth, labels)
            self.emit("end")
        elif roll < 0.82 and self.spend(4):
            self.label_n += 1
            lab = f"$blk{self.label_n}"
            self.emit(f"block {lab}")
            for _ in range(self.rng.randrange(1, 3)):
                self.statement(loop_depth, labels + [lab])
            self.emit("end")
        elif roll < 0.92 and loop_depth < self.max_loop_depth and self.spend(8):
            self.label_n += 1
            lab = f"$lp{self.label_n}"
            acc = self.rng.choice(self.locals)
            self.emit(f"loop {lab}")
            for _ in range(self.rng.randrange(1, 3)):
                self.statement(loop_depth + 1, labels + [lab])
            self.emit(f"local.get {acc}")
            self.expr()
            self.emit("i32.add")
            self.emit(f"local.tee {acc}")
            self.emit(f"br_if {lab}")
            self.emit("end")
        elif self.spend(2):
            self.expr()
            self.emit(f"local.set {self.rng.choice(self.locals)}")

    def build(self, name: str, with_result: bool) -> str:
        params = " ".join(f"(param {p} i32)" for p in self.params)
        result = "(result i32)" if with_result else ""
        locals_ = " ".join(f"(local {l} i32)" for l in self.locals)
        while self.budget > 6:
            self.statement(0, [])
        if with_result:
            self.expr()
        body = "\n    ".join(self.lines)
        return f"  (func {name} {params} {result}\n    {locals_}\n    {body})"


MODULE_PRELUDE = """(module
  (memory 1)
  (global $g0 (mut i32) (i32.const 0))
  (func $h0 (result i32)
    i32.const 1)
  (func $h1 (param $a i32) (result i32)
    local.get $a)
"""


def random_module(seed: int, max_insts: int = 60, max_loop_depth: int = 3) -> str:
    rng = random.Random(seed)
    gen = FuncGen(rng, max_insts=max_insts, max_loop_depth=max_loop_depth)
    func = gen.build("$main", with_result=rng.random() < 0.5)
    return MODULE_PRELUDE + func + ")\n"


def random_flat_sequence(seed: int, max_insts: int = 30) -> str:
    """Straight-line body only (no control flow); for folding oracles."""
    rng = random.Random(seed)
    gen = FuncGen(rng, max_insts=max_insts)
    while gen.budget > 4:
        roll = rng.random()
        if roll < 0.5 and gen.spend(2):
            gen.expr()
            gen.emit(f"local.set {rng.choice(gen.locals)}")
        elif roll < 0.75 and gen.spend(2):
            gen.expr()
            gen.emit("drop")
        elif gen.spend(3):
            gen.expr()
            gen.expr()
            gen.emit("i32.store offset=0")
    body = "\n    ".join(gen.lines)
    return (MODULE_PRELUDE +
            "  (func $main (param $p0 i32) (param $p1 i32)\n"
            "    (local $l0 i32) (local $l1 i32) (local $l2 i32)\n"
            f"    {body}))\n")


def scaling_module(n_insts: int) -> str:
    """Loop-heavy program of roughly n_insts instructions (deterministic)."""
    lines: list[str] = []
    count = 0
    loop_id = 0
    while count < n_insts:
        loop_id += 1
        lab = f"$sc{loop_id}"
        a = f"$l{loop_id % 4}"
        lines.append(f"loop {lab}")
        for k in range(6):
            lines.append(f"local.get {a}")
            lines.append(f"i32.const {k + 1}")
            lines.append("i32.add")
            lines.append(f"local.set {a}")
        lines.append(f"local.get {a}")
        lines.append("i32.const 100")
        lines.append("i32.lt_s")
        lines.append(f"br_if {lab}")
        lines.append("end")
        count += 29
    body = "\n    ".join(lines)
    return (MODULE_PRELUDE +
            "  (func $main\n"
            "    (local $l0 i32) (local $l1 i32) (local $l2 i32) (local $l3 i32)\n"
            f"    {body}))\n")


def nested_blocks(depth: int) -> str:
    """`depth` flat `block`s, each inside the last."""
    return "(module (func $f " + "block " * depth + "end " * depth + "))"


def nested_expression(depth: int) -> str:
    """A folded expression `depth` operators deep."""
    return ("(module (func $f (result i32) "
            + "(i32.add (i32.const 1) " * depth + "(i32.const 0)" + ")" * depth + "))")


def fold_module(module, by_index: bool = False) -> str:
    """`module` printed in folded form: each construct as `(block ...)`,
    `(loop ...)` or `(if ... (then ...) (else ...)?)`, each instruction as
    `(op imm* e*)` over the single-value forms just before it that it pops.

    A folded form abbreviates its flat sequence, so this parses back to
    `module`. A module keeps no global initialiser and no import module
    name, so each global starts at zero and each import is one of `env`.
    With `by_index`, each reference to a local, a global or a function, the
    table's included, is written as its index, as `wasm2wat` prints it;
    declarations keep their names.
    """

    def refs(names) -> dict[str, str]:   # a declared name -> how a reference writes it
        return {name: str(i) if by_index else name for i, name in enumerate(names)}

    spaces = {"global": refs(gl.name for gl in module.globals),
              "call": refs(f.name for f in module.functions)}
    lines = ["(module" + (f" {module.name}" if module.name else "")]
    for gl in module.globals:
        ty = f"(mut {gl.value_type})" if gl.mutable else gl.value_type
        zero = "0" if gl.value_type in ("i32", "i64") else "0.0"
        lines.append(f"  (global {gl.name} {ty} ({gl.value_type}.const {zero}))")
    for func in module.functions:
        head = f"  (func {func.name}"
        if func.is_import:
            head += f' (import "env" "{func.name.lstrip("$")}")'
        if func.is_export:
            head += f' (export "{func.export_name}")'
        head += "".join(f" (param {name} {ty})" for name, ty in func.params)
        head += "".join(f" (result {ty})" for ty in func.results)
        spaces["local"] = refs(name for name, _ in func.params + func.locals)
        lines += [head, *(f"    (local {name} {ty})" for name, ty in func.locals),
                  _fold_body(func, module, spaces), "  )"]
    if module.table:
        names = " ".join(spaces["call"][module.functions[i].name] for i in module.table)
        lines.append(f"  (table funcref (elem {names}))")
    return "\n".join(lines) + "\n)\n"


def _fmt_plain(inst, spaces) -> str:
    """A plain instruction and its immediates, as flat text; `spaces` maps
    "local", "global" and "call" to how each declared name is referred to."""
    o = inst.opcode
    parts = [o]
    if o.endswith(".const"):
        parts.append(repr(inst.value) if isinstance(inst.value, float) else str(inst.value))
    elif inst.var is not None:
        parts.append(spaces[o.partition(".")[0]][inst.var])
    elif o == "call":
        parts.append(spaces["call"][inst.callee])
    elif o == "call_indirect":
        parts += [f"(param {p})" for p in inst.type_use.params]
        parts += [f"(result {r})" for r in inst.type_use.results]
    elif o in ("br", "br_if"):
        parts.append(inst.label)
    elif o == "br_table":
        parts.extend(inst.br_targets)
    if inst.offset:   # a load's or a store's
        parts.append(f"offset={inst.offset}")
    return " ".join(parts)


def _form(head: str, forms: list) -> str:
    return "(" + " ".join([head] + [text for text, _ in forms]) + ")"


def _operands(forms: list, n: int) -> list:
    """Pop the last `n` forms if each leaves one value, else none."""
    tail = forms[len(forms) - n:] if 0 < n <= len(forms) else []
    if any(values != 1 for _, values in tail):
        return []
    del forms[len(forms) - len(tail):]
    return tail


def _fold_body(func, module, spaces) -> str:
    # innermost last: [construct, its forms, its then-forms once in its else];
    # a form is (text, number of values it leaves)
    frames: list[list] = [[None, [], None]]
    for inst, ev in walk(func.body):
        forms = frames[-1][1]
        if ev == PLAIN:
            nargs, nres = instruction_arity(inst, module)
            forms.append((_form(_fmt_plain(inst, spaces), _operands(forms, nargs)), nres))
        elif ev == ENTER:
            frames.append([inst, [], None])
        elif ev == ELSE:
            frames[-1][1:] = [[], forms]
            continue
        else:
            _, body, then = frames.pop()
            owner, parent = frames[-1][:2]
            result = f" (result {inst.value_type or 'i32'})" if inst.nresults else ""
            if inst.opcode != "if":
                if inst.block_params:   # an if-wrapper block prints as its if
                    parent.extend(body)
                else:
                    head = f"{inst.opcode} {inst.label}{result}"
                    parent.append((_form(head, body), inst.nresults))
                continue
            label, cond_forms = inst.label, parent
            if owner is not None and owner.block_params:   # under its wrapper
                label, cond_forms = owner.label, frames[-2][1]
            arms = [_form("then", body if then is None else then)]
            if then is not None:
                arms.append(_form("else", body))
            head = f"if {label}{result}"
            parent.append((_form(head, _operands(cond_forms, 1) + [(a, 0) for a in arms]),
                           inst.nresults))
    return "    " + "\n    ".join(text for text, _ in frames[0][1])
