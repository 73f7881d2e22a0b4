"""Seeded WAT generators for the benchmark's workloads.

The same seed always gives byte-identical WAT. Different seeds give modules
that differ in names, constants, operators and layout but have the same
shape, so that runs with different seeds measure the same amount of work:

* `ddg_loops_module` fixes the loop structure. Within each block of four
  loops the seed permutes which local each loop accumulates into and draws
  the constants and operators (of the same instruction type), so every local
  heads a dependency chain of the same length and the graph's counts are
  identical for every seed.
* `app_module` draws the control structure of its filler functions from a
  fixed shape seed. The seed picks the constants, renames the fillers and
  their parameters and locals, and shuffles the order of all functions. The
  planted patterns are the same for every seed; only their place changes.
"""

from __future__ import annotations

import random
import re

from patterns import CLEAN, IMPORTS, TABLE_FUNCS, VULN, VULN_FINDINGS

ARITH = ("i32.add", "i32.sub", "i32.xor", "i32.or")
BINOPS = ("i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor")
RELOPS = ("i32.eq", "i32.ne", "i32.lt_s", "i32.gt_s", "i32.le_s", "i32.ge_s")
UNOPS = ("i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz")

Finding = tuple[int, str, str, str]   # (query id, kind, function, label)


# -- ddg-loops ------------------------------------------------------------------

def ddg_loops_module(seed: int, n_loops: int) -> str:
    """One function of `n_loops` counting loops over four shared locals.

    Each loop is 29 instructions: six read-modify-write steps on one local,
    then a bound test that branches back. The dependency set of a local
    grows with every loop that writes it, so the DDG is quadratic in
    `n_loops`. There are no calls and no stores, so no detector fires.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    order: list[int] = []
    for loop_id in range(n_loops):
        if loop_id % 4 == 0:
            order = [0, 1, 2, 3]
            rng.shuffle(order)
        a = f"$l{order[loop_id % 4]}"
        lab = f"$loop{loop_id}"
        lines.append(f"loop {lab}")
        for _ in range(6):
            lines.append(f"local.get {a}")
            lines.append(f"i32.const {rng.randrange(1, 64)}")
            lines.append(rng.choice(ARITH))
            lines.append(f"local.set {a}")
        lines.append(f"local.get {a}")
        lines.append(f"i32.const {rng.randrange(64, 1024)}")
        lines.append(rng.choice(RELOPS))
        lines.append(f"br_if {lab}")
        lines.append("end")
    body = "\n    ".join(lines)
    return ("(module\n"
            "  (memory 1)\n"
            "  (func $main (export \"main\")\n"
            "    (local $l0 i32) (local $l1 i32) (local $l2 i32) (local $l3 i32)\n"
            f"    {body}))\n")


# -- app-scan -------------------------------------------------------------------

class FillerGen:
    """Stack-correct i32 code with nested loops, calls and indirect calls.

    Statements are stack-neutral, expressions push exactly one i32, and
    branches only target labels that take no operands. Every filler has the
    signature (param i32 i32) (result i32) and may call the fillers
    generated before it, so the call graph is acyclic.
    """

    def __init__(self, rng: random.Random, values: random.Random, budget: int,
                 callees: list[str], max_loop_depth: int = 3):
        self.rng = rng          # control structure and operands
        self.values = values    # constant payloads only
        self.budget = budget
        self.callees = callees
        self.max_loop_depth = max_loop_depth
        self.vars = ["$p0", "$p1", "$l0", "$l1", "$l2"]
        self.locals = self.vars[2:]
        self.label_n = 0
        self.lines: list[str] = []

    def spend(self, n: int = 1) -> None:
        self.budget -= n

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def expr(self, depth: int = 0) -> None:
        """Push exactly one i32; each instruction spends one unit of budget."""
        rng = self.rng
        roll = rng.random()
        if depth >= 3 or self.budget < 4 or roll < 0.35:
            self.spend()
            if rng.random() < 0.5:
                self.emit(f"i32.const {self.values.randrange(64)}")
            else:
                self.emit(f"local.get {rng.choice(self.vars)}")
            return
        self.spend()
        if roll < 0.45:
            self.expr(depth + 1)
            self.emit(rng.choice(UNOPS))
        elif roll < 0.52:
            self.emit("global.get $g0")
        elif roll < 0.60:
            self.expr(depth + 1)
            self.emit("call $h1")
        elif roll < 0.64:
            self.emit("call $h0")
        elif roll < 0.70 and self.callees:
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.emit(f"call {rng.choice(self.callees)}")
        elif roll < 0.74:
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.emit("call_indirect (param i32) (result i32)")
        elif roll < 0.80:
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.emit("select")
        else:
            self.expr(depth + 1)
            self.expr(depth + 1)
            self.emit(rng.choice(BINOPS + RELOPS))

    def statement(self, loop_depth: int, labels: list[str]) -> None:
        """A stack-neutral statement; spends one unit per instruction."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.28 or self.budget < 10:
            self.spend()
            self.expr()
            self.emit(f"local.set {rng.choice(self.locals)}")
        elif roll < 0.36:
            self.spend()
            self.expr()
            self.emit("global.set $g0")
        elif roll < 0.42:
            self.spend()
            self.expr()
            self.emit("drop")
        elif roll < 0.52:
            self.spend(3)
            acc = rng.choice(self.locals)
            self.emit(f"local.get {acc}")
            self.expr()
            self.emit("i32.add")
            self.emit(f"local.set {acc}")
        elif roll < 0.60 and labels:
            self.spend()
            self.expr()
            self.emit(f"br_if {rng.choice(labels)}")
        elif roll < 0.70:
            self.spend()
            self.expr()
            self.emit("if")
            self.statement(loop_depth, labels)
            self.emit("else")
            self.statement(loop_depth, labels)
            self.emit("end")
        elif roll < 0.78:
            self.spend()
            self.label_n += 1
            lab = f"$b{self.label_n}"
            self.emit(f"block {lab}")
            for _ in range(rng.randrange(1, 3)):
                self.statement(loop_depth, labels + [lab])
            self.emit("end")
        elif roll < 0.92 and loop_depth < self.max_loop_depth:
            self.spend(8)
            self.label_n += 1
            lab = f"$L{self.label_n}"
            acc = rng.choice(self.locals)
            self.emit(f"loop {lab}")
            for _ in range(rng.randrange(1, 4)):
                self.statement(loop_depth + 1, labels + [lab])
            self.emit(f"local.get {acc}")
            self.emit(f"i32.const {self.values.randrange(1, 8)}")
            self.emit("i32.add")
            self.emit(f"local.tee {acc}")
            self.emit(f"i32.const {self.values.randrange(16, 256)}")
            self.emit("i32.lt_s")
            self.emit(f"br_if {lab}")
            self.emit("end")
        else:
            self.spend()
            self.expr()
            self.emit(f"local.set {rng.choice(self.locals)}")

    def build(self, name: str, export: bool, renames: dict[str, str]) -> str:
        """Finish the body; `renames` maps variable names to their final names."""
        while self.budget > 6:
            self.statement(0, [])
        self.expr()
        body = "\n    ".join(_VAR.sub(lambda m: renames[m.group(0)], line)
                              for line in self.lines)
        exp = f' (export "{name[1:]}")' if export else ""
        return (f"  (func {name}{exp} (param $p0 i32) (param $p1 i32) (result i32)\n"
                f"    (local $l0 i32) (local $l1 i32) (local $l2 i32)\n"
                f"    {body})\n")


_VAR = re.compile(r"\$[pl]\d\b")
SHAPE_SEED = 20220426


def filler(shape: random.Random, values: random.Random, name: str, insts: int,
           callees: list[str], export: bool) -> str:
    """A filler of exactly `insts` instructions holding exactly two loops.

    Drafts that miss either target are redrawn from `shape`. `values` draws
    the constants and a renaming of the parameters among themselves and of
    the locals among themselves, which leaves the dataflow unchanged.
    """
    params, locals_ = ["$p0", "$p1"], ["$l0", "$l1", "$l2"]
    renames = dict(zip(params, values.sample(params, 2)))
    renames.update(zip(locals_, values.sample(locals_, 3)))
    while True:
        gen = FillerGen(shape, values, insts, callees)
        text = gen.build(name, export, renames)
        loops = sum(1 for line in gen.lines if line.startswith("loop"))
        if gen.budget == 0 and loops == 2:
            return text


HELPERS = """\
  (func $h0 (result i32)
    i32.const 1)
  (func $h1 (param $a i32) (result i32)
    local.get $a)
"""


def app_module(seed: int, copies: int, fillers: int,
               filler_insts: int) -> tuple[str, list[Finding]]:
    """A multi-function application module and its answer key.

    It holds `copies` renamed copies of the 20 planted patterns and
    `fillers` generated functions of `filler_insts` instructions each, under
    one import section, one `$sp` global and one table. A quarter of the
    fillers are exported. The answer key lists every finding the built-in
    detectors must report, sorted; clean patterns and fillers must report
    nothing.
    """
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    pieces: list[str] = []
    table: list[str] = []
    key: list[Finding] = []
    for k in range(copies):
        for qid in range(1, 11):
            for vuln in (True, False):
                suffix = f"_q{qid:02d}{'v' if vuln else 'c'}{k}"
                pieces.append((VULN if vuln else CLEAN)[qid].format(s=suffix))
                table += [f + suffix for f in TABLE_FUNCS.get((qid, vuln), ())]
                if vuln:
                    kind, func, label = VULN_FINDINGS[qid]
                    key.append((qid, kind, func + suffix, label))
    names = [f"$fn{i}" for i in rng.sample(range(fillers), fillers)]
    exported = set(shape.sample(names, fillers // 4))
    for i, name in enumerate(names):
        pieces.append(filler(shape, rng, name, filler_insts,
                             names[max(0, i - 8):i], name in exported))
    table += shape.sample(names, min(len(names), 8))
    rng.shuffle(pieces)
    return ("(module\n"
            + IMPORTS
            + "  (memory 1)\n"
            + "  (global $sp (mut i32) (i32.const 65536))\n"
            + "  (global $g0 (mut i32) (i32.const 0))\n"
            + HELPERS
            + "".join(pieces)
            + f"  (table funcref (elem {' '.join(table)}))\n"
            + ")\n"), sorted(key)
