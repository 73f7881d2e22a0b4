"""In-memory module representation produced by the WAT frontend.

Function bodies are flat instruction lists; block/loop/if carry their nested
bodies on the instruction itself. Folded source expressions are linearized by
the parser, so builders always see execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ValidationError
from . import opcodes as op


@dataclass(frozen=True)
class Signature:
    params: tuple[str, ...]
    results: tuple[str, ...]

    def text(self) -> str:
        return "(" + ",".join(self.params) + ")->(" + ",".join(self.results) + ")"


@dataclass
class InstructionIR:
    opcode: str
    source_order: int = 0
    # opcode-specific immediates
    value: int | float | None = None          # const payload
    value_type: str | None = None             # const type (i32/i64/f32/f64)
    var: str | None = None                    # local.*/global.* variable name
    label: str | None = None                  # br/br_if target or block/loop/if label
    callee: str | None = None                 # call target name
    type_use: Optional[Signature] = None      # call_indirect signature
    offset: int = 0                           # load/store offset
    br_targets: list[str] = field(default_factory=list)  # br_table cases (last = default)
    nresults: int = 0                         # block/loop/if declared results
    body: list["InstructionIR"] = field(default_factory=list)
    else_body: list["InstructionIR"] = field(default_factory=list)
    has_else: bool = False
    block_params: int = 0                     # values entering the frame (if-wrapper blocks)

    def is_structured(self) -> bool:
        return self.opcode in ("block", "loop", "if")


@dataclass
class GlobalIR:
    name: str
    value_type: str
    mutable: bool


@dataclass
class FunctionIR:
    name: str
    index: int
    params: list[tuple[str, str]] = field(default_factory=list)   # (name, type)
    locals: list[tuple[str, str]] = field(default_factory=list)
    results: list[str] = field(default_factory=list)
    body: list[InstructionIR] = field(default_factory=list)
    is_import: bool = False
    is_export: bool = False
    export_name: str | None = None

    @property
    def signature(self) -> Signature:
        return Signature(tuple(t for _, t in self.params), tuple(self.results))

    @property
    def nargs(self) -> int:
        return len(self.params)

    @property
    def nresults(self) -> int:
        return len(self.results)


@dataclass
class ModuleIR:
    name: str = ""
    functions: list[FunctionIR] = field(default_factory=list)
    globals: list[GlobalIR] = field(default_factory=list)
    table: list[int] = field(default_factory=list)   # function indices, slot order

    def function_by_name(self, name: str) -> FunctionIR:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def global_names(self) -> list[str]:
        return [g.name for g in self.globals]


def instruction_arity(
    inst: InstructionIR,
    module: ModuleIR,
    func: FunctionIR | None = None,
    label_results: dict[str, int] | None = None,
) -> tuple[int, int]:
    """Stack consumption/production of one instruction, per MVP typing.

    Branches and `return` need context: the target label's result count (taken
    from `label_results`, keyed by label name) and the enclosing function.
    """
    o = inst.opcode
    if o in op.SIMPLE_OPCODES:
        _, nargs, nres = op.SIMPLE_OPCODES[o]
        return nargs, nres
    if o == "call":
        callee = module.function_by_name(inst.callee)
        return callee.nargs, callee.nresults
    if o == "call_indirect":
        sig = inst.type_use
        if sig is None:
            raise ValidationError("call_indirect without a resolvable signature")
        return len(sig.params) + 1, len(sig.results)
    if o in ("block", "loop"):
        return inst.block_params, inst.nresults
    if o == "if":
        return 1, inst.nresults
    if o == "return":
        if func is None:
            raise ValidationError("return outside a function context")
        return func.nresults, 0
    target_r = 0
    if label_results is not None and inst.opcode in ("br", "br_if", "br_table"):
        key = inst.label if o != "br_table" else (inst.br_targets[-1] if inst.br_targets else None)
        if key is not None and key in label_results:
            target_r = label_results[key]
    if o == "br":
        return target_r, 0
    if o == "br_if":
        return 1 + target_r, target_r
    if o == "br_table":
        return 1 + target_r, 0
    raise ValidationError(f"no arity rule for opcode {o!r}")


@dataclass
class FunctionStats:
    """Static facts the validator collects; the dataflow bound check reads them."""
    max_stack: int = 0
    instruction_count: int = 0


def validate_function(func: FunctionIR, module: ModuleIR) -> FunctionStats:
    """Check stack discipline through the nested body; mark nothing, just verify.

    Code after an unconditional transfer (br/return/unreachable/br_table) is
    dead: heights are not checked there, mirroring the validator's polymorphic
    stack. Each construct must fall out at base + nresults when reachable.
    """
    stats = FunctionStats()

    def walk(seq: list[InstructionIR], base: int, frame_results: int,
             labels: dict[str, int], height: int) -> None:
        dead = False
        for inst in seq:
            stats.instruction_count += 1
            if dead:
                if inst.is_structured():
                    inner = dict(labels)
                    inner[inst.label] = inst.nresults if inst.opcode != "loop" else 0
                    walk(inst.body, 0, inst.nresults, inner, inst.block_params)
                    if inst.opcode == "if":
                        walk(inst.else_body, 0, inst.nresults, inner, 0)
                continue
            if inst.is_structured():
                inner = dict(labels)
                # br to a loop label carries no operands in the MVP
                inner[inst.label] = 0 if inst.opcode == "loop" else inst.nresults
                if inst.opcode == "if":
                    if height - base < 1:
                        raise ValidationError(
                            f"stack underflow at {inst.opcode} (#{inst.source_order})")
                    height -= 1
                    walk(inst.body, height, inst.nresults, inner, height)
                    if inst.has_else:
                        walk(inst.else_body, height, inst.nresults, inner, height)
                    elif inst.nresults:
                        raise ValidationError("if with results requires an else branch")
                else:
                    bp = inst.block_params
                    if height - base < bp:
                        raise ValidationError(
                            f"stack underflow at {inst.opcode} (#{inst.source_order})")
                    walk(inst.body, height - bp, inst.nresults, inner, height)
                    height -= bp
                height += inst.nresults
                stats.max_stack = max(stats.max_stack, height)
                continue
            nargs, nres = instruction_arity(inst, module, func, labels)
            if height - base < nargs:
                raise ValidationError(
                    f"stack underflow at {inst.opcode} (#{inst.source_order}): "
                    f"need {nargs}, have {height - base}")
            height += nres - nargs
            stats.max_stack = max(stats.max_stack, height)
            if inst.opcode in ("br", "return", "unreachable", "br_table"):
                dead = True
        if not dead and height != base + frame_results:
            raise ValidationError(
                f"block leaves {height - base} values, declared {frame_results}")

    if func.is_import:
        return stats
    walk(func.body, 0, func.nresults, {"$__func__": func.nresults}, 0)
    return stats


def validate_module(module: ModuleIR) -> dict[str, FunctionStats]:
    for idx in module.table:
        if not 0 <= idx < len(module.functions):
            raise ValidationError(f"table entry {idx} references no function")
    return {f.name: validate_function(f, module) for f in module.functions}


# ---------------------------------------------------------------------------
# Pretty printer (flat form); parse(format(parse(s))) is structurally stable.

def _fmt_value(inst: InstructionIR) -> str:
    v = inst.value
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fmt_inst(inst: InstructionIR, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    o = inst.opcode
    label = inst.label
    if o == "block" and inst.block_params == 1 and len(inst.body) == 1 \
            and inst.body[0].opcode == "if":
        # collapse the if-wrapper back to a labeled if
        inst, o = inst.body[0], "if"
    if o in ("block", "loop", "if"):
        head = f"{pad}{o} {label}"
        if inst.nresults:
            head += f" (result {inst.value_type or 'i32'})"
        out.append(head)
        for i in inst.body:
            _fmt_inst(i, indent + 1, out)
        if inst.has_else:
            out.append(f"{pad}else")
            for i in inst.else_body:
                _fmt_inst(i, indent + 1, out)
        out.append(f"{pad}end")
        return
    parts = [o]
    if o.endswith(".const"):
        parts.append(_fmt_value(inst))
    elif inst.var is not None:
        parts.append(inst.var)
    elif o == "call":
        parts.append(inst.callee)
    elif o == "call_indirect":
        sig = inst.type_use
        for p in sig.params:
            parts.append(f"(param {p})")
        for r in sig.results:
            parts.append(f"(result {r})")
    elif o in ("br", "br_if"):
        parts.append(inst.label)
    elif o == "br_table":
        parts.extend(inst.br_targets)
    if inst.opcode in op.SIMPLE_OPCODES and op.SIMPLE_OPCODES[o][0] in ("Load", "Store"):
        if inst.offset:
            parts.append(f"offset={inst.offset}")
    out.append(pad + " ".join(parts))


def format_module(module: ModuleIR) -> str:
    """Emit the module back as flat WAT."""
    lines = ["(module" + (f" {module.name}" if module.name else "")]
    for g in module.globals:
        ty = f"(mut {g.value_type})" if g.mutable else g.value_type
        init = "0" if g.value_type in ("i32", "i64") else "0.0"
        lines.append(f"  (global {g.name} {ty} ({g.value_type}.const {init}))")
    for f in module.functions:
        head = f"  (func {f.name}"
        if f.is_import:
            head += ' (import "env" "' + f.name.lstrip("$") + '")'
        if f.is_export:
            head += f' (export "{f.export_name or f.name.lstrip("$")}")'
        for name, ty in f.params:
            head += f" (param {name} {ty})"
        for ty in f.results:
            head += f" (result {ty})"
        lines.append(head)
        for name, ty in f.locals:
            lines.append(f"    (local {name} {ty})")
        body: list[str] = []
        for inst in f.body:
            _fmt_inst(inst, 2, body)
        lines.extend(body)
        lines.append("  )")
    if module.table:
        names = " ".join(module.functions[i].name for i in module.table)
        lines.append(f"  (table funcref (elem {names}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def iter_instructions(seq: Iterable[InstructionIR]):
    """Depth-first, source-order walk over nested instruction lists."""
    for inst in seq:
        yield inst
        if inst.is_structured():
            yield from iter_instructions(inst.body)
            yield from iter_instructions(inst.else_body)
