"""In-memory module representation produced by the WAT frontend.

Function bodies are flat instruction lists; block/loop/if carry their nested
bodies on the instruction itself. Folded source expressions are linearized by
the parser, so builders always see execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

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

    Branches and `return` also move the values their target receives: the
    target label's result count (from `label_results`, keyed by label name)
    or the enclosing function's. Without that context a branch or `return`
    counts only its own operands (the br_if/br_table index), which is what
    the dataflow pops; the values it carries stay on the abstract stack.
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
        return (func.nresults if func is not None else 0), 0
    if o not in ("br", "br_if", "br_table"):
        raise ValidationError(f"no arity rule for opcode {o!r}")
    key = inst.br_targets[-1] if o == "br_table" else inst.label
    carried = label_results.get(key, 0) if label_results else 0
    return (0 if o == "br" else 1) + carried, (carried if o == "br_if" else 0)


# hook(owner, body, rooted, values): see validate_function
Hook = Callable[[object, Optional[list], list, list], None]

_STRUCTURED = frozenset(("block", "loop", "if"))
_ENDS_REACH = frozenset(("br", "br_table", "return", "unreachable"))


def validate_function(func: FunctionIR, module: ModuleIR,
                      hook: Hook | None = None) -> None:
    """The one walk over a function body's value stack: it validates and folds.

    The stack holds the instruction producing each value. Each body gets a
    frame of its own, seeded with the producers of the values entering it
    (block parameters). Code after br/br_table/return/unreachable is dead, as
    under the validator's polymorphic stack: its instructions are unchecked
    statements, and a dead construct's body is walked as reachable with `None`
    producers for its entry values. A reachable body must end at its declared
    result count. `hook`, if given, sees the folding:
    - `hook(inst, None, operands, ())` for each reachable non-construct
      instruction that pops values, in push order;
    - `hook(owner, body, rooted, values)` after each body of a construct or
      of `func`: its statements, then the values left on its frame. An `if`'s
      condition producer leads its then-body's `rooted`.
    """
    arity = op.SIMPLE_OPCODES

    def walk(seq: list[InstructionIR], stack: list, results: int,
             labels: dict[str, int]) -> tuple[list, list]:
        rooted: list = []
        dead = False
        for inst in seq:
            o = inst.opcode
            if o in _STRUCTURED:
                inner = dict(labels)
                # br to a loop label carries no operands in the MVP
                inner[inst.label] = 0 if o == "loop" else inst.nresults
                if dead:
                    head, entry = [], [None] * inst.block_params
                else:
                    cut = len(stack) - (1 if o == "if" else inst.block_params)
                    if cut < 0:
                        raise ValidationError(
                            f"stack underflow at {o} (#{inst.source_order})")
                    # an if pops its condition; block parameters enter the frame
                    head, entry = (stack[cut:], []) if o == "if" else ([], stack[cut:])
                    del stack[cut:]
                r, v = walk(inst.body, entry, inst.nresults, inner)
                if hook is not None:
                    hook(inst, inst.body, head + r, v)
                if o == "if":
                    if inst.has_else:
                        r, v = walk(inst.else_body, [], inst.nresults, inner)
                        if hook is not None:
                            hook(inst, inst.else_body, r, v)
                    elif inst.nresults:
                        raise ValidationError("if with results requires an else branch")
                if dead or not inst.nresults:
                    rooted.append(inst)
                else:
                    stack.append(inst)
                continue
            if dead:
                rooted.append(inst)
                continue
            spec = arity.get(o)
            if spec is not None:
                _, nargs, nres = spec
            else:
                nargs, nres = instruction_arity(inst, module, func, labels)
            if nargs:
                cut = len(stack) - nargs
                if cut < 0:
                    raise ValidationError(
                        f"stack underflow at {o} (#{inst.source_order}): "
                        f"need {nargs}, have {len(stack)}")
                if hook is not None:
                    hook(inst, None, stack[cut:], ())
                del stack[cut:]
            # at most one result: the parser rejects multi-value signatures
            if nres:
                stack.append(inst)
            else:
                rooted.append(inst)
            if o in _ENDS_REACH:
                dead = True
        if not dead and len(stack) != results:
            raise ValidationError(
                f"block leaves {len(stack)} values, declared {results}")
        return rooted, stack

    if not func.is_import:
        rooted, values = walk(func.body, [], func.nresults, {"$__func__": func.nresults})
        if hook is not None:
            hook(func, func.body, rooted, values)


def validate_module(module: ModuleIR) -> None:
    for idx in module.table:
        if not 0 <= idx < len(module.functions):
            raise ValidationError(f"table entry {idx} references no function")
    for f in module.functions:
        validate_function(f, module)


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
