"""In-memory module representation produced by the WAT frontend.

Function bodies are flat instruction lists; block/loop/if carry their nested
bodies on the instruction itself. The parser unfolds folded source
expressions, so builders always see execution order. `walk` is the one
traversal of nested bodies: every pass over the IR (validation and AST
folding, node creation, CFG, dataflow order) iterates its events, so none
recurses and nesting depth is bounded by memory alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

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
    _by_name: dict[str, FunctionIR] = field(default_factory=dict, init=False,
                                            repr=False, compare=False)

    def function_by_name(self, name: str) -> FunctionIR:
        """The first function named `name`. The name map is rebuilt when its
        size no longer matches `functions`, e.g. after an append."""
        if len(self._by_name) != len(self.functions):
            self._by_name = {f.name: f for f in reversed(self.functions)}
        return self._by_name[name]


def instruction_arity(
    inst: InstructionIR,
    module: ModuleIR,
    func: FunctionIR | None = None,
    label_results: dict[str, int] | None = None,
) -> tuple[int, int]:
    """Stack consumption/production of one plain instruction, per MVP
    typing; each pass over `walk` handles block, loop and if itself.

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
    if o == "return":
        return (func.nresults if func is not None else 0), 0
    if o not in ("br", "br_if", "br_table"):
        raise ValidationError(f"no arity rule for opcode {o!r}")
    key = inst.br_targets[-1] if o == "br_table" else inst.label
    carried = label_results.get(key, 0) if label_results else 0
    return (0 if o == "br" else 1) + carried, (carried if o == "br_if" else 0)


# walk events: a plain instruction, and a construct's start, the start of its
# else body, and its end
PLAIN, ENTER, ELSE, EXIT = "plain", "enter", "else", "exit"

_STRUCTURED = frozenset(("block", "loop", "if"))


def walk(seq: Iterable[InstructionIR]) -> Iterator[tuple[InstructionIR, str]]:
    """Program-order events over nested bodies, driven by an explicit stack.

    A plain instruction yields `(inst, PLAIN)`. A construct yields
    `(inst, ENTER)`, its body's events, then `(inst, ELSE)` and its else
    body's events if it has an else, then `(inst, EXIT)`.
    """
    stack = [(None, iter(seq), None)]   # (owner, body iterator, event at its end)
    while stack:
        for inst in stack[-1][1]:
            if inst.opcode in _STRUCTURED:
                yield inst, ENTER
                if inst.has_else:
                    stack.append((inst, iter(inst.else_body), EXIT))
                stack.append((inst, iter(inst.body), ELSE if inst.has_else else EXIT))
                break
            yield inst, PLAIN
        else:
            owner, _, event = stack.pop()
            if owner is not None:
                yield owner, event


# hook(owner, body, rooted, values): see validate_function
Hook = Callable[[object, Optional[list], list, list], None]


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
    if func.is_import:
        return
    arity = op.SIMPLE_OPCODES
    # label -> values a branch to it carries; saved and restored per construct
    labels: dict[str, int] = {"$__func__": func.nresults}
    # the open body's frame; `outer` holds the enclosing ones, innermost last,
    # as (stack, rooted, dead, saved label entry)
    stack: list = []
    rooted: list = []
    dead = False
    outer: list[tuple] = []
    for inst, ev in walk(func.body):
        o = inst.opcode
        if ev == PLAIN:
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
            if o in op.ENDS_REACH:
                dead = True
        elif ev == ENTER:
            if dead:
                head, entry = [], [None] * inst.block_params
            else:
                cut = len(stack) - (1 if o == "if" else inst.block_params)
                if cut < 0:
                    raise ValidationError(
                        f"stack underflow at {o} (#{inst.source_order})")
                # an if pops its condition, which leads its then-body's
                # statements; block parameters enter the frame
                head, entry = (stack[cut:], []) if o == "if" else ([], stack[cut:])
                del stack[cut:]
            outer.append((stack, rooted, dead, labels.get(inst.label)))
            # br to a loop label carries no operands in the MVP
            labels[inst.label] = 0 if o == "loop" else inst.nresults
            stack, rooted, dead = entry, head, False
        else:   # ELSE or EXIT: a body of `inst` ends
            if not dead and len(stack) != inst.nresults:
                raise ValidationError(
                    f"block leaves {len(stack)} values, declared {inst.nresults}")
            if hook is not None:
                body = inst.else_body if ev == EXIT and inst.has_else else inst.body
                hook(inst, body, rooted, stack)
            if ev == ELSE:
                stack, rooted, dead = [], [], False
                continue
            if o == "if" and not inst.has_else and inst.nresults:
                raise ValidationError("if with results requires an else branch")
            stack, rooted, dead, saved = outer.pop()
            if saved is None:
                del labels[inst.label]
            else:
                labels[inst.label] = saved
            if dead or not inst.nresults:
                rooted.append(inst)
            else:
                stack.append(inst)
    if not dead and len(stack) != func.nresults:
        raise ValidationError(
            f"block leaves {len(stack)} values, declared {func.nresults}")
    if hook is not None:
        hook(func, func.body, rooted, stack)


def validate_module(module: ModuleIR) -> None:
    for idx in module.table:
        if not 0 <= idx < len(module.functions):
            raise ValidationError(f"table entry {idx} references no function")
    for f in module.functions:
        validate_function(f, module)


def iter_instructions(seq: Iterable[InstructionIR]) -> Iterator[InstructionIR]:
    """Depth-first, source-order walk over nested instruction lists."""
    return (inst for inst, ev in walk(seq) if ev == PLAIN or ev == ENTER)
