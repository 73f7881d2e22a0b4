"""Supported WebAssembly MVP opcode set with stack arities and node categories.

The set is closed: the parser rejects any opcode `INST_TYPE` does not map to
an instType. Structured instructions (block/loop/if), calls, branches and
`return` are handled by name in the parser and builders; every other opcode
has its arity in `SIMPLE_OPCODES`. `ENDS_REACH` ends reachability.
"""

from __future__ import annotations

VALUE_TYPES = ("i32", "i64", "f32", "f64")

INT_TYPES = ("i32", "i64")
FLOAT_TYPES = ("f32", "f64")

# instType constants (property values on Instruction nodes)
NOP = "Nop"
UNREACHABLE = "Unreachable"
RETURN = "Return"
BR = "Br"
BR_IF = "BrIf"
BR_TABLE = "BrTable"
DROP = "Drop"
SELECT = "Select"
MEMORY_SIZE = "MemorySize"
MEMORY_GROW = "MemoryGrow"
CALL = "Call"
CALL_INDIRECT = "CallIndirect"
LOCAL_GET = "LocalGet"
LOCAL_SET = "LocalSet"
LOCAL_TEE = "LocalTee"
GLOBAL_GET = "GlobalGet"
GLOBAL_SET = "GlobalSet"
CONST = "Const"
BINARY = "Binary"
COMPARE = "Compare"
UNARY = "Unary"
CONVERT = "Convert"
LOAD = "Load"
STORE = "Store"
BLOCK = "Block"
LOOP = "Loop"
IF = "If"
BEGIN_BLOCK = "BeginBlock"
END_LOOP = "EndLoop"

_INT_BINOPS = (
    "add", "sub", "mul", "div_s", "div_u", "rem_s", "rem_u",
    "and", "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr",
)
_FLOAT_BINOPS = ("add", "sub", "mul", "div", "min", "max", "copysign")
_INT_RELOPS = ("eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u")
_FLOAT_RELOPS = ("eq", "ne", "lt", "gt", "le", "ge")
_INT_UNOPS = ("clz", "ctz", "popcnt")
_FLOAT_UNOPS = ("abs", "neg", "ceil", "floor", "trunc", "nearest", "sqrt")
_CVTOPS = (
    "i32.wrap_i64",
    "i64.extend_i32_s", "i64.extend_i32_u",
    "i32.trunc_f32_s", "i32.trunc_f32_u", "i32.trunc_f64_s", "i32.trunc_f64_u",
    "i64.trunc_f32_s", "i64.trunc_f32_u", "i64.trunc_f64_s", "i64.trunc_f64_u",
    "f32.convert_i32_s", "f32.convert_i32_u", "f32.convert_i64_s", "f32.convert_i64_u",
    "f64.convert_i32_s", "f64.convert_i32_u", "f64.convert_i64_s", "f64.convert_i64_u",
    "f32.demote_f64", "f64.promote_f32",
    "i32.reinterpret_f32", "i64.reinterpret_f64",
    "f32.reinterpret_i32", "f64.reinterpret_i64",
)
_LOADS = (
    "i32.load", "i64.load", "f32.load", "f64.load",
    "i32.load8_s", "i32.load8_u", "i32.load16_s", "i32.load16_u",
    "i64.load8_s", "i64.load8_u", "i64.load16_s", "i64.load16_u",
    "i64.load32_s", "i64.load32_u",
)
_STORES = (
    "i32.store", "i64.store", "f32.store", "f64.store",
    "i32.store8", "i32.store16",
    "i64.store8", "i64.store16", "i64.store32",
)


def _simple_table() -> dict[str, tuple[str, int, int]]:
    """opcode -> (instType, nargs, nresults) for every non-structured opcode."""
    table: dict[str, tuple[str, int, int]] = {}
    for t in VALUE_TYPES:
        table[f"{t}.const"] = (CONST, 0, 1)
    for t in INT_TYPES:
        for op in _INT_BINOPS:
            table[f"{t}.{op}"] = (BINARY, 2, 1)
        for op in _INT_RELOPS:
            table[f"{t}.{op}"] = (COMPARE, 2, 1)
        for op in _INT_UNOPS:
            table[f"{t}.{op}"] = (UNARY, 1, 1)
        # eqz tests against zero; queries treat it as a comparison
        table[f"{t}.eqz"] = (COMPARE, 1, 1)
    for t in FLOAT_TYPES:
        for op in _FLOAT_BINOPS:
            table[f"{t}.{op}"] = (BINARY, 2, 1)
        for op in _FLOAT_RELOPS:
            table[f"{t}.{op}"] = (COMPARE, 2, 1)
        for op in _FLOAT_UNOPS:
            table[f"{t}.{op}"] = (UNARY, 1, 1)
    for op in _CVTOPS:
        table[op] = (CONVERT, 1, 1)
    for op in _LOADS:
        table[op] = (LOAD, 1, 1)
    for op in _STORES:
        table[op] = (STORE, 2, 0)
    table["drop"] = (DROP, 1, 0)
    table["select"] = (SELECT, 3, 1)
    table["local.get"] = (LOCAL_GET, 0, 1)
    table["local.set"] = (LOCAL_SET, 1, 0)
    table["local.tee"] = (LOCAL_TEE, 1, 1)
    table["global.get"] = (GLOBAL_GET, 0, 1)
    table["global.set"] = (GLOBAL_SET, 1, 0)
    table["memory.size"] = (MEMORY_SIZE, 0, 1)
    table["memory.grow"] = (MEMORY_GROW, 1, 1)
    table["nop"] = (NOP, 0, 0)
    table["unreachable"] = (UNREACHABLE, 0, 0)
    return table


SIMPLE_OPCODES = _simple_table()

# opcode -> instType for every supported opcode: the parser rejects the rest
INST_TYPE: dict[str, str] = {
    **{opcode: spec[0] for opcode, spec in SIMPLE_OPCODES.items()},
    # arity from context: callee signature, branch target, function results
    "call": CALL, "call_indirect": CALL_INDIRECT, "br": BR, "br_if": BR_IF,
    "br_table": BR_TABLE, "return": RETURN,
    "block": BLOCK, "loop": LOOP, "if": IF,
}

# opcodes after which the next instruction is unreachable: dead code to the
# validator, and without CFG edges
ENDS_REACH = frozenset(("br", "br_table", "return", "unreachable"))
