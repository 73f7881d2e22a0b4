"""Frontend tests: parsing, arity, validation, round-trips."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALL_FIXTURES, TOKEN_RE, fixture_source
from gen import fold_module, nested_blocks, nested_expression, random_module
from oracle import round_robin_states
from wasmcpg.errors import (
    NameResolutionError,
    ParseError,
    UnsupportedOpcodeError,
    ValidationError,
)
from wasmcpg.ir import (
    InstructionIR,
    Signature,
    format_module,
    instruction_arity,
    iter_instructions,
    validate_module,
)
from wasmcpg.dataflow import analyze_function
from wasmcpg.export import to_json
from wasmcpg.pipeline import build_context, build_cpg
from wasmcpg.wat_parser import Atom, SExpr, _read_sexprs, parse_module
from wasmcpg import opcodes as op


class TestParseModule:
    def test_empty_module(self):
        m = parse_module("(module)")
        assert m.functions == []
        assert m.globals == []
        assert m.table == []

    def test_libpng_fragment_shape(self):
        m = parse_module(fixture_source("libpng_get_token"))
        names = [f.name for f in m.functions]
        assert names == ["$fgetc", "$get_token"]
        assert m.functions[0].is_import
        token = m.function_by_name("$get_token")
        opcodes = {i.opcode for i in iter_instructions(token.body)}
        assert {"loop", "block", "br_if", "i32.store8", "local.tee",
                "call", "i32.eq"} <= opcodes

    def test_symbolic_names_preserved(self):
        m = parse_module(fixture_source("libpng_get_token"))
        token = m.function_by_name("$get_token")
        assert [n for n, _ in token.params] == ["$pnm_file", "$token"]
        assert [n for n, _ in token.locals] == ["$i", "$ret"]

    def test_unnamed_global_is_named_by_its_index(self):
        m = parse_module("(module (global $x i32 (i32.const 0)) "
                         "(global i32 (i32.const 1)) (global (mut i32) (i32.const 2)))")
        assert [gl.name for gl in m.globals] == ["$x", "$g1", "$g2"]

    def test_inline_param_names_after_a_type_use(self):
        m = parse_module("(module (type $t (func (param i32) (result i32))) "
                         '(import "env" "g" (func $g (type $t))) '
                         "(func $f (type $t) (param $x i32) (result i32) local.get $x) "
                         "(func $h (type $t) local.get 0))")
        assert [f.params for f in m.functions] == \
            [[("$0", "i32")], [("$x", "i32")], [("$0", "i32")]]
        assert [f.results for f in m.functions] == [["i32"]] * 3

    def test_numeric_indices_synthesized(self):
        m = parse_module("(module (func (param i32) i32.const 0 drop))")
        assert m.functions[0].name == "$0"
        assert m.functions[0].params[0][0] == "$0"

    def test_folded_and_flat_forms_agree(self):
        flat = parse_module("""(module (func $f (result i32)
            local.get 0 i32.const 1 i32.add)
            (func (param i32)))""".replace("local.get 0", "i32.const 7"))
        folded = parse_module("""(module (func $f (result i32)
            (i32.add (i32.const 7) (i32.const 1)))
            (func (param i32)))""")
        assert format_module(flat) == format_module(folded)

    def test_exports_marked(self):
        m = parse_module('(module (func $f (export "f")) '
                         '(func $g) (export "g2" (func $g)))')
        assert m.function_by_name("$f").is_export
        assert m.function_by_name("$g").is_export

    def test_table_entries(self):
        m = parse_module(fixture_source("mixed"))
        assert [m.functions[i].name for i in m.table] == ["$callee", "$other"]

    def test_unsupported_opcode_is_hard_error(self):
        with pytest.raises(UnsupportedOpcodeError, match="i32.extend8_s"):
            parse_module("(module (func i32.const 0 i32.extend8_s drop))")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError):
            parse_module("(module (func $f")

    def test_unresolved_call(self):
        with pytest.raises(NameResolutionError, match="nobody"):
            parse_module("(module (func call $nobody))")

    def test_unresolved_label(self):
        with pytest.raises(NameResolutionError, match="missing"):
            parse_module("(module (func block $b i32.const 1 br_if $missing end))")

    def test_unknown_local(self):
        with pytest.raises(NameResolutionError, match="nothere"):
            parse_module("(module (func local.get $nothere drop))")

    def test_validation_underflow(self):
        with pytest.raises(ValidationError, match="underflow"):
            parse_module("(module (func i32.add drop))")

    def test_validation_leftover_values(self):
        with pytest.raises(ValidationError):
            parse_module("(module (func i32.const 1))")

    def test_table_entry_bounds_checked(self):
        with pytest.raises(NameResolutionError):
            parse_module("(module (table funcref (elem $nope)))")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(segments=st.lists(st.tuples(st.integers(0, 12),
                                       st.lists(st.integers(0, 2), max_size=5)),
                             max_size=4))
    def test_table_is_the_filled_slots_in_order(self, segments):
        # later elem segments overwrite earlier ones slot by slot; slots no
        # segment fills are dropped
        elems = "".join(f"(elem (i32.const {off}) {' '.join(f'$f{i}' for i in names)})"
                        for off, names in segments)
        table = parse_module(f"(module (func $f0) (func $f1) (func $f2) {elems})").table
        slots = [-1] * max([off + len(names) for off, names in segments] + [0])
        for off, names in segments:
            slots[off:off + len(names)] = names
        assert table == [i for i in slots if i >= 0]

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_far_elem_offset_parses_in_bounded_memory(self):
        # the table holds the filled slots only, not one per offset below them
        code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
                "from wasmcpg.wat_parser import parse_module\n"
                "print(parse_module('(module (func $f) (table 1 funcref) "
                "(elem (i32.const 2000000000) $f))').table)")
        src = pathlib.Path(__file__).parent.parent / "src"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert run.returncode == 0, run.stderr[-2000:]
        assert run.stdout == "[0]\n"


# inserted between tokens; each is one way a comment can end
COMMENTS = (";; to the end of the line\n", "(; one line ;)", "(; two\nlines ;)",
            "(; (; nested\n;) ;)")


def _atoms_and_lists(forms):
    """Every atom and list in `forms`, outermost first."""
    stack = list(reversed(forms))
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, SExpr):
            stack.extend(reversed(x))


class TestComments:
    def test_nested_block_comment_is_skipped(self):
        m = parse_module("(module (; outer (; inner ;) still outer ;) (func $f))")
        assert [f.name for f in m.functions] == ["$f"]

    def test_column_after_a_block_comment(self):
        with pytest.raises(ParseError, match="^1:33: bad integer literal 'x'$"):
            parse_module("(module (; c ;) (func i32.const x drop))")

    def test_line_and_column_after_a_multi_line_block_comment(self):
        source = "(module (; one\n  two (; three\n;) four\n  ;) (func i32.const x drop))"
        with pytest.raises(ParseError, match="^4:22: bad integer literal 'x'$"):
            parse_module(source)

    def test_line_comment_at_the_end_of_input(self):
        m = parse_module("(module (func $f)) ;; no newline follows")
        assert [f.name for f in m.functions] == ["$f"]

    @pytest.mark.parametrize("source, message", [
        ("(module ; (func))", "1:9: stray character ';'"),
        ('(module\n  (export "f (func 0)))', "2:11: stray character '\"'"),
        ('(module (func $f) (export "f\ng" (func $f)))', "1:29: stray character '\\n'"),
        ('(module (export "f\\\tg"))', "1:20: stray character '\\t'"),
    ], ids=["lone-semicolon", "unterminated-string", "newline-in-string",
            "tab-after-escape"])
    def test_stray_character(self, source, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_module(source)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_positions_locate_each_atom_among_comments(self, seed, data):
        source = random_module(seed, max_insts=30)
        gaps = [m.end() for m in TOKEN_RE.finditer(source)]
        inserts = data.draw(st.lists(
            st.tuples(st.sampled_from(gaps), st.sampled_from(COMMENTS)), max_size=12))
        text = source
        for at, comment in sorted(inserts, reverse=True):
            text = f"{text[:at]} {comment} {text[at:]}"
        lines = text.split("\n")
        for x in _atoms_and_lists(_read_sexprs(text)):
            token = x.text if isinstance(x, Atom) else "("
            assert lines[x.line - 1].startswith(token, x.col - 1), (token, x.line, x.col)
        assert parse_module(text) == parse_module(source)


class TestErrorPositions:
    @pytest.mark.parametrize("source, position", [
        ("(module\n  (func (type $t)))", "2:9"),
        ("(module (func i32.const 0 call_indirect (type $t) drop))", "1:41"),
    ], ids=["func", "call-indirect"])
    def test_unknown_type_is_reported_at_its_type_form(self, source, position):
        with pytest.raises(NameResolutionError, match=f"^{position}: unknown type \\$t$"):
            parse_module(source)

    def test_unterminated_block_comment_is_reported_at_its_start(self):
        with pytest.raises(ParseError, match="^2:3: unterminated block comment$"):
            parse_module("(module\n  (; open (; nested ;)\n)")

    def test_bare_atom_among_module_fields(self):
        with pytest.raises(ParseError, match="^1:9: expected a module field, found 'foo'$"):
            parse_module("(module foo)")

    @pytest.mark.parametrize("source, message", [
        ("(module (type $t (func (param i32)))\n  (func (type $t) (param i64)))",
         "2:9: type use mismatch for $t"),
        ("(module (func\n  block\n    loop nop end))",
         "2:3: missing 'end' for structured instruction"),
        ("(module (func\n  call $nobody))", "2:8: unknown function $nobody"),
        ('(module\n (export "x" (func $nobody)))', "2:20: unknown function $nobody"),
        ("(module (func $f) (table 1 funcref)\n (elem (i32.const 0) $f $nobody))",
         "2:25: unknown function $nobody"),
        ('(module (func $f)\n (export "x" (func 7)))', "2:20: function index 7 out of range"),
        ("(module (func $f\n  call 9))", "2:8: function index 9 out of range"),
        # an escaped newline in a string is no line break
        ('(module (export "a\\nb" (func 0))\n (func i32.const x drop))',
         "2:18: bad integer literal 'x'"),
    ], ids=["type-use-mismatch", "missing-end", "unknown-call", "unknown-export",
            "unknown-elem", "export-index", "call-index", "line-after-an-escaped-newline"])
    def test_position_of(self, source, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_module(source)


FOLDING_INPUTS = {**{name: fixture_source(name) for name in ALL_FIXTURES},
                  **{f"random-{seed}": random_module(seed) for seed in range(6)}}


class TestFoldedForms:
    """A folded form abbreviates its flat sequence, so printing a module
    folded and parsing it back gives the same module and the same graph."""

    @pytest.mark.parametrize("source", FOLDING_INPUTS.values(), ids=FOLDING_INPUTS.keys())
    def test_folded_module_builds_the_flat_graph(self, source):
        module = parse_module(source)
        folded = fold_module(module)
        assert "end" not in TOKEN_RE.findall(folded)   # every construct is folded
        assert parse_module(folded) == module
        assert to_json(build_cpg(folded)[0]) == to_json(build_cpg(source)[0])

    def test_folded_immediates_stay_with_their_op(self):
        # `(i32.const)` may not take the next instruction's literal
        with pytest.raises(ParseError, match="i32.const: expected a literal"):
            parse_module("(module (func (i32.const) i32.const 1 drop))")


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_roundtrip(self, name):
        m1 = parse_module(fixture_source(name))
        m2 = parse_module(format_module(m1))
        assert m1 == m2

    def test_random_modules_roundtrip(self):
        for seed in range(10):
            m1 = parse_module(random_module(seed))
            m2 = parse_module(format_module(m1))
            assert m1 == m2, f"seed {seed}"


# Reference stack effects transcribed independently from the MVP typing rules;
# one representative per shape plus the irregular cases.
REFERENCE_ARITY = {
    "i32.const": (0, 1), "i64.const": (0, 1), "f32.const": (0, 1), "f64.const": (0, 1),
    "i32.add": (2, 1), "i64.rem_u": (2, 1), "f64.copysign": (2, 1),
    "i32.eq": (2, 1), "f32.ge": (2, 1), "i64.lt_s": (2, 1),
    "i32.eqz": (1, 1), "i64.eqz": (1, 1),
    "i32.clz": (1, 1), "f64.sqrt": (1, 1), "f32.neg": (1, 1),
    "i32.wrap_i64": (1, 1), "i64.extend_i32_u": (1, 1),
    "f64.promote_f32": (1, 1), "i32.reinterpret_f32": (1, 1),
    "drop": (1, 0), "select": (3, 1),
    "local.get": (0, 1), "local.set": (1, 0), "local.tee": (1, 1),
    "global.get": (0, 1), "global.set": (1, 0),
    "i32.load": (1, 1), "i64.load32_u": (1, 1), "f64.load": (1, 1),
    "i32.store": (2, 0), "i32.store8": (2, 0), "i64.store16": (2, 0),
    "memory.size": (0, 1), "memory.grow": (1, 1),
    "nop": (0, 0), "unreachable": (0, 0),
}


_TWO_OPERAND = {
    "add", "sub", "mul", "div", "div_s", "div_u", "rem_s", "rem_u", "and",
    "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr", "min", "max",
    "copysign", "eq", "ne", "lt", "gt", "le", "ge", "lt_s", "lt_u", "gt_s",
    "gt_u", "le_s", "le_u", "ge_s", "ge_u",
}


def _reference_arity(opcode: str) -> tuple[int, int]:
    """Name-pattern transcription of the MVP stack effects, written without
    looking at the production table."""
    fixed = {
        "drop": (1, 0), "select": (3, 1), "nop": (0, 0), "unreachable": (0, 0),
        "local.get": (0, 1), "local.set": (1, 0), "local.tee": (1, 1),
        "global.get": (0, 1), "global.set": (1, 0),
        "memory.size": (0, 1), "memory.grow": (1, 1),
    }
    if opcode in fixed:
        return fixed[opcode]
    _, _, suffix = opcode.partition(".")
    if suffix == "const":
        return (0, 1)
    if suffix.startswith("load"):
        return (1, 1)
    if suffix.startswith("store"):
        return (2, 0)
    if suffix in _TWO_OPERAND:
        return (2, 1)
    # everything else is value -> value: eqz, clz/ctz/popcnt, float unary,
    # and all conversions (wrap/extend/trunc/convert/demote/promote/reinterpret)
    return (1, 1)


class TestInstructionArity:
    def test_binary_operator(self):
        m = parse_module("(module)")
        inst = InstructionIR(opcode="i32.add")
        assert instruction_arity(inst, m) == (2, 1)

    def test_call_uses_callee_signature(self):
        m = parse_module(fixture_source("libpng_get_token"))
        call = next(i for i in iter_instructions(
            m.function_by_name("$get_token").body) if i.opcode == "call")
        assert instruction_arity(call, m) == (1, 1)

    def test_call_indirect_adds_table_index(self):
        m = parse_module("(module)")
        inst = InstructionIR(opcode="call_indirect",
                             type_use=Signature(("i32", "i32"), ("i32",)))
        assert instruction_arity(inst, m) == (3, 1)

    def test_every_simple_opcode_matches_reference(self):
        m = parse_module("(module)")
        for opcode in sorted(op.SIMPLE_OPCODES):
            got = instruction_arity(InstructionIR(opcode=opcode), m)
            assert got == _reference_arity(opcode), opcode
            if opcode in REFERENCE_ARITY:
                assert got == REFERENCE_ARITY[opcode], opcode

    def test_reference_table_is_covered(self):
        assert set(REFERENCE_ARITY) <= set(op.SIMPLE_OPCODES)


class TestValidation:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_functions_validate(self, name):
        # validate_module re-runs the stack-effect walk; non-negative heights
        # and exact terminal heights are its postcondition
        validate_module(parse_module(fixture_source(name)))

    def test_random_modules_validate(self):
        for seed in range(20):
            validate_module(parse_module(random_module(seed)))


MULTI_RESULT = """(module (func $two (result i32 i32)
    i32.const 1
    i32.const 2))"""

# the unnamed local is synthesized as $1, the name of the explicit param
SYNTHESIZED_LOCAL_CLASH = "(module (func (param $1 i32) (local i32) local.get 1 drop))"

DUPLICATE_NAMES = {
    "params": ("(module (func (param $a i32) (param $a i32)))", "local name \\$a"),
    "locals": ("(module (func (local $a i32) (local $a i32)))", "local name \\$a"),
    "param-local": ("(module (func (param $a i32) (local $a i32)))", "local name \\$a"),
    "globals": ("(module (global $a i32 (i32.const 0)) (global $a i32 (i32.const 0)))",
                "global name \\$a"),
    "synthesized-local": (SYNTHESIZED_LOCAL_CLASH, "local name \\$1"),
    "synthesized-param": ("(module (func (param i32) (local $0 i32)))", "local name \\$0"),
    "synthesized-global-first": (
        "(module (global i32 (i32.const 0)) (global $g0 i32 (i32.const 0)))",
        "global name \\$g0"),
    "synthesized-global-second": (
        "(module (global $g1 i32 (i32.const 0)) (global i32 (i32.const 0)))",
        "global name \\$g1"),
    "types": ("(module (type $t (func (param i32))) (type $t (func (result i32))))",
              "type name \\$t"),
}

# malformed WAT that once escaped as ValueError, IndexError or AttributeError
MALFORMED = {
    "local-name-not-a-ref": "(module (func (local i32) local.get foo drop))",
    "local-index-hex": "(module (func (local i32) local.get 0x1 drop))",
    "memarg-offset": "(module (memory 1) (func i32.const 0 i32.load offset=zz drop))",
    "elem-offset": "(module (func $f) (table 1 funcref) (elem (i32.const zz) $f))",
    "table-elem-form": "(module (table funcref (elem (x))))",
    "empty-global": "(module (global))",
    # a float literal that rounds to infinity in its own type
    "f64-overflow": "(module (func f64.const 1e400 drop))",
    "f32-overflow": "(module (func f32.const 1e39 drop))",
    "f32-int-overflow": "(module (func f32.const 0x1" + "0" * 32 + " drop))",
    "empty-type": "(module (type))",
    "import-no-desc": '(module (import "a" "b"))',
    "empty-export": "(module (export))",
    "hex-no-digits": "(module (func i32.const 0x_ drop))",
    "float-overflow": "(module (func f64.const 1" + "0" * 400 + " drop))",
    "typeuse-no-ref": "(module (func i32.const 0 call_indirect (type) drop))",
    "folded-end": "(module (func (block (end))))",
    "folded-else": "(module (func i32.const 1 if (else) end))",
    # integer literals outside the range of their type, offset or alignment
    "i32-above-range": "(module (func i32.const 4294967296 drop))",
    "i32-below-range": "(module (func i32.const -2147483649 drop))",
    "i32-far-above-range": "(module (func i32.const 99999999999999999999999 drop))",
    "i64-above-range": "(module (func i64.const 18446744073709551616 drop))",
    "i64-below-range": "(module (func i64.const -9223372036854775809 drop))",
    "memarg-offset-negative": "(module (memory 1) (func i32.const 0 i32.load offset=-1 drop))",
    "memarg-offset-above-range":
        "(module (memory 1) (func i32.const 0 i32.load offset=0xffffffffffffffff drop))",
    "memarg-align-not-a-number":
        "(module (memory 1) (func i32.const 0 i32.load align=x drop))",
    "memarg-align-not-a-power-of-two":
        "(module (memory 1) (func i32.const 0 i32.load align=3 drop))",
    "memarg-align-zero": "(module (memory 1) (func i32.const 0 i32.load align=0 drop))",
    "elem-offset-negative": "(module (func $f) (table 1 funcref) (elem (i32.const -1) $f))",
    "raw-newline-in-string": '(module (func $f) (export "f\ng" (func $f)))',
}


class TestFailClosed:
    def test_multi_result_function_is_rejected(self):
        with pytest.raises(ParseError, match="multi-value"):
            parse_module(MULTI_RESULT)

    def test_multi_result_import_is_rejected(self):
        with pytest.raises(ParseError, match="multi-value"):
            parse_module('(module (import "env" "f" (func $f (result i32 i64))))')

    @pytest.mark.parametrize("source", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_input_is_a_parse_error(self, source):
        with pytest.raises(ParseError):
            parse_module(source)

    def test_integer_literals_at_their_bounds_are_stored_as_written(self):
        source = ("(module (memory 1) (func "
                  "i32.const -2147483648 drop i32.const 4294967295 drop "
                  "i64.const -9223372036854775808 drop i64.const 18446744073709551615 drop "
                  "i32.const 0 i32.load offset=4294967295 align=1 drop "
                  "i32.const 0 i64.load offset=0 align=8 drop))")
        body = parse_module(source).functions[0].body
        assert [i.value for i in body if i.opcode.endswith(".const")] == \
            [-2 ** 31, 2 ** 32 - 1, -2 ** 63, 2 ** 64 - 1, 0, 0]
        assert [i.offset for i in body if "load" in i.opcode] == [2 ** 32 - 1, 0]
        assert len(build_cpg(source)[0].nodes) > len(body)


    @pytest.mark.parametrize("shape", [nested_blocks, nested_expression])
    def test_300_deep_module_builds(self, shape):
        cpg, _ = build_cpg(shape(300))
        assert len(cpg.nodes) > 600

    @pytest.mark.parametrize("label", ["foo", "-1", "0x1", "\u00b2"])
    def test_malformed_branch_label(self, label):
        with pytest.raises(NameResolutionError):
            parse_module(f"(module (func block br {label} end))")

    @pytest.mark.parametrize("source, message", DUPLICATE_NAMES.values(),
                             ids=DUPLICATE_NAMES.keys())
    def test_duplicate_names_are_rejected(self, source, message):
        with pytest.raises(NameResolutionError, match=f"duplicate {message}"):
            parse_module(source)


class TestDeepNesting:
    """Nesting depth is bounded by memory, not by the recursion limit."""

    @pytest.mark.parametrize("shape", [nested_blocks, nested_expression])
    def test_10000_deep_module_parses(self, shape):
        assert len(parse_module(shape(10_000)).functions[0].body) == \
            (1 if shape is nested_blocks else 20_001)

    def test_3000_deep_blocks_build_with_the_oracle_ddg(self):
        # the oracle sweeps in reverse postorder, so block depth costs it no
        # extra sweeps; engine and oracle both find no dependencies
        ctx = build_context(nested_blocks(3000))
        assert analyze_function(ctx, "$f").res == round_robin_states(ctx, "$f")
        assert len(ctx.cpg.nodes) > 6000 and ctx.cpg.edges_of_type("DDG") == []

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_20000_deep_blocks_build_in_1_gib(self):
        # the dataflow state holds no per-frame data, so the DDG's memory is
        # linear in block depth; the child caps its own address space
        code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "import gen; from wasmcpg.pipeline import build_cpg\n"
                "print(len(build_cpg(gen.nested_blocks(20_000))[0].nodes))")
        tests = pathlib.Path(__file__).parent
        path = os.pathsep.join((str(tests.parent / "src"), str(tests)))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]
        assert int(run.stdout) > 40_000

    def test_10000_deep_eqz_chain_builds(self):
        source = ("(module (func $f (param i32) (result i32) "
                  + "(i32.eqz " * 10_000 + "(local.get 0)" + ")" * 10_000 + "))")
        cpg = build_context(source).cpg
        # every eqz depends on the parameter and on the local.get reading it
        assert len(cpg.edges_of_type("DDG")) == 2 * 10_000
