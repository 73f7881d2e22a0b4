"""AST construction and operand folding."""

from __future__ import annotations

import pytest

from conftest import ALL_FIXTURES, build_fixture, fixture_cpg, fixture_source
from gen import random_flat_sequence, random_module
from wasmcpg.ast_builder import build_ast
from wasmcpg.errors import ValidationError
from wasmcpg.ir import (FunctionIR, InstructionIR, ModuleIR, instruction_arity,
                        iter_instructions, validate_function)
from wasmcpg.pipeline import build_cpg
from wasmcpg.wat_parser import parse_module
from wasmcpg import dataflow as df, pipeline
from wasmcpg import graph as g


def _build(src: str):
    module = parse_module(src)
    return module, build_ast(module)


def _node(cpg, **props):
    for n in cpg.nodes:
        if all(n.properties.get(k) == v for k, v in props.items()):
            return n
    raise AssertionError(props)


def _fold(src: str):
    """Walk the first function of `src`, recording every hook call."""
    module = parse_module(src)
    func = module.functions[0]
    calls = []
    validate_function(func, module, lambda *args: calls.append(args))
    return func, calls


class TestFoldInstructions:
    def test_binary_fold(self):
        func, calls = _fold("""(module (func $f (param $i i32) (result i32)
            local.get $i
            i32.const 1
            i32.add))""")
        get, one, add = func.body
        assert calls == [(add, None, [get, one], ()),
                         (func, func.body, [], [add])]

    def test_zero_arity_instruction_is_rooted(self):
        func, calls = _fold("(module (func $f nop))")
        (nop,) = func.body
        assert calls == [(func, func.body, [nop], [])]

    def test_underflow_is_an_error(self):
        add = InstructionIR(opcode="i32.add")
        func = FunctionIR(name="$f", index=0, body=[add])
        with pytest.raises(ValidationError, match="underflow"):
            validate_function(func, ModuleIR(functions=[func]))


DEAD_LABELED_IF = """(module (func $f (param $x i32)
    local.get $x
    drop
    unreachable
    if $l
      local.get $x
      br_if $l
      br $l
    end))"""


class TestDeadCode:
    def test_dead_labeled_if_builds_without_a_condition(self):
        cpg, _ = build_cpg(DEAD_LABELED_IF)
        if_node = _node(cpg, instType="If")
        kids = cpg.ast_children(if_node.id)
        assert [cpg.node_property(k, "instType") for k in kids] == ["BrIf", "Br"]
        # the wrapper block's children: BeginBlock, then the if
        block = _node(cpg, instType="Block")
        assert cpg.ast_children(block.id)[1:] == [if_node.id]

    def test_dead_labeled_if_folds_like_an_unlabeled_one(self):
        unlabeled = DEAD_LABELED_IF.replace("    if $l", "    if") \
            .replace("br_if $l", "br_if 0").replace("br $l", "br 0")
        labeled_cpg, _ = build_cpg(DEAD_LABELED_IF)
        plain_cpg, _ = build_cpg(unlabeled)

        def if_children(cpg):
            node = _node(cpg, instType="If")
            return [cpg.node_property(k, "instType") for k in cpg.ast_children(node.id)]

        assert if_children(labeled_cpg) == if_children(plain_cpg) == ["BrIf", "Br"]

    def test_dead_nodes_have_no_incoming_cfg_edges_from_live_code(self):
        ctx, _ = pipeline._build(DEAD_LABELED_IF)
        cpg = ctx.cpg
        layout = ctx.layouts["$f"]
        unreachable = _node(cpg, instType="Unreachable").id
        live = {layout.func_node}
        stack = [layout.func_node]
        while stack:
            for e in cpg.out_edges(stack.pop(), g.CFG):
                if e.dst not in live:
                    live.add(e.dst)
                    stack.append(e.dst)
        dead = {n.id for n in cpg.nodes
                if n.kind == g.INSTRUCTION and unreachable < n.id < layout.exit_node}
        assert dead and not dead & live
        begin = _node(cpg, instType="BeginBlock").id
        assert cpg.in_edges(begin, g.CFG) == []
        assert dead.isdisjoint(df.analyze_function(ctx, "$f").res)


def _flatten(cpg, node: int):
    """In-order linearization: containers first, operands before operators,
    the if condition before the if. A one-parameter wrapper block created for
    a branch-targeted if flattens like the if it wraps."""
    t = cpg.node_property(node, "instType")
    kind = cpg.node(node).kind
    kids = cpg.ast_children(node)
    if kind == "Else":
        yield node
        for c in kids:
            yield from _flatten(cpg, c)
        return
    if t in ("Block", "Loop"):
        body = [c for c in kids
                if cpg.node_property(c, "instType") != "BeginBlock"]
        if t == "Block" and len(body) == 1 and \
                cpg.node_property(body[0], "instType") == "If":
            inner = body[0]
            ikids = cpg.ast_children(inner)
            if ikids:
                yield from _flatten(cpg, ikids[0])  # the rerouted condition
            yield node
            for c in kids:
                if c == inner:
                    yield inner
                    for ic in ikids[1:]:
                        yield from _flatten(cpg, ic)
                else:
                    yield c
            return
        yield node
        for c in kids:
            yield from _flatten(cpg, c)
    elif t == "If":
        if kids:
            yield from _flatten(cpg, kids[0])
        yield node
        for c in kids[1:]:
            yield from _flatten(cpg, c)
    else:
        for c in kids:
            yield from _flatten(cpg, c)
        yield node


class TestFoldingOrder:
    def test_random_sequences_flatten_back_to_source_order(self):
        # ids are assigned in source order, so the in-order walk of the folded
        # forest must be strictly ascending
        for seed in range(50):
            module, ctx = _build(random_flat_sequence(seed))
            cpg = ctx.cpg
            layout = ctx.layouts["$main"]
            order = []
            fn_kids = cpg.ast_children(layout.func_node)
            for stmt in fn_kids[1:]:
                order.extend(_flatten(cpg, stmt))
            inst_order = [n for n in order
                          if cpg.node(n).kind == g.INSTRUCTION
                          and n != layout.exit_node]
            assert inst_order == sorted(inst_order), f"seed {seed}"

    def test_structured_fixtures_flatten_ascending(self):
        for name in ("fig_ddg", "libpng_get_token", "mixed", "cfg_brtable"):
            ctx, _ = build_fixture(name)
            cpg = ctx.cpg
            for layout in ctx.layouts.values():
                if layout.func.is_import:
                    continue
                order = []
                for stmt in cpg.ast_children(layout.func_node)[1:]:
                    order.extend(_flatten(cpg, stmt))
                insts = [n for n in order if cpg.node(n).kind in
                         (g.INSTRUCTION, g.ELSE)]
                assert insts == sorted(insts), layout.func.name


class TestBuildAst:
    def test_fig_function_shape(self):
        cpg = fixture_cpg("fig_ddg")
        fn = _node(cpg, name="$test")
        assert fn.properties["nargs"] == 2
        assert fn.properties["nresults"] == 1
        kids = cpg.ast_children(fn.id)
        assert cpg.node(kids[0]).kind == g.FUNCTION_SIGNATURE
        ret = kids[-1]
        assert cpg.node_property(ret, "instType") == "Return"
        (tail,) = cpg.ast_children(ret)
        assert cpg.node_property(tail, "opcode") == "i32.add"
        assert tail == 12

    def test_if_condition_is_child_zero(self):
        cpg = fixture_cpg("fig_ddg")
        if_node = _node(cpg, instType="If")
        kids = cpg.ast_children(if_node.id)
        assert cpg.node_property(kids[0], "instType") == "Call"
        assert cpg.node(kids[-1]).kind == g.ELSE

    def test_import_has_no_body_subtree(self):
        cpg = fixture_cpg("libpng_get_token")
        fgetc = _node(cpg, name="$fgetc")
        assert fgetc.properties["isImport"] is True
        kids = cpg.ast_children(fgetc.id)
        assert len(kids) == 1
        assert cpg.node(kids[0]).kind == g.FUNCTION_SIGNATURE

    def test_node_count_matches_enumeration(self):
        # module + per function: function node, signature subtree, body
        # instructions, and synthetic nodes (exit, BeginBlock/EndLoop/Else)
        src = fixture_source("libpng_get_token")
        module = parse_module(src)
        ctx = build_ast(module)
        expected = 1
        for f in module.functions:
            expected += 1  # function node
            expected += 4  # signature, parameters, locals, results
            expected += len(f.params) + len(f.locals) + len(f.results)
            if f.is_import:
                continue
            expected += 1  # synthetic exit
            for inst in iter_instructions(f.body):
                expected += 1
                if inst.opcode in ("block", "loop"):
                    expected += 1  # BeginBlock / EndLoop
                elif inst.opcode == "if" and inst.has_else:
                    expected += 1  # Else
        assert len(ctx.cpg.nodes) == expected

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_instructions_reachable_from_their_function(self, name):
        ctx, _ = build_fixture(name)
        cpg = ctx.cpg
        for layout in ctx.layouts.values():
            reach = set()
            stack = [layout.func_node]
            while stack:
                n = stack.pop()
                for e in cpg.out_edges(n, g.AST):
                    if e.dst not in reach:
                        reach.add(e.dst)
                        stack.append(e.dst)
            for nid in layout.inst_node.values():
                assert nid in reach

    def test_operand_edge_count_equals_total_nargs(self):
        # straight-line bodies: every AST edge from an instruction is an
        # operand edge, so the count telescopes to the arity sum
        for seed in range(10):
            src = random_flat_sequence(seed)
            module = parse_module(src)
            ctx = build_ast(module)
            cpg = ctx.cpg
            main = module.function_by_name("$main")
            total_nargs = sum(
                instruction_arity(i, module, main, {})[0]
                for i in iter_instructions(main.body))
            layout = ctx.layouts["$main"]
            body_nodes = set(layout.inst_node.values())
            operand_edges = [e for e in cpg.edges
                             if e.type == g.AST and e.src in body_nodes]
            assert len(operand_edges) == total_nargs
