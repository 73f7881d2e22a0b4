"""CFG construction: labeled branches, structured control, dead code."""

from __future__ import annotations

import pytest

from conftest import ALL_FIXTURES, build_fixture, fixture_cpg
from wasmcpg.errors import ValidationError
from wasmcpg.pipeline import build_context
from wasmcpg import graph as g
from wasmcpg import opcodes as op


def _nodes(cpg, **props):
    return [n for n in cpg.nodes
            if all(n.properties.get(k) == v for k, v in props.items())]


def _succs(cpg, nid):
    return {(e.dst, e.properties.get("label")) for e in cpg.out_edges(nid, g.CFG)}


def _cfg_edges(cpg, nid):
    return cpg.in_edges(nid, g.CFG) + cpg.out_edges(nid, g.CFG)


class TestBranches:
    def test_libpng_first_br_if(self):
        cpg = fixture_cpg("libpng_get_token")
        brifs = _nodes(cpg, instType="BrIf", label="$B5")
        first = min(brifs, key=lambda n: n.id)
        by_label = {e.properties["label"]: e.dst
                    for e in cpg.out_edges(first.id, g.CFG)}
        assert set(by_label) == {True, False}
        # taken: forward to the end of block $B5
        target = cpg.node(by_label[True])
        assert target.properties["instType"] == "Block"
        assert target.properties["label"] == "$B5"
        # not taken: falls through to local.get $token
        fall = cpg.node(by_label[False])
        assert fall.properties == {"instType": "LocalGet", "label": "$token"}

    def test_loop_back_edge_targets_loop_header(self):
        cpg = fixture_cpg("libpng_get_token")
        brif_l4 = _nodes(cpg, instType="BrIf", label="$L4")[0]
        by_label = {e.properties["label"]: e.dst
                    for e in cpg.out_edges(brif_l4.id, g.CFG)}
        header = cpg.node(by_label[True])
        assert header.properties["instType"] == "Loop"
        assert header.properties["label"] == "$L4"
        assert header.id < brif_l4.id  # a genuine back edge

    def test_br_table_cases_and_default(self):
        cpg = fixture_cpg("cfg_brtable")
        (bt,) = _nodes(cpg, instType="BrTable")
        edges = {e.properties["label"]: cpg.node(e.dst).properties["label"]
                 for e in cpg.out_edges(bt.id, g.CFG)}
        # reference successor map, enumerated by hand from the fixture:
        # case 0 -> end of $a, case 1 -> end of $b, default -> end of $c
        assert edges == {0: "$a", 1: "$b", "default": "$c"}
        for e in cpg.out_edges(bt.id, g.CFG):
            assert cpg.node(e.dst).properties["instType"] == "Block"

    def test_if_fan_out(self):
        cpg = fixture_cpg("fig_ddg")
        (if_node,) = _nodes(cpg, instType="If")
        by_label = {e.properties["label"]: e.dst
                    for e in cpg.out_edges(if_node.id, g.CFG)}
        assert cpg.node_property(by_label[True], "label") == "$y"
        assert cpg.node(by_label[False]).kind == g.ELSE


class TestLinearFlow:
    def test_straight_line_chain(self):
        ctx = build_context("""(module (func $f
            i32.const 1
            i32.const 2
            i32.add
            drop))""")
        cpg = ctx.cpg
        layout = ctx.layouts["$f"]
        body = sorted(layout.inst_node.values())
        chain = body + [layout.exit_node]
        cur = layout.func_node
        for nxt in chain:
            (e,) = cpg.out_edges(cur, g.CFG)
            assert e.dst == nxt
            cur = nxt
        assert cpg.out_edges(cur, g.CFG) == []


class TestInvariants:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_out_degree(self, name):
        cpg = fixture_cpg(name)
        for n in cpg.nodes:
            t = n.properties.get("instType")
            degree = len(cpg.out_edges(n.id, g.CFG))
            if t == "BrIf":
                assert degree == 2
            elif t == "If":
                assert degree == 2
            elif t == "BrTable":
                assert degree >= 2  # cases + default
            else:
                assert degree <= 1

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_reachability_and_dead_code(self, name):
        ctx, _ = build_fixture(name)
        cpg = ctx.cpg
        for layout in ctx.layouts.values():
            if layout.func.is_import:
                continue
            reach = {layout.func_node}
            stack = [layout.func_node]
            while stack:
                cur = stack.pop()
                for e in cpg.out_edges(cur, g.CFG):
                    if e.dst not in reach:
                        reach.add(e.dst)
                        stack.append(e.dst)
            nodes = [layout.exit_node]
            for by_inst in (layout.inst_node, layout.begin_node,
                            layout.end_node, layout.else_node):
                nodes += by_inst.values()
            for nid in nodes:
                if nid not in reach:
                    # dead code keeps its node but gets no CFG edges
                    assert _cfg_edges(cpg, nid) == [], nid

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_edge_count_is_linear(self, name):
        cpg = fixture_cpg(name)
        n_inst = sum(1 for n in cpg.nodes if n.kind == g.INSTRUCTION)
        extra = sum(max(0, len(cpg.out_edges(n.id, g.CFG)) - 1)
                    for n in cpg.nodes)
        assert len(cpg.edges_of_type(g.CFG)) <= n_inst + extra + len(
            cpg.nodes_of_kind(g.FUNCTION)) + len(cpg.nodes_of_kind(g.ELSE))

    def test_dead_code_after_unconditional_branch(self):
        ctx = build_context("""(module (func $f
            block $b
              br $b
              i32.const 1
              drop
            end))""")
        cpg = ctx.cpg
        dead_const = next(n for n in cpg.nodes
                          if n.properties.get("instType") == "Const")
        assert cpg.in_edges(dead_const.id, g.CFG) == []
        assert cpg.node(dead_const.id) is not None
        (dead_drop,) = _nodes(cpg, instType="Drop")
        assert _cfg_edges(cpg, dead_drop.id) == []

    def test_dead_branch_adds_no_edge_to_a_live_target(self):
        ctx = build_context("""(module (func $f (param i32)
            block $b
              local.get 0
              br_if $b
              unreachable
              br $b
            end))""")
        cpg = ctx.cpg
        (block,) = _nodes(cpg, instType="Block")
        (br_if,) = _nodes(cpg, instType="BrIf")
        (dead_br,) = _nodes(cpg, instType="Br")
        assert [e.src for e in cpg.in_edges(block.id, g.CFG)] == [br_if.id]
        assert _cfg_edges(cpg, dead_br.id) == []

    # each opcode with the operands it pops, inside `block $b` of a function
    # with no results
    WITH_OPERANDS = {"br": "br $b", "br_if": "i32.const 0 br_if $b",
                     "br_table": "i32.const 0 br_table $b $b", "return": "return",
                     "unreachable": "unreachable", "nop": "nop"}

    @pytest.mark.parametrize("opcode", [*sorted(op.ENDS_REACH), "br_if", "nop"])
    def test_ends_reach_makes_the_next_instruction_dead(self, opcode):
        ends = opcode in op.ENDS_REACH
        source = f"(module (func $f block $b {self.WITH_OPERANDS[opcode]} {{}} end))"
        # the validator checks no dead instruction: a live i32.add underflows
        if ends:
            build_context(source.format("i32.add drop"))
        else:
            with pytest.raises(ValidationError, match="underflow"):
                build_context(source.format("i32.add drop"))
        cpg = build_context(source.format("i32.const 7 drop")).cpg
        (after,) = _nodes(cpg, instType="Const", value=7)
        assert (_cfg_edges(cpg, after.id) == []) == ends

    def test_code_after_an_infinite_loop_is_dead(self):
        ctx = build_context("""(module (func $f
            block $o
              loop $L
                br $L
              end
              br $o
            end))""")
        cpg = ctx.cpg
        (block,) = _nodes(cpg, instType="Block")
        (end_loop,) = _nodes(cpg, instType="EndLoop")
        (dead_br,) = _nodes(cpg, instType="Br", label="$o")
        assert cpg.in_edges(block.id, g.CFG) == []
        assert cpg.in_edges(ctx.layouts["$f"].exit_node, g.CFG) == []
        for nid in (end_loop.id, dead_br.id, block.id):
            assert _cfg_edges(cpg, nid) == [], nid
