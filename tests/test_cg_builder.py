"""Call-graph edges and the signature index."""

from __future__ import annotations

import logging

import pytest

from conftest import ALL_FIXTURES, build_fixture, fixture_cpg
from wasmcpg.cg_builder import build_signature_index
from wasmcpg.ir import Signature, iter_instructions
from wasmcpg.pipeline import _build
from wasmcpg.wat_parser import parse_module
from wasmcpg import graph as g

THREE_SIGS = """(module
  (func $f (param i32) (result i32) local.get 0)
  (func $g (param i32) (result i32) local.get 0 i32.popcnt)
  (func $h (param f64) (result f64) local.get 0 f64.neg)
  (func $outside (param i32) (result i32) local.get 0)
  (table funcref (elem $f $g $h)))
"""


def brute_force_index(module):
    """Independent scan: for each signature, table-resident functions."""
    index = {}
    for fidx in dict.fromkeys(module.table):
        f = module.functions[fidx]
        index.setdefault(f.signature, []).append(f.name)
    return index


class TestSignatureIndex:
    def test_three_signatures(self):
        module = parse_module(THREE_SIGS)
        index = build_signature_index(module)
        assert index == brute_force_index(module)
        assert index[Signature(("i32",), ("i32",))] == ["$f", "$g"]
        assert index[Signature(("f64",), ("f64",))] == ["$h"]

    def test_empty_table(self):
        module = parse_module("(module (func $f))")
        assert build_signature_index(module) == {}

    def test_matching_function_outside_table_excluded(self):
        module = parse_module(THREE_SIGS)
        index = build_signature_index(module)
        assert "$outside" not in index[Signature(("i32",), ("i32",))]


class TestBuildCg:
    def test_direct_call_edge(self):
        ctx, _ = build_fixture("libpng_get_token")
        cpg = ctx.cpg
        call = next(n for n in cpg.nodes
                    if n.properties.get("instType") == "Call")
        (edge,) = cpg.out_edges(call.id, g.CG)
        assert cpg.node(edge.dst).properties["name"] == "$fgetc"
        assert edge.properties == {}

    def test_indirect_call_single_match(self):
        ctx, _ = _build("""(module
          (func $f (param i32) (result i32) local.get 0)
          (func $g (param i32) (result i32) local.get 0 i32.popcnt)
          (func $h (param f64) (result f64) local.get 0 f64.neg)
          (table funcref (elem $f $g $h))
          (func $use (result f64)
            f64.const 1.5
            i32.const 2
            call_indirect (param f64) (result f64)))""")
        cpg = ctx.cpg
        ci = next(n for n in cpg.nodes
                  if n.properties.get("instType") == "CallIndirect")
        targets = {cpg.node(e.dst).properties["name"]
                   for e in cpg.out_edges(ci.id, g.CG)}
        assert targets == {"$h"}

    def test_no_calls_no_edges(self):
        ctx, _ = _build("(module (func $f i32.const 1 drop))")
        assert ctx.cpg.edges_of_type(g.CG) == []

    def test_zero_match_indirect_warns(self, caplog):
        src = """(module
          (func $f (param i32) (result i32) local.get 0)
          (table funcref (elem $f))
          (func $use (result i64)
            i32.const 0
            call_indirect (result i64)))"""
        with caplog.at_level(logging.WARNING, logger="wasmcpg.cg_builder"):
            ctx, _ = _build(src)
        ci = next(n for n in ctx.cpg.nodes
                  if n.properties.get("instType") == "CallIndirect")
        assert ctx.cpg.out_edges(ci.id, g.CG) == []
        assert any("matches no" in r.message for r in caplog.records)

    def test_table_resident_import_is_an_indirect_target(self):
        ctx, _ = _build("""(module
          (import "env" "ext" (func $ext (param i32) (result i32)))
          (func $own (param i32) (result i32) local.get 0)
          (table funcref (elem $ext $own))
          (func $use (result i32)
            i32.const 1
            i32.const 0
            call_indirect (param i32) (result i32)))""")
        cpg = ctx.cpg
        ci = next(n for n in cpg.nodes
                  if n.properties.get("instType") == "CallIndirect")
        targets = {cpg.node(e.dst).properties["name"]
                   for e in cpg.out_edges(ci.id, g.CG)}
        assert targets == {"$ext", "$own"}

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_out_degrees_match_brute_force(self, name):
        ctx, _ = build_fixture(name)
        cpg = ctx.cpg
        index = brute_force_index(ctx.module)
        for layout in ctx.layouts.values():
            for inst in iter_instructions(layout.func.body):
                node = layout.inst_node[id(inst)]
                degree = len(cpg.out_edges(node, g.CG))
                if inst.opcode == "call":
                    assert degree == 1
                elif inst.opcode == "call_indirect":
                    assert degree == len(index.get(inst.type_use, []))
                else:
                    assert degree == 0
