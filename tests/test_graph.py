"""Property-graph store: ids, schema enforcement, adjacency, decomposition."""

from __future__ import annotations

import gc

import pytest

from conftest import ALL_FIXTURES, build_fixture, fixture_cpg
from wasmcpg.errors import GraphError, ParseError, SchemaError
from wasmcpg.pipeline import build_cpg
from wasmcpg import graph as g


def _node_by(cpg, **props):
    for n in cpg.nodes:
        if all(n.properties.get(k) == v for k, v in props.items()):
            return n
    raise AssertionError(f"no node with {props}")


class TestAddNode:
    def test_const_node(self):
        cpg = g.Cpg()
        nid = cpg.add_node(g.INSTRUCTION,
                           {"instType": "Const", "valueType": "i32", "value": 2})
        assert cpg.node_property(nid, "value") == 2
        assert cpg.node_property(nid, "type") == "Instruction"

    def test_first_insertion_gets_id_zero(self):
        cpg = g.Cpg()
        assert cpg.add_node(g.MODULE, {"name": ""}) == 0

    def test_ids_strictly_increase(self):
        cpg = g.Cpg()
        ids = [cpg.add_node(g.ELSE) for _ in range(5)]
        assert ids == sorted(ids) == list(range(5))

    def test_fig_instruction_order(self):
        # the constant must precede the operator that consumes it
        cpg = fixture_cpg("fig_ddg")
        const2 = _node_by(cpg, instType="Const", value=2)
        add = _node_by(cpg, instType="Binary", opcode="i32.add")
        assert const2.id == 5 and add.id == 6
        assert const2.id < add.id

    def test_schema_violations(self):
        cpg = g.Cpg()
        with pytest.raises(SchemaError):
            cpg.add_node(g.INSTRUCTION, {"instType": "Teleport"})
        with pytest.raises(SchemaError):
            cpg.add_node(g.INSTRUCTION, {"instType": "Const", "value": 1})
        with pytest.raises(SchemaError):
            cpg.add_node(g.INSTRUCTION,
                         {"instType": "Const", "valueType": "i128", "value": 1})
        with pytest.raises(SchemaError):
            cpg.add_node(g.INSTRUCTION,
                         {"instType": "Load", "offset": -4})
        with pytest.raises(SchemaError):
            cpg.add_node(g.FUNCTION, {"name": "$f"})
        with pytest.raises(SchemaError):
            cpg.add_node("Cloud", {})


class TestAddEdge:
    def _two_nodes(self):
        cpg = g.Cpg()
        a = cpg.add_node(g.INSTRUCTION, {"instType": "LocalGet", "label": "$y"})
        b = cpg.add_node(g.INSTRUCTION, {"instType": "Binary", "opcode": "i32.add"})
        return cpg, a, b

    def test_ddg_edge_properties(self):
        cpg, a, b = self._two_nodes()
        eid = cpg.add_edge(a, b, g.DDG, {"ddgType": "Local", "label": "$y"})
        assert cpg.edge_property(eid, "ddgType") == "Local"
        assert cpg.edge_property(eid, "type") == "DDG"

    def test_cfg_self_loop_accepted(self):
        cpg, a, _ = self._two_nodes()
        cpg.add_edge(a, a, g.CFG, {})
        assert cpg.adjacency(a, g.CFG, "out") == [a]

    def test_dangling_endpoint(self):
        cpg, a, _ = self._two_nodes()
        with pytest.raises(GraphError, match="dangling"):
            cpg.add_edge(a, 99, g.AST)

    def test_edge_schema_violations(self):
        cpg, a, b = self._two_nodes()
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.CG, {"label": "x"})
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.DDG, {"label": "$y"})  # missing ddgType
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.DDG, {"ddgType": "Magic", "label": "$y"})
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.DDG,
                         {"ddgType": "Local", "label": "$y", "value": 3})
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.CFG, {"label": "sideways"})
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, "XYZ")

    def test_frozen_graph_rejects_writes(self):
        cpg, a, b = self._two_nodes()
        cpg.freeze()
        with pytest.raises(GraphError, match="frozen"):
            cpg.add_node(g.ELSE)
        with pytest.raises(GraphError, match="frozen"):
            cpg.add_edge(a, b, g.AST)

    def test_unknown_ids(self):
        cpg = g.Cpg()
        with pytest.raises(GraphError):
            cpg.node(3)
        with pytest.raises(GraphError):
            cpg.edge(0)


class TestAddDdgEdges:
    """`Cpg.add_edges`, the one bulk append path, as the DDG emitter uses it."""

    def _three_nodes(self):
        cpg = g.Cpg()
        a = cpg.add_node(g.INSTRUCTION, {"instType": "LocalGet", "label": "$y"})
        b = cpg.add_node(g.INSTRUCTION, {"instType": "Binary", "opcode": "i32.add"})
        c = cpg.add_node(g.INSTRUCTION, {"instType": "Drop"})
        return cpg, a, b, c

    def test_same_edges_as_add_edge(self):
        props = {"ddgType": "Local", "label": "$y"}
        bulk, a, b, c = self._three_nodes()
        assert bulk.add_edges([(a, b, g.DDG, props), (a, c, g.DDG, props),
                               (b, c, g.DDG, props)]) == 3
        single, *_ = self._three_nodes()
        for src, dst in ((a, b), (a, c), (b, c)):
            single.add_edge(src, dst, g.DDG, props)
        # records compare by identity, so compare their fields
        rows = lambda edges: [(e.id, e.src, e.dst, e.type, e.properties) for e in edges]
        assert rows(bulk.edges) == rows(single.edges)
        assert rows(bulk.in_edges(c, g.DDG)) == rows(single.in_edges(c, g.DDG))
        assert bulk.adjacency(a, g.DDG) == [b, c]

    def test_rows_sharing_a_map_share_the_stored_copy(self):
        cpg, a, b, c = self._three_nodes()
        props = {"ddgType": "Local", "label": "$y"}
        cpg.add_edges([(a, b, g.DDG, props), (a, c, g.DDG, props)])
        first, second = cpg.edges
        assert first.properties is second.properties
        props["label"] = "$changed"   # the graph holds its own copy
        assert cpg.edge_property(second.id, "label") == "$y"

    def test_frozen_graph_rejects_writes(self):
        cpg, a, b, _ = self._three_nodes()
        cpg.freeze()
        with pytest.raises(GraphError, match="frozen"):
            cpg.add_edges([(a, b, g.DDG, {"ddgType": "Local", "label": "$y"})])
        with pytest.raises(GraphError, match="frozen"):
            cpg.add_edges([])

    def test_dangling_endpoint(self):
        props = {"ddgType": "Local", "label": "$y"}
        cpg, a, b, _ = self._three_nodes()
        with pytest.raises(GraphError, match="dangling"):
            cpg.add_edges([(a, 99, g.DDG, props)])
        with pytest.raises(GraphError, match="dangling"):
            cpg.add_edges([(a, b, g.DDG, props), (-1, b, g.DDG, props)])

    @pytest.mark.parametrize("props", [
        {"label": "$y"},
        {"ddgType": "Magic", "label": "$y"},
        {"ddgType": "Local", "label": "$y", "value": 3},
        {"ddgType": "Const", "label": 3, "valueType": "i32"},
        {"ddgType": "Local", "label": "$y", "childIndex": 0},
    ])
    def test_schema_violations(self, props):
        cpg, a, b, c = self._three_nodes()
        good = {"ddgType": "Local", "label": "$y"}
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.DDG, props)
        with pytest.raises(SchemaError):
            cpg.add_edges([(a, b, g.DDG, good), (a, c, g.DDG, props)])

    def test_one_map_under_two_types_is_validated_and_stored_per_type(self):
        cpg, a, b, c = self._three_nodes()
        props = {}
        assert cpg.add_edges([(a, b, g.CFG, props), (a, c, g.CG, props),
                              (b, c, g.CFG, props), (b, a, g.CG, props)]) == 4
        cfg1, cg1, cfg2, cg2 = cpg.edges
        assert [e.type for e in cpg.edges] == [g.CFG, g.CG, g.CFG, g.CG]
        assert cfg1.properties is cfg2.properties
        assert cfg1.properties is not cg1.properties
        assert cpg.out_edges(a, g.CG) == [cg1] and cpg.in_edges(a, g.CG) == [cg2]
        # a map valid for one type is still checked against the other
        label = {"label": 0}
        with pytest.raises(SchemaError, match="CG edges"):
            cpg.add_edges([(a, b, g.CFG, label), (a, c, g.CG, label)])
        assert len(cpg.edges) == 5


class TestGcPause:
    def test_enabled_after_build(self):
        assert gc.isenabled()
        build_cpg("(module (func $f (result i32) i32.const 1))")
        assert gc.isenabled()

    def test_enabled_after_failed_build(self):
        with pytest.raises(ParseError):
            build_cpg("(module (func $f i32.bogus))")
        assert gc.isenabled()

    def test_stays_disabled_if_caller_disabled_it(self):
        gc.disable()
        try:
            build_cpg("(module (func $f (result i32) i32.const 1))")
            assert not gc.isenabled()
            with pytest.raises(ParseError):
                build_cpg("(module (func $f i32.bogus))")
            assert not gc.isenabled()
        finally:
            gc.enable()


EDGE_PROPERTY_DOMAINS = {
    "AST": {"childIndex"},
    "CFG": {"label"},
    "CG": set(),
    "DDG": {"ddgType", "label", "valueType", "value"},
}


class TestSchemaSweep:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_edge_conforms(self, name):
        cpg = fixture_cpg(name)
        for e in cpg.edges:
            assert set(e.properties) <= EDGE_PROPERTY_DOMAINS[e.type], e
            if e.type == "DDG":
                assert "ddgType" in e.properties and "label" in e.properties
                if e.properties["ddgType"] == "Const":
                    assert {"valueType", "value"} <= set(e.properties)
                else:
                    assert "valueType" not in e.properties

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_function_nodes_are_complete(self, name):
        cpg = fixture_cpg(name)
        for n in cpg.nodes_of_kind(g.FUNCTION):
            assert set(n.properties) == {"name", "index", "nargs", "nlocals",
                                         "nresults", "isImport", "isExport"}


class TestAccessors:
    def test_cfg_branch_label(self):
        cpg = fixture_cpg("libpng_get_token")
        brif = next(n for n in cpg.nodes
                    if n.properties.get("instType") == "BrIf")
        labels = {e.properties.get("label") for e in cpg.out_edges(brif.id, g.CFG)}
        assert labels == {True, False}

    def test_ast_edge_has_no_label(self):
        cpg = fixture_cpg("fig_ddg")
        ast_edge = next(e for e in cpg.edges if e.type == g.AST)
        assert cpg.edge_property(ast_edge.id, "label") is None

    def test_absent_property_is_none(self):
        cpg = fixture_cpg("fig_ddg")
        module = cpg.module_node()
        assert cpg.node_property(module.id, "opcode") is None

    def test_add_operand_order(self):
        cpg = fixture_cpg("fig_ddg")
        add = _node_by(cpg, instType="Binary", opcode="i32.add")  # node 6
        kinds = [(cpg.node_property(c, "instType"), cpg.node_property(c, "label")
                  or cpg.node_property(c, "value")) for c in cpg.ast_children(add.id)]
        assert kinds == [("LocalGet", "$y"), ("Const", 2)]


class TestDecomposition:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_typed_subsets_partition_edges(self, name):
        cpg = fixture_cpg(name)
        total = sum(len(cpg.edges_of_type(t)) for t in g.EDGE_TYPES)
        assert total == len(cpg.edges)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_instruction_ast_is_a_forest(self, name):
        cpg = fixture_cpg(name)
        for n in cpg.nodes:
            if n.kind == g.INSTRUCTION:
                assert len(cpg.in_edges(n.id, g.AST)) <= 1
