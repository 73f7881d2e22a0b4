"""Property-graph store: ids, schema enforcement, adjacency, decomposition."""

from __future__ import annotations

import gc
import json
import math
import os
import tempfile
import weakref
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import gen
from conftest import ALL_FIXTURES, build_fixture, fixture_cpg
from wasmcpg.errors import GraphError, ParseError, SchemaError
from wasmcpg.export import import_json, to_json
from wasmcpg.pipeline import build_cpg
from wasmcpg import graph as g
from wasmcpg import opcodes as op


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

    @pytest.mark.parametrize("kind", [["Else"], {"Else": 1}, None, 7])
    def test_a_kind_that_is_not_a_string_is_a_schema_error(self, kind):
        with pytest.raises(SchemaError, match="unknown node kind"):
            g.Cpg().add_node(kind, {})


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
        with pytest.raises(SchemaError):
            cpg.add_edge(a, b, g.AST, {"childIndex": True})

    @pytest.mark.parametrize("edge_type, props", [
        (g.CFG, {}), (g.DDG, {"ddgType": "Local", "label": "$y"})])
    @pytest.mark.parametrize("src, dst", [(True, 1), (0, False), (1.0, 1), (0, 1.0), ("0", 1)])
    def test_endpoints_must_be_ints(self, src, dst, edge_type, props):
        cpg, *_ = self._two_nodes()
        with pytest.raises(GraphError, match="dangling"):
            cpg.add_edge(src, dst, edge_type, props)
        assert len(cpg.edges) == 0

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
    """`Cpg.add_edges`, the bulk append path of `import_json`, on DDG rows."""

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

    @pytest.mark.parametrize("edge_type, props", [
        (g.CFG, {}), (g.DDG, {"ddgType": "Local", "label": "$y"})])
    @pytest.mark.parametrize("src, dst", [(True, 1), (0, False), (1.0, 1), (0, 1.0)])
    def test_endpoints_must_be_ints(self, src, dst, edge_type, props):
        cpg, a, b, _ = self._three_nodes()
        # the row that checks and copies a map, and a later row sharing it
        for rows in ([(src, dst, edge_type, props)],
                     [(a, b, edge_type, props), (src, dst, edge_type, props)]):
            with pytest.raises(GraphError, match="dangling"):
                cpg.add_edges(rows)
        assert [(e.src, e.dst) for e in cpg.edges] == [(a, b)]

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
        assert cfg1.properties is cfg2.properties and cg1.properties is cg2.properties
        assert cfg1.properties is not cg1.properties
        assert cpg.out_edges(a, g.CG) == [cg1] and cpg.in_edges(a, g.CG) == [cg2]
        # a map valid for one type is still checked against the other
        label = {"label": 0}
        with pytest.raises(SchemaError, match="CG: unexpected property"):
            cpg.add_edges([(a, b, g.CFG, label), (a, c, g.CG, label)])
        assert len(cpg.edges) == 5


def _graph_with_cfg(n: int) -> g.Cpg:
    """`n` Drop nodes chained by CFG edges, so DDG ids start past them and
    each node already holds an edge list."""
    cpg = g.Cpg()
    for i in range(n):
        cpg.add_node(g.INSTRUCTION, {"instType": "Drop"})
        if i:
            cpg.add_edge(i - 1, i, g.CFG)
    return cpg


def _graph_rows(cpg: g.Cpg) -> tuple:
    """Every edge's fields, and each node's in- and out-edge ids by type."""
    adj = [(t, [e.id for e in cpg.in_edges(n, t)], [e.id for e in cpg.out_edges(n, t)])
           for n in range(len(cpg.nodes)) for t in g.EDGE_TYPES]
    return [(e.id, e.src, e.dst, e.type, e.properties) for e in cpg.edges], adj


def _bits(places) -> int:
    """The bitset with bit k set for each k of `places`."""
    return sum(1 << k for k in set(places))


def _decoded(bits: int, origins) -> list[int]:
    """The origins of a row's set bits, lowest bit first."""
    return [o for k, o in enumerate(origins) if bits >> k & 1]


@st.composite
def fan_ins(draw):
    """(node count, origins, rows): origins a permutation of the nodes,
    consumers ascending, each row's bits drawn from a pool of up to three,
    so that rows often repeat a bitset."""
    n = draw(st.integers(2, 8))
    origins = draw(st.permutations(range(n)))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    dsts = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return n, origins, [(d, draw(st.sampled_from(pool))) for d in dsts]


class TestAddFanIns:
    """`Cpg.add_ddg_rows`, the DDG emitter's write path: one fan-in (a
    consumer with the bitset of its origins) per row."""

    MAPS = {i: {"ddgType": "Local", "label": f"$v{i}"} for i in range(8)}

    def _add(self, cpg, rows, origins=range(8)):
        return cpg.add_ddg_rows(rows, origins, self.MAPS.__getitem__)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=fan_ins())
    def test_same_graph_as_add_edges(self, case):
        n, origins, rows = case
        fan, ref = _graph_with_cfg(n), _graph_with_cfg(n)
        added = self._add(fan, rows, origins)
        assert added == ref.add_edges([(s, d, g.DDG, self.MAPS[s])
                                       for d, bits in rows for s in _decoded(bits, origins)])
        assert _graph_rows(fan) == _graph_rows(ref)
        runs = lambda cpg: [(d, list(srcs), t, list(maps)) for d, srcs, t, maps in cpg.edge_runs()]
        assert runs(fan) == runs(ref)
        stored = {}
        for e in fan.edges_of_type(g.DDG):
            assert stored.setdefault(e.src, e.properties) is e.properties
            assert e.properties is not self.MAPS[e.src]
        assert len(stored) == len({s for _, bits in rows for s in _decoded(bits, origins)})

    def test_only_a_repeated_bitset_gets_a_memo_slot(self):
        assert g._row_memo([(0, 3), (1, 5), (2, 3), (3, 0), (4, 0), (5, 6)]) == {3: None}
        assert g._row_memo([(0, 3), (1, 5), (2, 6)]) == {}

    def test_a_repeated_row_is_a_copy_of_its_first(self, row_memos):
        cpg = _graph_with_cfg(4)
        rows = [(0, 0b0110), (1, 0b0011), (2, 0b0110), (3, 0b0110)]
        assert self._add(cpg, rows) == 8
        assert row_memos == [{0b0110: slice(3, 5)}]   # the first row's ids, after 3 CFG edges
        first = cpg.in_edges(0, g.DDG)
        for dst in (2, 3):   # the same origins, sharing the first row's stored maps
            copy = cpg.in_edges(dst, g.DDG)
            assert [e.src for e in copy] == [1, 2]
            assert all(a.properties is b.properties for a, b in zip(first, copy))

    def test_dangling_src_keeps_earlier_rows(self):
        cpg = _graph_with_cfg(3)
        with pytest.raises(GraphError, match="dangling"):
            self._add(cpg, [(0, _bits([1])), (2, _bits([0, 1, 7]))])
        assert [(e.src, e.dst) for e in cpg.edges_of_type(g.DDG)] == [(1, 0), (0, 2), (1, 2)]
        assert [e.src for e in cpg.in_edges(2, g.DDG)] == [0, 1]
        assert [e.dst for e in cpg.out_edges(1, g.DDG)] == [0, 2]

    def test_a_failing_item_keeps_earlier_rows(self):
        cpg = _graph_with_cfg(3)

        def props_of(src):
            if src == 0:
                raise ValueError(src)
            return self.MAPS[src]

        with pytest.raises(ValueError):   # the second row's first two edges are written
            cpg.add_ddg_rows([(0, 0b011), (2, 0b111)], [1, 2, 0], props_of)
        assert [(e.src, e.dst) for e in cpg.edges_of_type(g.DDG)] == [
            (1, 0), (2, 0), (1, 2), (2, 2)]
        assert [e.src for e in cpg.in_edges(2, g.DDG)] == [1, 2]
        assert [e.dst for e in cpg.out_edges(2, g.DDG)] == [0, 2]

    def test_dangling_dst_keeps_earlier_runs(self):
        cpg = _graph_with_cfg(3)
        with pytest.raises(GraphError, match="dangling"):
            self._add(cpg, [(1, _bits([0, 2])), (9, _bits([0]))])
        assert [(e.src, e.dst) for e in cpg.edges_of_type(g.DDG)] == [(0, 1), (2, 1)]
        with pytest.raises(GraphError, match="dangling"):
            self._add(cpg, [(-1, 0)])

    @pytest.mark.parametrize("row", [(2.0, 0b11), (True, 0b01), (2, True), (2, 1.5)], ids=repr)
    @pytest.mark.parametrize("earlier", [[], [(1, 0b11)]], ids=["first", "later"])
    def test_a_row_is_two_ints(self, earlier, row):
        # after (1, 0b11), a row of bits 0b11 copies that row's columns
        cpg = _graph_with_cfg(3)
        with pytest.raises(GraphError, match="not an int|dangling"):
            self._add(cpg, [*earlier, row], origins=[0, 2])
        assert len({len(column) for column in cpg.edge_columns()}) == 1
        kept = [(0, 1), (2, 1)] if earlier else []
        assert [(e.src, e.dst) for e in cpg.edges_of_type(g.DDG)] == kept

    def test_bits_outside_the_origins(self):
        cpg = _graph_with_cfg(3)
        for bits in (0b1000, -1):
            with pytest.raises(GraphError, match="outside its 3 origins"):
                self._add(cpg, [(1, 0b11), (2, bits)], origins=[0, 1, 2])
        assert [(e.src, e.dst) for e in cpg.edges_of_type(g.DDG)] == [(0, 1), (1, 1)] * 2
        assert self._add(cpg, [(2, 0), (2, 0)]) == 0   # an empty row adds nothing
        assert cpg.in_edges(2, g.DDG) == []

    def test_out_of_domain_map(self):
        cpg = _graph_with_cfg(3)
        with pytest.raises(SchemaError):
            cpg.add_ddg_rows([(1, 1)], [0],
                             lambda src: {"ddgType": "Local", "label": "$x", "value": 3})
        with pytest.raises(SchemaError):
            cpg.add_ddg_rows([(1, 1)], [0], lambda src: {"label": "$x"})
        assert cpg.edges_of_type(g.DDG) == []

    def test_frozen_graph_rejects_writes(self):
        cpg = _graph_with_cfg(3).freeze()
        with pytest.raises(GraphError, match="frozen"):
            self._add(cpg, [(1, 1)])
        with pytest.raises(GraphError, match="frozen"):
            self._add(cpg, [])


# Maps the store property test draws from: several per DDG origin, and maps
# that are valid under more than one edge type.
DDG_MAPS = [{"ddgType": "Local", "label": "$a"}, {"ddgType": "Local", "label": "$b"},
            {"ddgType": "Const", "label": 1, "valueType": "i32", "value": 1},
            {"ddgType": "Function", "label": "$f"}]
OTHER_MAPS = {g.AST: [{}, {"childIndex": 0}, {"childIndex": 1}],
              g.CFG: [{}, {"label": 0}, {"label": "default"}], g.CG: [{}]}


def _store_map(edge_type: str, i: int) -> dict:
    maps = DDG_MAPS if edge_type == g.DDG else OTHER_MAPS[edge_type]
    return maps[i % len(maps)]


@st.composite
def store_ops(draw):
    """(node count, writes): single edges in any order, bulk rows of every
    edge type, DDG fan-in rows (bitsets over a permutation of the nodes) and
    DDG runs of one checked map, interleaved."""
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node, st.sampled_from(g.EDGE_TYPES), st.integers(0, 3))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("edge"), edge),
        st.tuples(st.just("edges"), st.lists(edge, max_size=8)),
        st.tuples(st.just("rows"), st.tuples(
            st.lists(st.tuples(node, st.integers(0, (1 << n) - 1)), max_size=4),
            st.permutations(range(n)), st.integers(0, 3))),
        st.tuples(st.just("run"), st.tuples(
            node, st.lists(node, min_size=1, max_size=5), st.integers(0, 3)))), max_size=8))
    return n, ops


class TestStoreModel:
    """The column store against a plain list of records: every read path
    gives each edge's (id, src, dst, type, map), one record per id."""

    @staticmethod
    def _build(n, ops):
        """The graph, and the model: (src, dst, type, map, sharing group) per
        edge, where edges share one stored map exactly when their group is
        the same."""
        cpg, model = g.Cpg(), []
        for _ in range(n):
            cpg.add_node(g.ELSE)
        for call, (kind, arg) in enumerate(ops):
            if kind == "edge":
                src, dst, t, i = arg
                cpg.add_edge(src, dst, t, _store_map(t, i))
                model.append((src, dst, t, _store_map(t, i), ("edge", len(model))))
            elif kind == "edges":
                rows = [(s, d, t, _store_map(t, i)) for s, d, t, i in arg]
                assert cpg.add_edges(rows) == len(rows)
                # a map is copied once per type it serves in the call
                model += [(s, d, t, props, (call, id(props), t)) for s, d, t, props in rows]
            elif kind == "run":
                dst, srcs, i = arg
                props = g.checked_map(g.DDG, _store_map(g.DDG, i))
                cpg.add_ddg_run(dst, srcs, [props] * len(srcs))
                model += [(s, dst, g.DDG, props, (call, "run")) for s in srcs]
            else:
                rows, origins, shift = arg
                props_of = lambda src: DDG_MAPS[(src + shift) % len(DDG_MAPS)]
                decoded = [(d, _decoded(bits, origins)) for d, bits in rows]
                assert cpg.add_ddg_rows(rows, origins, props_of) == \
                    sum(len(s) for _, s in decoded)
                model += [(s, d, g.DDG, props_of(s), (call, s))
                          for d, srcs in decoded for s in srcs]
            for v in range(n):   # reads between writes must not go stale
                assert len(cpg.in_edges(v)) == sum(m[1] == v for m in model)
                assert len(cpg.out_edges(v)) == sum(m[0] == v for m in model)
                assert len(cpg.ddg_edges(v, "Local", "in")) == sum(
                    m[1] == v and m[2] == g.DDG and m[3]["ddgType"] == "Local" for m in model)
        return cpg, model

    @staticmethod
    def _check(cpg, n, model, records):
        """Every read path against the model; `records` collects each id's
        record, which must come back the same object from every path."""
        def same(edges, ids):
            assert [e.id for e in edges] == ids
            for e in edges:
                assert records.setdefault(e.id, e) is e
                src, dst, t, props, _ = model[e.id]
                assert (e.src, e.dst, e.type, e.properties) == (src, dst, t, props)

        assert len(cpg.edges) == len(model)
        same(list(cpg.edges), list(range(len(model))))
        same([cpg.edge(i) for i in range(len(model))], list(range(len(model))))
        same(cpg.edges[::-1], list(range(len(model)))[::-1])
        for t in (*g.EDGE_TYPES, None):
            if t is not None:
                same(cpg.edges_of_type(t), [i for i, m in enumerate(model) if m[2] == t])
            for v in range(n):
                same(cpg.in_edges(v, t), [i for i, m in enumerate(model)
                                          if m[1] == v and t in (None, m[2])])
                same(cpg.out_edges(v, t), [i for i, m in enumerate(model)
                                           if m[0] == v and t in (None, m[2])])
        for d in g.DDG_TYPES:
            for v in range(n):
                for direction, end in (("in", 1), ("out", 0)):
                    same(cpg.ddg_edges(v, d, direction), [
                        i for i, m in enumerate(model)
                        if m[end] == v and m[2] == g.DDG and m[3]["ddgType"] == d])
        assert [tuple(r) for r in cpg.edge_rows()] == [m[:4] for m in model]
        src, dst, types, stored = cpg.edge_columns()   # the columns edge_rows zips
        assert list(zip(src, dst, [g.EDGE_TYPES[t] for t in types], stored)) == \
            [m[:4] for m in model]
        assert [id(p) for p in stored] == [id(p) for *_, p in cpg.edge_rows()]
        runs = list(cpg.edge_runs())   # the same rows, DDG ones in maximal runs
        assert [(s, d, t, p) for d, srcs, t, maps in runs for s, p in zip(srcs, maps)] == \
            [m[:4] for m in model]
        assert [id(p) for *_, maps in runs for p in maps] == [id(p) for *_, p in cpg.edge_rows()]
        assert all(len(srcs) == 1 for _, srcs, t, _ in runs if t != g.DDG)
        assert all(not (a[2] == b[2] == g.DDG and a[0] == b[0]) for a, b in zip(runs, runs[1:]))
        maps: dict[int, object] = {}   # sharing group -> its stored map
        types: dict[int, str] = {}     # id(stored map) -> the one type it serves
        for e, (*_, group) in zip(cpg.edges, model):
            assert maps.setdefault(group, e.properties) is e.properties
            assert types.setdefault(id(e.properties), e.type) == e.type
        assert len({id(p) for p in maps.values()}) == len(maps)
        assert {id(p) for *_, p in cpg.edge_rows()} == {id(p) for p in maps.values()}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=store_ops())
    def test_reads_match_a_list_of_records(self, case):
        n, ops = case
        cpg, model = self._build(n, ops)
        records: dict[int, g.Edge] = {}
        self._check(cpg, n, model, records)
        self._check(cpg.freeze(), n, model, records)   # frozen: lists are cached
        self._check(cpg, n, model, records)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=store_ops())
    def test_json_round_trip(self, case):
        cpg = self._build(*case)[0].freeze()
        text = to_json(cpg)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.json")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            assert to_json(import_json(path)) == text

    def test_edge_columns_are_copies(self):
        cpg = _graph_with_cfg(3)
        cpg.add_edge(0, 2, g.DDG, {"ddgType": "Local", "label": "$x"})
        src, dst, types, maps = cpg.edge_columns()
        rows = list(cpg.edge_rows())
        src[0], dst[0] = 2, 0
        assert list(cpg.edge_rows()) == rows
        cpg.add_edge(1, 2, g.CFG)   # a writer is not held off by a reader's columns
        assert len(cpg.edge_columns()[0]) == len(src) + 1
        assert isinstance(types, bytes) and isinstance(maps, tuple)


class TestAddDdgRun:
    """`Cpg.add_ddg_run`: DDG edges into one node with maps `checked_map` made."""

    LOCAL = {"ddgType": "Local", "label": "$x"}

    def test_a_run_is_one_run_of_the_consumer(self):
        cpg = _graph_with_cfg(3)
        props = g.checked_map(g.DDG, self.LOCAL)
        cpg.add_ddg_run(2, [0, 1, 0], [props] * 3)
        assert [(e.src, e.dst) for e in cpg.in_edges(2, g.DDG)] == [(0, 2), (1, 2), (0, 2)]
        assert all(e.properties is props for e in cpg.edges_of_type(g.DDG))
        assert list(cpg.edge_runs())[-1] == (2, array("i", [0, 1, 0]), g.DDG, [props] * 3)

    @pytest.mark.parametrize("dst, srcs, n_maps", [
        (3, [0], 1), (-1, [0], 1), (True, [0], 1), (1, [3], 1), (1, [-1], 1),
        (1, [False], 1), (1, [0.0], 1), (1, [0, 1], 1), (1, [], 0),
    ])
    def test_faults_write_nothing(self, dst, srcs, n_maps):
        cpg = _graph_with_cfg(3)
        before = len(cpg.edges)
        with pytest.raises(GraphError):
            cpg.add_ddg_run(dst, srcs, [g.checked_map(g.DDG, self.LOCAL)] * n_maps)
        assert len(cpg.edges) == before

    def test_checked_map_is_a_checked_copy(self):
        props = g.checked_map(g.DDG, self.LOCAL)
        assert props == self.LOCAL and props is not self.LOCAL
        with pytest.raises(SchemaError):
            g.checked_map(g.CFG, {"label": "sideways"})

    def test_frozen_graph_rejects_runs(self):
        cpg = _graph_with_cfg(3).freeze()
        with pytest.raises(GraphError, match="frozen"):
            cpg.add_ddg_run(1, [0], [g.checked_map(g.DDG, self.LOCAL)])


class TestDdgSlices:
    """`ddg_edges`: one ddgType's share of a node's DDG edges, read from a
    split kept apart from the typed lists."""

    @staticmethod
    def _check(cpg):
        for n in cpg.nodes:
            for direction, read in (("in", cpg.in_edges), ("out", cpg.out_edges)):
                merged, ddg = read(n.id), read(n.id, g.DDG)
                for d in g.DDG_TYPES:
                    # the same records, in id order
                    assert cpg.ddg_edges(n.id, d, direction) == \
                        [e for e in ddg if e.properties["ddgType"] == d]
                assert read(n.id) == merged   # the untyped merge never sees the split
                assert read(n.id, g.DDG) == ddg

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_each_slice_filters_the_ddg_edges_on_fixtures(self, name):
        self._check(fixture_cpg(name))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_each_slice_filters_the_ddg_edges_on_random_modules(self, seed):
        from gen import random_module
        self._check(build_cpg(random_module(seed, max_insts=40))[0])

    def test_each_read_is_a_fresh_list(self):
        cpg = fixture_cpg("libpng_get_token")
        node = max(cpg.nodes, key=lambda n: len(cpg.ddg_edges(n.id, "Local", "in"))).id
        first = cpg.ddg_edges(node, "Local", "in")
        want = list(first)
        assert len(want) >= 2
        first.reverse()
        first.append(first[0])
        second = cpg.ddg_edges(node, "Local", "in")
        assert second is not first and second == want
        second.clear()
        assert cpg.ddg_edges(node, "Local", "in") == want

    def test_an_unfrozen_graph_sees_later_writes(self):
        cpg = g.Cpg()
        for _ in range(3):
            cpg.add_node(g.ELSE)
        cpg.add_edge(0, 2, g.DDG, DDG_MAPS[0])
        assert [e.src for e in cpg.ddg_edges(2, "Local", "in")] == [0]
        cpg.add_edge(1, 2, g.DDG, DDG_MAPS[1])
        cpg.add_edge(1, 2, g.DDG, DDG_MAPS[3])
        assert [e.src for e in cpg.ddg_edges(2, "Local", "in")] == [0, 1]
        assert [e.dst for e in cpg.ddg_edges(1, "Function", "out")] == [2]

    @pytest.mark.parametrize("ddg_type", ["Bogus", "local", "DDG", "", None, 1])
    def test_an_unknown_ddg_type_is_an_error(self, ddg_type):
        cpg = fixture_cpg("fig_ddg")
        for direction in ("in", "out"):
            with pytest.raises(GraphError, match="unknown ddgType"):
                cpg.ddg_edges(0, ddg_type, direction)

    def test_a_bad_direction_or_node_is_an_error(self):
        cpg = fixture_cpg("fig_ddg")
        with pytest.raises(GraphError, match="bad direction"):
            cpg.ddg_edges(0, "Local", "both")
        with pytest.raises(GraphError, match="unknown node id"):
            cpg.ddg_edges(len(cpg.nodes), "Local", "in")


class TestBuilderMaps:
    """The AST, CFG and CG builders hand `Cpg.add_edges` one map per distinct
    value, on `mixed.wat`: if/else and br_if arms, a br_table with slots 0
    and 1 and a default, and an indirect call."""

    @staticmethod
    def _stored(cpg: g.Cpg) -> dict[tuple[str, str], set[int]]:
        """(edge type, map text) -> the ids of the stored map objects."""
        stored: dict[tuple[str, str], set[int]] = {}
        for _, _, edge_type, props in cpg.edge_rows():
            if edge_type != g.DDG:
                key = (edge_type, json.dumps(props, sort_keys=True))
                stored.setdefault(key, set()).add(id(props))
        return stored

    def test_one_stored_map_per_type_and_text(self):
        stored = self._stored(fixture_cpg("mixed"))
        assert {edge_type for edge_type, _ in stored} == {g.AST, g.CFG, g.CG}
        assert {key: len(ids) for key, ids in stored.items() if len(ids) != 1} == {}

    def test_slots_and_arms_stay_apart(self):
        """`True == 1`, yet an if arm and br_table slot 1 keep their own maps
        and their JSON texts."""
        cpg = fixture_cpg("mixed")
        stored = self._stored(cpg)
        texts = ['{"label": 0}', '{"label": 1}', '{"label": false}', '{"label": true}']
        ids = [stored[g.CFG, text] for text in texts]
        assert len(set().union(*ids)) == 4
        maps = json.loads(to_json(cpg))["maps"]
        assert {json.dumps(m) for m in maps} >= set(texts)


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

    @staticmethod
    def _young() -> int:
        return len(gc.get_objects(0)) + len(gc.get_objects(1))

    def test_build_and_load_leave_the_young_generations_nearly_empty(self, tmp_path):
        """A paused build's objects go straight to the oldest generation, so
        the first collection after it does not scan the new graph."""
        gc.collect()
        tracked = len(gc.get_objects())
        cpg, _ = build_cpg(gen.scaling_module(300))
        assert len(gc.get_objects()) - tracked > 2000   # the graph's own objects
        assert self._young() < 500
        path = tmp_path / "g.json"
        path.write_text(to_json(cpg), encoding="utf-8")
        del cpg
        gc.collect()
        tracked = len(gc.get_objects())
        loaded = import_json(str(path))
        assert len(gc.get_objects()) - tracked > 2000
        assert self._young() < 500
        assert len(loaded.nodes) > 300

    def test_a_frozen_heap_stays_frozen(self):
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            build_cpg(gen.scaling_module(100))
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_a_cycle_dropped_before_a_build_is_still_collected(self):
        class Cycle:
            pass

        cycle = Cycle()
        cycle.me = cycle
        dropped = weakref.ref(cycle)
        del cycle
        build_cpg(gen.scaling_module(100))   # promotes every young object
        gc.collect()
        assert dropped() is None


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


# The schema stated apart from graph.py: element -> {property: sample values
# inside its domain}. PROBES hold a value of each JSON type (and a negative
# int); a probe that equals no sample of a property, type included, must be
# rejected for it, and every sample and every other probe accepted.
PROBES = (True, -1, 2, 2.5, "text", None)
_STR, _BOOL, _INT, _COUNT = ("text",), (True,), (-1, 2), (2,)
_NUMBER = (-1, 2, 2.5)
_VALUE_TYPE = ("i32", "i64", "f32", "f64")

NODE_DOMAINS = {
    "Module": {"name": _STR},
    "Function": {"name": _STR, "index": _INT, "nargs": _INT, "nlocals": _INT,
                 "nresults": _INT, "isImport": _BOOL, "isExport": _BOOL},
    **{kind: {} for kind in ("FunctionSignature", "Parameters", "Locals",
                             "Results", "Else", "Trap", "Start")},
    "VarNode": {"name": _STR, "varType": _STR},
}
INST_DOMAINS = {    # plus the required instType
    "Const": {"valueType": _VALUE_TYPE, "value": _NUMBER},
    **{t: {"opcode": _STR} for t in ("Binary", "Compare", "Unary", "Convert")},
    "Load": {"offset": _COUNT},
    "Store": {"offset": _COUNT},
    **{t: {"label": _STR, "nresults": _INT} for t in ("Block", "Loop", "EndLoop")},
    "If": {"label": _STR, "hasElse": _BOOL},
    **{t: {"label": _STR} for t in ("Br", "BrIf", "GlobalGet", "GlobalSet",
                                    "LocalGet", "LocalSet", "LocalTee", "Call",
                                    "BeginBlock")},
    **{t: {} for t in ("Nop", "Unreachable", "Return", "BrTable", "Drop",
                       "Select", "MemorySize", "MemoryGrow", "CallIndirect")},
}
EDGE_DOMAINS = {    # every property optional
    "AST": {"childIndex": _COUNT},
    "CFG": {"label": (True, 2, "default")},
    "CG": {},
}
DDG_DOMAINS = {     # plus the required ddgType and label, which takes any value
    "Const": {"valueType": _VALUE_TYPE, "value": _NUMBER},
    **{t: {} for t in ("Global", "Local", "Control", "Function")},
}


def _add_edge(edge_type):
    def add(cpg, props):
        a = cpg.add_node(g.ELSE)
        return cpg.add_edge(a, a, edge_type, props)
    return add


def _schema_elements():
    """(name, {property: samples}, required, add(cpg, props)) per element."""
    for kind, dom in NODE_DOMAINS.items():
        yield kind, dom, True, lambda cpg, p, kind=kind: cpg.add_node(kind, p)
    for t, dom in INST_DOMAINS.items():
        yield (t, {"instType": (t,), **dom}, True,
               lambda cpg, p: cpg.add_node(g.INSTRUCTION, p))
    for t, dom in EDGE_DOMAINS.items():
        yield t, dom, False, _add_edge(t)
    for t, dom in DDG_DOMAINS.items():
        yield (f"DDG-{t}", {"ddgType": (t,), "label": PROBES, **dom}, True,
               _add_edge(g.DDG))


SCHEMA_ELEMENTS = list(_schema_elements())
SCHEMA_IDS = [e[0] for e in SCHEMA_ELEMENTS]


def _valid(dom):
    return {key: samples[0] for key, samples in dom.items()}


def _within(value, samples):
    return any(type(value) is type(s) and value == s for s in samples)


class TestSchemaParity:
    """Every node kind, instType, edge type and ddgType against the table above."""

    def test_table_covers_the_schema(self):
        assert set(g.NODE_KINDS) == {*NODE_DOMAINS, g.INSTRUCTION}
        assert set(g.INST_TYPES) == set(INST_DOMAINS)
        assert set(g.EDGE_TYPES) == {*EDGE_DOMAINS, g.DDG}
        assert set(g.DDG_TYPES) == set(DDG_DOMAINS)

    @pytest.mark.parametrize("name, dom, required, add", SCHEMA_ELEMENTS,
                             ids=SCHEMA_IDS)
    def test_valid_record_is_accepted(self, name, dom, required, add):
        cpg = g.Cpg()
        add(cpg, _valid(dom))

    @pytest.mark.parametrize("name, dom, required, add", SCHEMA_ELEMENTS,
                             ids=SCHEMA_IDS)
    def test_unknown_key_is_rejected(self, name, dom, required, add):
        with pytest.raises(SchemaError):
            add(g.Cpg(), {**_valid(dom), "bogus": 1})

    @pytest.mark.parametrize("name, dom, key, required, add", [
        pytest.param(name, dom, key, required, add, id=f"{name}-{key}")
        for name, dom, required, add in SCHEMA_ELEMENTS for key in dom])
    def test_dropping_a_property(self, name, dom, key, required, add):
        props = _valid(dom)
        del props[key]
        if required:
            with pytest.raises(SchemaError):
                add(g.Cpg(), props)
        else:
            add(g.Cpg(), props)

    @pytest.mark.parametrize("name, dom, key, value, add", [
        pytest.param(name, dom, key, value, add, id=f"{name}-{key}-{value!r}")
        for name, dom, _, add in SCHEMA_ELEMENTS for key, samples in dom.items()
        for value in dict.fromkeys((*samples, *PROBES))])
    def test_property_domain(self, name, dom, key, value, add):
        props = {**_valid(dom), key: value}
        if _within(value, dom[key]):
            add(g.Cpg(), props)
        else:
            with pytest.raises(SchemaError):
                add(g.Cpg(), props)


class TestFiniteNumbers:
    """A Const node's and a Const DDG edge's `value` is an int or a finite
    float; an int too large for a float is still a number."""

    @pytest.mark.parametrize("name", ["Const", "DDG-Const"])
    @pytest.mark.parametrize("value, finite", [
        (math.inf, False), (-math.inf, False), (math.nan, False), (1e308, True), (10 ** 400, True),
    ], ids=["inf", "-inf", "nan", "1e308", "10**400"])
    def test_number_domain(self, name, value, finite):
        _, dom, _, add = SCHEMA_ELEMENTS[SCHEMA_IDS.index(name)]
        props = {**_valid(dom), "value": value}
        if finite:
            add(g.Cpg(), props)
        else:
            with pytest.raises(SchemaError, match="outside its domain"):
                add(g.Cpg(), props)


class TestEdgeRows:
    def test_one_map_per_value_and_type_in_call_order(self):
        rows = g.EdgeRows(g.CFG, "label")
        values = [True, 1, None, False, 0, "default", 1, True, None, 0, False]
        for i, value in enumerate(values):
            rows.add(i, i + 1, value)
        assert [(src, dst, t) for src, dst, t, _ in rows] == \
            [(i, i + 1, g.CFG) for i in range(len(values))]
        maps = [props for *_, props in rows]
        # `True == 1`, so compare each label with its type
        assert [[(k, type(v), v) for k, v in m.items()] for m in maps] == \
            [[] if v is None else [("label", type(v), v)] for v in values]
        # each value's rows share the map of its first row, and only those
        first = {}
        for value, props in zip(values, maps):
            assert props is first.setdefault((type(value), value), props)
        assert len({id(m) for m in maps}) == len(first) == 6

    def test_no_key_gives_every_row_one_empty_map(self):
        rows = g.EdgeRows(g.CG)
        rows.add(0, 1)
        rows.add(2, 3)
        assert rows == [(0, 1, g.CG, {}), (2, 3, g.CG, {})]
        assert rows[0][3] is rows[1][3]


class TestVocabulary:
    def test_inst_types_are_the_ones_the_builders_emit(self):
        emitted = set(op.INST_TYPE.values())
        assert set(g.INST_TYPES) == emitted | {op.BEGIN_BLOCK, op.END_LOOP}


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

    def test_edge_lists_are_the_typed_edge_lists(self):
        cpg = fixture_cpg("cfg_brtable")
        ids = range(len(cpg.nodes))
        for t in (g.AST, g.CFG, g.CG):
            for direction, edges in (("out", cpg.out_edges), ("in", cpg.in_edges)):
                assert [list(es) for es in cpg._edge_lists(ids, t, direction)] == \
                    [edges(n, t) for n in ids]
        for args in ((g.DDG,), ("XYZ",), (g.CFG, "up")):
            with pytest.raises(GraphError, match="no stored"):
                cpg._edge_lists(ids, *args)


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
