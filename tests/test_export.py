"""Serialization: JSON round-trips, DOT, Datalog facts, Neo4j CSV."""

from __future__ import annotations

import csv
import io
import json

import pytest

from conftest import ALL_FIXTURES, fixture_cpg
from wasmcpg.errors import ExportError
from wasmcpg.export import (
    ExportManifest,
    datalog_facts,
    export,
    import_json,
    neo4j_csv,
    to_dot,
    to_json,
)
from wasmcpg.queries import ScanConfig, run_all
from wasmcpg import graph as g

FACT_ARITIES = {
    "instruction": 2, "function": 8, "call": 4, "loop": 3, "brIf": 2,
    "store": 2, "binary": 2, "compare": 2,
    "astEdge": 3, "cfgEdge": 3, "cgEdge": 2, "ddgEdge": 7,
}


class TestJson:
    def test_empty_module(self):
        doc = json.loads(to_json(fixture_cpg("empty")))
        assert doc["schema"] == 1
        assert len(doc["nodes"]) == 1
        assert doc["nodes"][0]["kind"] == "Module"
        assert doc["edges"] == []

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_roundtrip_byte_identical(self, name, tmp_path):
        cpg = fixture_cpg(name)
        first = to_json(cpg)
        path = tmp_path / "g.json"
        path.write_text(first, encoding="utf-8")
        again = to_json(import_json(str(path)))
        assert first == again

    def test_import_preserves_queries(self, tmp_path, scan_config):
        cpg = fixture_cpg("q03_vuln")
        path = tmp_path / "g.json"
        path.write_text(to_json(cpg), encoding="utf-8")
        loaded = import_json(str(path))
        assert [f.key() for f in run_all(loaded, scan_config)] == \
            [f.key() for f in run_all(cpg, scan_config)]

    def test_reject_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "nodes": [], "edges": []}')
        with pytest.raises(ExportError, match="schema"):
            import_json(str(path))

    def test_reject_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nonsense")
        with pytest.raises(ExportError):
            import_json(str(path))
        path.write_text('["not", "a", "graph"]')
        with pytest.raises(ExportError):
            import_json(str(path))

    NODE = {"id": 0, "kind": "Else", "properties": {}}
    EDGE = {"id": 0, "src": 0, "dst": 0, "type": "CFG", "properties": {}}

    @pytest.mark.parametrize("nodes, edges", [
        (["Else"], []),
        ([{"kind": "Else"}], []),
        ([{"id": 0}], []),
        ([{"id": "0", "kind": "Else"}], []),
        ([{"id": 0, "kind": ["Else"]}], []),
        ([{"id": 0, "kind": "Else", "properties": ["x"]}], []),
        ([NODE], [7]),
        ([NODE], [{k: v for k, v in EDGE.items() if k != "src"}]),
        ([NODE], [{k: v for k, v in EDGE.items() if k != "dst"}]),
        ([NODE], [{k: v for k, v in EDGE.items() if k != "type"}]),
        ([NODE], [{k: v for k, v in EDGE.items() if k != "id"}]),
        ([NODE], [{**EDGE, "src": "0"}]),
        ({"0": NODE}, []),
    ])
    def test_reject_malformed_elements(self, tmp_path, nodes, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "nodes": nodes, "edges": edges}))
        with pytest.raises(ExportError):
            import_json(str(path))

    def test_well_formed_minimal_graph_loads(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"schema": 1, "nodes": [self.NODE],
                                    "edges": [self.EDGE]}))
        cpg = import_json(str(path))
        assert cpg.frozen and len(cpg.edges) == 1


class TestDot:
    def test_colors_and_labels(self):
        text = to_dot(fixture_cpg("fig_ddg"))
        assert "color=green" in text    # AST
        assert "color=red" in text      # CFG
        assert "color=blue" in text     # DDG
        assert 'n4 [label="4: LocalGet $y"]' in text

    def test_edge_type_filter(self):
        text = to_dot(fixture_cpg("fig_ddg"), edge_types=("DDG",))
        assert "color=blue" in text
        assert "color=green" not in text

    def test_cg_color(self):
        text = to_dot(fixture_cpg("libpng_get_token"))
        assert "color=black" in text


class TestDatalog:
    def test_fact_arities(self):
        for name in ("libpng_get_token", "mixed", "fig_ddg"):
            facts = datalog_facts(fixture_cpg(name))
            assert set(facts) == set(FACT_ARITIES)
            for pred, rows in facts.items():
                for row in rows:
                    assert len(row) == FACT_ARITIES[pred], (pred, row)

    def test_fig_ddg_edge_row(self):
        facts = datalog_facts(fixture_cpg("fig_ddg"))
        assert (4, 6, "$y", "Local", "", "", 4) in facts["ddgEdge"]

    def test_one_row_per_matching_element(self):
        cpg = fixture_cpg("libpng_get_token")
        facts = datalog_facts(cpg)
        n_inst = sum(1 for n in cpg.nodes if n.kind == g.INSTRUCTION)
        assert len(facts["instruction"]) == n_inst
        assert len(facts["function"]) == len(cpg.nodes_of_kind(g.FUNCTION))
        assert len(facts["ddgEdge"]) == len(cpg.edges_of_type(g.DDG))
        assert len(facts["cfgEdge"]) == len(cpg.edges_of_type(g.CFG))

    def test_written_files_are_tsv(self, tmp_path):
        manifest = ExportManifest("datalog", str(tmp_path / "facts"))
        paths = export(fixture_cpg("libpng_get_token"), manifest)
        assert {p.split("/")[-1] for p in paths} == \
            {f"{name}.facts" for name in FACT_ARITIES}
        call_rows = (tmp_path / "facts" / "call.facts").read_text().splitlines()
        assert call_rows and all(len(r.split("\t")) == 4 for r in call_rows)


class TestNeo4j:
    def test_headers_and_labels(self):
        nodes_csv, edges_csv = neo4j_csv(fixture_cpg("fig_ddg"))
        nodes = list(csv.DictReader(io.StringIO(nodes_csv)))
        edges = list(csv.DictReader(io.StringIO(edges_csv)))
        assert {":ID", ":LABEL"} <= set(nodes[0])
        assert {":START_ID", ":END_ID", ":TYPE"} <= set(edges[0])
        labels = {r[":LABEL"] for r in nodes}
        assert {"Module", "Function", "Instruction"} <= labels
        # ids referenced by edges must exist: the bulk importer requires it
        ids = {r[":ID"] for r in nodes}
        assert all(r[":START_ID"] in ids and r[":END_ID"] in ids for r in edges)
        assert {r[":TYPE"] for r in edges} <= {"AST", "CFG", "CG", "DDG"}

    def test_function_row_properties(self):
        nodes_csv, _ = neo4j_csv(fixture_cpg("fig_ddg"))
        rows = list(csv.DictReader(io.StringIO(nodes_csv)))
        fn = next(r for r in rows if r.get("name") == "$test")
        assert fn[":LABEL"] == "Function"
        assert fn["nargs"] == "2"


class TestManifest:
    def test_unknown_format_rejected(self):
        with pytest.raises(ExportError, match="format"):
            ExportManifest("yaml", "out")

    def test_export_requires_frozen(self, tmp_path):
        with pytest.raises(ExportError, match="frozen"):
            export(g.Cpg(), ExportManifest("json", str(tmp_path / "x.json")))

    def test_determinism(self):
        cpg = fixture_cpg("mixed")
        assert to_json(cpg) == to_json(cpg)
        assert to_dot(cpg) == to_dot(cpg)
        assert neo4j_csv(cpg) == neo4j_csv(cpg)
