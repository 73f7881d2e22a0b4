"""Serialization: JSON round-trips, DOT, Datalog facts, Neo4j CSV."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import export_readers as readers
import export_reference as reference
import gen
from conftest import ALL_FIXTURES, fixture_cpg
from wasmcpg.errors import ExportError
from wasmcpg.export import (
    SCHEMA_VERSION,
    ExportManifest,
    _datalog_files,
    export,
    import_json,
    neo4j_csv,
    to_dot,
    to_json,
)
from wasmcpg.pipeline import build_cpg
from wasmcpg.queries import ScanConfig, run_all
from wasmcpg import graph as g

FACT_ARITIES = {
    "instruction": 2, "function": 8, "call": 4, "loop": 3, "brIf": 2,
    "store": 2, "binary": 2, "compare": 2,
    "astEdge": 3, "cfgEdge": 3, "cgEdge": 2, "ddgEdge": 7,
}


def _document(cpg: g.Cpg) -> dict:
    """The graph as a record per node and per edge, each with its id, built
    field by field."""
    return {
        "nodes": [{"id": n.id, "kind": n.kind, "properties": dict(n.properties)}
                  for n in cpg.nodes],
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst, "type": e.type,
                   "properties": dict(e.properties)} for e in cpg.edges],
    }


def _decoded(text: str) -> dict:
    """A schema-2 text read back into the `_document` of its graph: each
    run's edges take their own map indexes, or their origins'."""
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA_VERSION == 2
    maps, origin = doc["maps"], dict(doc["origins"])
    edges = []
    for record in doc["edges"]:
        if "type" in record:
            edges.append((record["src"], record["dst"], record["type"], maps[record["map"]]))
            continue
        places = record.get("maps") or [origin[src] for src in record["src"]]
        edges += [(src, record["dst"], g.DDG, maps[i]) for src, i in zip(record["src"], places)]
    return {
        "nodes": [{"id": i, **n} for i, n in enumerate(doc["nodes"])],
        "edges": [{"id": i, "src": s, "dst": d, "type": t, "properties": p}
                  for i, (s, d, t, p) in enumerate(edges)],
    }


def _exact(doc: dict) -> str:
    """A document as text, which tells `1`, `1.0` and `true` apart as `==` does not."""
    return json.dumps(doc, sort_keys=True)


def _rows_layout(doc: dict) -> str:
    """A schema-2 document in the layout `to_json` writes, whatever its content."""
    enc = lambda r: json.dumps(r, sort_keys=True, separators=(",", ":"))
    text = ""
    for i, key in enumerate(("edges", "maps", "nodes", "origins")):
        text += ("{" if i == 0 else "],") + f'"{key}":[\n'
        if doc[key]:
            text += ",\n".join(map(enc, doc[key])) + "\n"
    return text + '],"schema":%s}\n' % enc(doc["schema"])


def _read_both(cpg: g.Cpg, tmp_path) -> tuple[g.Cpg, g.Cpg]:
    """The graphs read from `to_json`'s file and from its pretty-printed
    reprint."""
    path, pretty = tmp_path / "g.json", tmp_path / "pretty.json"
    text = to_json(cpg)
    path.write_text(text, encoding="utf-8")
    pretty.write_text(json.dumps(json.loads(text), indent=1), encoding="utf-8")
    return import_json(str(path)), import_json(str(pretty))


CONSTS = """(module (func $f
    i32.const 1 drop f32.const 1.0 drop f64.const 0.0 drop f64.const -0.0 drop))"""


def _edgeless(n_nodes: int) -> g.Cpg:
    cpg = g.Cpg()
    for _ in range(n_nodes):
        cpg.add_node(g.ELSE, {})
    return cpg.freeze()


class TestJson:
    def test_empty_module(self):
        doc = json.loads(to_json(fixture_cpg("empty")))
        assert doc["schema"] == 2
        assert doc["nodes"] == [{"kind": "Module", "properties": {"name": ""}}]
        assert doc["edges"] == doc["maps"] == doc["origins"] == []

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_document_matches_graph(self, name):
        cpg = fixture_cpg(name)
        assert _exact(_decoded(to_json(cpg))) == _exact(_document(cpg))

    @pytest.mark.parametrize("name", ["fig_ddg", "mixed", "libpng_get_token"])
    def test_one_compact_record_per_line(self, name):
        text = to_json(fixture_cpg(name))
        doc = json.loads(text)
        lines = text.split("\n")
        assert lines[-1] == ""      # newline-terminated
        lines = lines[:-1]
        heads = ['{"edges":[', '],"maps":[', '],"nodes":[', '],"origins":[', '],"schema":2}']
        assert [l for l in lines if l in heads] == heads
        at = [lines.index(h) for h in heads]
        for key, start, stop in zip(("edges", "maps", "nodes", "origins"), at, at[1:]):
            records = lines[start + 1:stop]
            assert len(records) == len(doc[key]) > 0
            for line, record in zip(records, doc[key]):
                alone = line.removesuffix(",")
                assert alone == json.dumps(record, sort_keys=True, separators=(",", ":"))
            # every record but the last of each list ends with a comma
            assert [l.endswith(",") for l in records].count(False) == 1
        # each DDG run into one consumer is one record, and each origin's map is listed once
        runs = [r for r in doc["edges"] if "type" not in r]
        assert sum(len(r["src"]) for r in runs) == len(fixture_cpg(name).edges_of_type(g.DDG))
        assert len(runs) < sum(len(r["src"]) for r in runs)
        assert len({json.dumps(m, sort_keys=True) for m in doc["maps"]}) == len(doc["maps"])

    @pytest.mark.parametrize("name", ["fig_ddg", "mixed", "empty"])
    def test_pretty_printed_file_imports(self, name, tmp_path):
        cpg = fixture_cpg(name)
        path = tmp_path / "pretty.json"
        path.write_text(json.dumps(json.loads(to_json(cpg)), indent=2), encoding="utf-8")
        assert to_json(import_json(str(path))) == to_json(cpg)

    def test_value_types_kept(self, tmp_path):
        cpg, _ = build_cpg("""(module (func $f (export "f") (result f32)
            (local i32) i32.const 7 local.set 0
            f32.const 1.0 f32.const 2.5 f32.add))""")
        text = to_json(cpg)
        assert '"value":1.0,' in text and '"value":7,' in text
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        for graph in (_decoded(text), _document(import_json(str(path)))):
            values = {(e["properties"]["value"], type(e["properties"]["value"]))
                      for e in graph["edges"] if e["type"] == "DDG"}
            assert values == {(7, int), (1.0, float), (2.5, float)}
            (fn,) = [n for n in graph["nodes"] if n["kind"] == "Function"]
            assert fn["properties"]["isExport"] is True
            assert fn["properties"]["isImport"] is False

    @pytest.mark.parametrize("n_nodes", [0, 1, 3])
    def test_graph_without_edges(self, n_nodes, tmp_path):
        cpg = _edgeless(n_nodes)
        text = to_json(cpg)
        assert _decoded(text) == _document(cpg)
        assert text.count("\n") == n_nodes + 5
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        assert to_json(import_json(str(path))) == text

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_saved_file_is_to_json(self, name, tmp_path):
        cpg = fixture_cpg(name)
        path = tmp_path / "g.json"
        assert export(cpg, ExportManifest("json", str(path))) == [str(path)]
        assert path.read_bytes() == to_json(cpg).encode("utf-8")

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        def failing(cpg):
            yield '{"edges":[\n'
            raise MemoryError
        path = tmp_path / "g.json"
        path.write_text("old", encoding="utf-8")
        monkeypatch.setattr(sys.modules["wasmcpg.export"], "_json_chunks", failing)
        with pytest.raises(MemoryError):
            export(fixture_cpg("mixed"), ExportManifest("json", str(path)))
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    @pytest.mark.parametrize("fmt", ["json", "dot", "datalog"])
    def test_an_output_that_cannot_be_created_is_named_as_given(self, fmt, tmp_path,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "facts").mkdir()
        (tmp_path / "facts" / "astEdge.facts").mkdir()   # a datalog file's place is taken
        path = "facts" if fmt == "datalog" else "nodir/g." + fmt
        with pytest.raises(OSError) as caught:
            export(fixture_cpg("mixed"), ExportManifest(fmt, path))
        given = "facts/astEdge.facts" if fmt == "datalog" else path
        assert caught.value.filename == given and repr(given) in str(caught.value)
        assert [p.name for p in tmp_path.rglob("*")] == ["facts", "astEdge.facts"]

    def test_save_writes_through_a_link(self, tmp_path):
        cpg = fixture_cpg("mixed")
        (tmp_path / "real.json").write_text("old", encoding="utf-8")
        (tmp_path / "link.json").symlink_to(tmp_path / "real.json")
        export(cpg, ExportManifest("json", str(tmp_path / "link.json")))
        assert (tmp_path / "link.json").is_symlink()
        assert (tmp_path / "real.json").read_bytes() == to_json(cpg).encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_size_keeps_the_text(self, chunk, monkeypatch):
        cpgs = [fixture_cpg("mixed"), fixture_cpg("empty"), _edgeless(0), _edgeless(3)]
        texts = [to_json(cpg) for cpg in cpgs]
        monkeypatch.setattr(sys.modules["wasmcpg.export"], "_CHUNK", chunk)
        assert [to_json(cpg) for cpg in cpgs] == texts

    def test_percent_signs_in_labels(self, tmp_path):
        # record texts are %-format templates; a label's own % stays literal
        cpg, _ = build_cpg("(module (func $f%d (param $a%s i32) (result i32) "
                           "local.get $a%s call $f%d i32.eqz))")
        text = to_json(cpg)
        assert _decoded(text) == _document(cpg)
        labels = {e["properties"]["label"] for e in _decoded(text)["edges"]
                  if e["type"] == "DDG"}
        assert labels == {"$a%s", "$f%d"}
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        assert to_json(import_json(str(path))) == text

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_roundtrip_byte_identical(self, name, tmp_path):
        cpg = fixture_cpg(name)
        first = to_json(cpg)
        path = tmp_path / "g.json"
        path.write_text(first, encoding="utf-8")
        again = to_json(import_json(str(path)))
        assert first == again

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_line_and_document_readers_agree(self, name, tmp_path):
        cpg = fixture_cpg(name)
        rows, records = _read_both(cpg, tmp_path)
        assert _exact(_document(rows)) == _exact(_document(records)) == _exact(_document(cpg))
        assert list(rows.edge_rows()) == list(records.edge_rows()) == list(cpg.edge_rows())
        assert to_json(rows) == to_json(records) == to_json(cpg)

    @staticmethod
    def _pretty(doc):
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    @staticmethod
    def _reordered(doc):
        """The lists, and each record's keys, in reverse order."""
        flip = lambda r: dict(reversed(r.items())) if isinstance(r, dict) else r
        return json.dumps({key: [flip(r) for r in value] if isinstance(value, list) else value
                           for key, value in reversed(doc.items())}) + "\n"

    @staticmethod
    def _extra_key(doc):
        """`to_json`'s layout with one more top-level key, which names no part
        of the graph (a key in a record is a fault: see below)."""
        return _rows_layout(doc)[:-len("}\n")] + ',"zz":1}\n'

    @staticmethod
    def _two_on_one_line(doc):
        lines = _rows_layout(doc).split("\n")
        return "\n".join(lines[:1] + [lines[1] + lines[2]] + lines[3:])

    @pytest.mark.parametrize("variant", ["_pretty", "_reordered", "_extra_key",
                                         "_two_on_one_line"])
    @pytest.mark.parametrize("name", ["fig_ddg", "mixed", "libpng_get_token"])
    def test_other_layouts_take_the_document_reader(self, name, variant, tmp_path):
        cpg = fixture_cpg(name)
        path = tmp_path / "g.json"
        path.write_text(getattr(self, variant)(json.loads(to_json(cpg))), encoding="utf-8")
        assert to_json(import_json(str(path))) == to_json(cpg)

    def test_values_equal_in_python_stay_apart(self, tmp_path):
        cpg, _ = build_cpg(CONSTS)
        text = to_json(cpg)
        for value in ('"value":1,', '"value":1.0,', '"value":0.0,', '"value":-0.0,'):
            assert value in text
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        loaded = import_json(str(path))
        assert to_json(loaded) == text
        values = [e.properties["value"] for e in loaded.edges_of_type(g.DDG)]
        assert [(type(v), math.copysign(1, v)) for v in values] == \
            [(int, 1), (float, 1), (float, 1), (float, -1)]
        assert len({id(e.properties) for e in loaded.edges_of_type(g.DDG)}) == 4

    @pytest.mark.parametrize("name", ["mixed", "libpng_get_token", "q10_vuln"])
    def test_import_shares_one_map_per_type_and_text(self, name, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(to_json(fixture_cpg(name)), encoding="utf-8")
        loaded = import_json(str(path))
        maps: dict[tuple[str, str], set[int]] = {}
        for e in loaded.edges:
            key = (e.type, json.dumps(e.properties, sort_keys=True))
            maps.setdefault(key, set()).add(id(e.properties))
        assert all(len(ids) == 1 for ids in maps.values())
        # `{}` is one map for CFG and another for CG
        assert maps[g.CFG, "{}"] != maps[g.CG, "{}"]

    def test_import_preserves_queries(self, tmp_path, scan_config):
        cpg = fixture_cpg("q03_vuln")
        path = tmp_path / "g.json"
        path.write_text(to_json(cpg), encoding="utf-8")
        loaded = import_json(str(path))
        assert [f.key() for f in run_all(loaded, scan_config)] == \
            [f.key() for f in run_all(cpg, scan_config)]

    def test_reject_schema_1(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**_document(fixture_cpg("mixed")), "schema": 1}))
        with pytest.raises(ExportError, match=r"^unsupported schema version 1; rebuild .*"
                                              r"`wasmcpg build`$"):
            import_json(str(path))

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

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf8", "too-deep"])
    def test_reject_undecodable(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ExportError, match="cannot load"):
            import_json(str(path))

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            import_json(str(tmp_path / "missing.json"))

    # a schema-2 document's maps, nodes and origins, around the faulty records below
    MAPS = [{}, {"ddgType": "Local", "label": "$x"}]
    NODES = [{"kind": "Else", "properties": {}}] * 2
    ONE = {"dst": 1, "map": 0, "src": 0, "type": "CFG"}   # one CFG edge
    RUN = {"dst": 1, "src": [0]}                         # a DDG run from origin 0

    @pytest.mark.parametrize("nodes, edges", [
        (NODES, [{**ONE, "src": 2}]),
        (NODES, [{**ONE, "dst": -1}]),
        (NODES, [{**ONE, "src": "0"}]),
        (NODES, [{**ONE, "map": -1}]),
        (NODES, [{**ONE, "map": True}]),
        (NODES, [{**ONE, "map": 2}]),
        (NODES, [{**ONE, "map": "0"}]),
        (NODES, [{**ONE, "type": "XYZ"}]),
        (NODES, [{**ONE, "type": "DDG", "map": 1}]),
        (NODES, [{k: v for k, v in ONE.items() if k != "map"}]),
        (NODES, [{**RUN, "src": 0}]),
        (NODES, [{**RUN, "src": []}]),
        (NODES, [{**RUN, "src": [1]}]),      # 1 has no origin entry
        (NODES, [{**RUN, "dst": 2}]),
        (NODES, [{**RUN, "dst": True}]),
        (NODES, [{**RUN, "src": [False]}]),
        (NODES, [{**RUN, "maps": [-1]}]),
        (NODES, [{**RUN, "maps": [True]}]),
        (NODES, [{**RUN, "maps": [2]}]),
        (NODES, [{**RUN, "maps": [1, 1]}]),
        ([{"kind": "Else"}], []),
        (NODES, [{**ONE, "zz": 1}]),         # a record with a key of no field
        (NODES, [{**RUN, "zz": 1}]),
        (NODES, [7]),                        # an edge record that is not an object
        (NODES, [{"src": [0]}]),             # a run without its consumer
        (["Else"], []),                      # a node record that is not an object
        ([{"properties": {}}], []),
        ([{"kind": ["Else"], "properties": {}}], []),
        ([{"kind": "Instruction", "properties": [["instType", "Nop"]]}], []),
    ])
    def test_line_layout_fails_as_the_document_does(self, tmp_path, nodes, edges):
        """A faulty schema-2 record fails the same way in `to_json`'s layout
        and pretty-printed: an `ExportError`."""
        doc = {"edges": edges, "maps": self.MAPS, "nodes": nodes, "origins": [[0, 1]],
               "schema": 2}
        errors = []
        for text in (_rows_layout(doc), json.dumps(doc, indent=1)):
            path = tmp_path / "bad.json"
            path.write_text(text)
            with pytest.raises(ExportError) as info:
                import_json(str(path))
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("end", ["src", "dst"])
    @pytest.mark.parametrize("value", [True, False, 1.0], ids=repr)
    def test_a_single_edge_endpoint_must_be_an_int(self, tmp_path, end, value):
        doc = {"edges": [{**self.ONE, end: value}], "maps": self.MAPS, "nodes": self.NODES,
               "origins": [[0, 1]], "schema": 2}
        for text in (_rows_layout(doc), json.dumps(doc, indent=1)):
            path = tmp_path / "bad.json"
            path.write_text(text)
            with pytest.raises(ExportError, match="dangling edge endpoint"):
                import_json(str(path))

    @pytest.mark.parametrize("change", [
        {"schema": 3}, {"schema": True}, {"schema": "2"},
        {"maps": None}, {"origins": {"0": 1}},
        {"origins": [[2, 1]]}, {"origins": [[-1, 1]]}, {"origins": [[True, 1]]},
        {"origins": [[0, 1], [0, 1]]}, {"origins": [[0, 5]]}, {"origins": [[0, False]]},
        {"origins": [[0, 1], [1, True]]}, {"origins": [[0, 0]]},
        {"maps": [{"label": "sideways"}, MAPS[1]]}, {"nodes": [{**NODES[0], "kind": "Nope"}] * 2},
        {"origins": [[0]]}, {"origins": [0]},
        {"maps": [[1], MAPS[1]]},   # a map that is not an object
        {"maps": [{}, {**MAPS[1], "label": [1, 2]}]},   # a DDG label that is no scalar
        {"edges": [{**ONE, "type": "AST"}], "maps": [{"childIndex": True}, MAPS[1]]},
    ], ids=repr)
    def test_malformed_schema_2_document(self, tmp_path, change):
        doc = {"edges": [self.ONE, self.RUN], "maps": self.MAPS, "nodes": self.NODES,
               "origins": [[0, 1]], "schema": 2, **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ExportError):
            import_json(str(path))

    @pytest.mark.parametrize("label", [math.inf, -math.inf, math.nan], ids=repr)
    def test_a_ddg_label_must_be_a_finite_number(self, tmp_path, label):
        # json.dumps writes Infinity, -Infinity and NaN, which json.load reads
        doc = {"edges": [self.RUN], "maps": [{}, {"ddgType": "Local", "label": label}],
               "nodes": self.NODES, "origins": [[0, 1]], "schema": 2}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ExportError, match="label=.* outside its domain"):
            import_json(str(path))

    @pytest.mark.parametrize("key", ["edges", "maps", "nodes", "origins"])
    def test_schema_2_needs_every_key(self, tmp_path, key):
        doc = {"edges": [], "maps": [], "nodes": [], "origins": [], "schema": 2}
        del doc[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ExportError, match=key):
            import_json(str(path))

    def test_well_formed_schema_2_graph_loads(self, tmp_path):
        doc = {"edges": [self.ONE, self.RUN, {**self.RUN, "maps": [1]}], "maps": self.MAPS,
               "nodes": self.NODES, "origins": [[0, 1]], "schema": 2}
        path = tmp_path / "ok.json"
        path.write_text(_rows_layout(doc))
        cpg = import_json(str(path))
        assert [(e.src, e.dst, e.type) for e in cpg.edges] == [(0, 1, "CFG"), (0, 1, "DDG"),
                                                                (0, 1, "DDG")]
        assert cpg.edge(1).properties is cpg.edge(2).properties
        # both edges carry origin 0's map, in one run into node 1
        merged = {**doc, "edges": [self.ONE, {**self.RUN, "src": [0, 0]}]}
        assert to_json(cpg) == _rows_layout(merged)


# Maps the round-trip property draws from: texts that differ only in type or
# sign, and one `{}` object under AST, CFG and CG alike.
EMPTY: dict = {}
EDGE_MAPS = {
    g.AST: [EMPTY, {"childIndex": 0}, {"childIndex": 1}],
    g.CFG: [EMPTY, {"label": True}, {"label": 1}, {"label": "default"}],
    g.CG: [EMPTY],
    g.DDG: [{"ddgType": "Local", "label": "$x"},
            {"ddgType": "Const", "label": 1, "value": 1, "valueType": "i32"},
            {"ddgType": "Const", "label": 1, "value": 1.0, "valueType": "f64"},
            {"ddgType": "Const", "label": 0, "value": 0.0, "valueType": "f64"},
            {"ddgType": "Const", "label": 0, "value": -0.0, "valueType": "f64"}],
}
NODE_MAPS = [(g.ELSE, {}), (g.VAR_NODE, {"name": "$x", "varType": "i32"}),
             (g.INSTRUCTION, {"instType": "Nop"})]


@st.composite
def graphs(draw, edge_maps=EDGE_MAPS, node_maps=NODE_MAPS) -> g.Cpg:
    """A frozen graph of up to 6 nodes, some maybe without edges, and batches
    of edges of every type, interleaved: single `add_edge`s (a map copy per
    edge, so origins carry text-equal maps), `add_edges` rows (one copy per
    map and type), and `add_ddg_rows` rows, bitsets over a permutation of
    the nodes (one map per origin)."""
    cpg = g.Cpg()
    for kind, props in draw(st.lists(st.sampled_from(node_maps), max_size=6)):
        cpg.add_node(kind, props)
    if not cpg.nodes:
        return cpg.freeze()
    node = st.integers(0, len(cpg.nodes) - 1)
    edge = st.tuples(node, node, st.sampled_from(g.EDGE_TYPES)).flatmap(
        lambda e: st.tuples(*map(st.just, e), st.sampled_from(edge_maps[e[2]])))
    for kind, batch in draw(st.lists(st.one_of(
            st.tuples(st.sampled_from(["edge", "edges"]), st.lists(edge, max_size=6)),
            st.tuples(st.just("rows"), st.tuples(
                st.lists(st.tuples(node, st.integers(0, (1 << len(cpg.nodes)) - 1)), max_size=3),
                st.permutations(range(len(cpg.nodes))), st.integers(0, 4)))), max_size=5)):
        if kind == "edge":
            for row in batch:
                cpg.add_edge(*row)
        elif kind == "edges":
            cpg.add_edges(batch)
        else:
            rows, origins, shift = batch
            ddg = edge_maps[g.DDG]
            cpg.add_ddg_rows(rows, origins, lambda src: ddg[(src + shift) % len(ddg)])
    return cpg.freeze()


def _reloaded(text: str) -> g.Cpg:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return import_json(path)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cpg=graphs())
    def test_reload_keeps_the_bytes_the_nodes_and_the_edge_rows(self, cpg):
        text = to_json(cpg)
        loaded = _reloaded(text)
        assert to_json(loaded) == text
        assert _exact(_document(loaded)) == _exact(_document(cpg)) == _exact(_decoded(text))
        assert [row[:3] for row in loaded.edge_rows()] == [row[:3] for row in cpg.edge_rows()]

    def test_an_origin_with_two_maps_lists_its_run_maps(self):
        cpg = g.Cpg()
        for _ in range(3):
            cpg.add_node(g.ELSE)
        cpg.add_edge(0, 1, g.DDG, EDGE_MAPS[g.DDG][3])
        cpg.add_edge(0, 2, g.DDG, EDGE_MAPS[g.DDG][4])   # -0.0, equal to 0.0 in Python
        cpg.add_edge(1, 2, g.DDG, EDGE_MAPS[g.DDG][0])
        text = to_json(cpg.freeze())
        doc = json.loads(text)
        assert doc["edges"] == [{"dst": 1, "src": [0]}, {"dst": 2, "maps": [1, 2], "src": [0, 1]}]
        assert doc["origins"] == [[0, 0], [1, 2]]
        loaded = _reloaded(text)
        assert [math.copysign(1, e.properties["value"]) for e in loaded.edges[:2]] == [1, -1]
        assert to_json(loaded) == text


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

    def test_backslash_escaped_in_labels(self):
        cpg, _ = build_cpg(r"""(module (func $f (param $a\ i32) (result i32)
            local.get $a\ i32.const 1 i32.add))""")
        lines = to_dot(cpg).splitlines()
        assert '  n2 [label="2: LocalGet $a\\\\"];' in lines
        assert '  n2 -> n4 [color=blue, label="$a\\\\"];' in lines
        # every quoted label closes where its attribute list does
        quoted = r'"(?:[^"\\]|\\.)*"'
        labelled = [l for l in lines if "label=" in l]
        assert len(labelled) == len(cpg.nodes) + 3
        for line in labelled:
            assert re.fullmatch(rf'  n\d+ (-> n\d+ )?\[(color=\w+, )?label={quoted}\];', line)


def _written_facts(cpg: g.Cpg, directory) -> dict[str, list[tuple[str, ...]]]:
    """The facts `export` writes for `cpg` into `directory`, read back."""
    export(cpg, ExportManifest("datalog", str(directory)))
    return readers.read_facts(str(directory))


class TestDatalog:
    def test_fact_arities(self, tmp_path):
        for name in ("libpng_get_token", "mixed", "fig_ddg"):
            facts = _written_facts(fixture_cpg(name), tmp_path / name)
            assert set(facts) == set(FACT_ARITIES)
            for pred, rows in facts.items():
                for row in rows:
                    assert len(row) == FACT_ARITIES[pred], (pred, row)

    def test_fig_ddg_edge_row(self, tmp_path):
        facts = _written_facts(fixture_cpg("fig_ddg"), tmp_path)
        assert ("4", "6", "$y", "Local", "", "", "4") in facts["ddgEdge"]

    def test_one_row_per_matching_element(self, tmp_path):
        cpg = fixture_cpg("libpng_get_token")
        facts = _written_facts(cpg, tmp_path)
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

    @pytest.mark.parametrize("render", [_datalog_files, to_dot, neo4j_csv])
    def test_the_edge_columns_are_read_once(self, render, monkeypatch):
        reads, edge_columns = [], g.Cpg.edge_columns
        monkeypatch.setattr(g.Cpg, "edge_columns",
                            lambda cpg: reads.append(cpg) or edge_columns(cpg))
        cpg = fixture_cpg("mixed")
        assert render(cpg) and reads == [cpg]

    def test_tab_newline_and_backslash_cells_are_escaped(self):
        # a DDG label is any value: one holding a tab, LF, CR or backslash
        # still renders its fact as one line of seven cells
        cpg = g.Cpg()
        a, b = (cpg.add_node(g.INSTRUCTION, {"instType": "Const", "valueType": "i32",
                                              "value": 1}) for _ in range(2))
        cpg.add_edge(a, b, g.DDG, {"ddgType": "Local", "label": "x\ty\nz\r\\"})
        text = _datalog_files(cpg.freeze())["ddgEdge.facts"]
        assert text == "0\t1\tx\\ty\\nz\\r\\\\\tLocal\t\t\t0\n"
        assert [len(line.split("\t")) for line in text.splitlines()] == [FACT_ARITIES["ddgEdge"]]
        assert text == reference.datalog_files(cpg)["ddgEdge.facts"]


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

    def test_carriage_return_is_quoted(self):
        """A value holding `\r` is quoted, as one holding `\n` is, so each row
        of an imported graph's CSV reads back as one row."""
        cpg = g.Cpg()
        cpg.add_node(g.VAR_NODE, {"name": "$a\rb", "varType": "i32"})
        cpg.add_node(g.INSTRUCTION, {"instType": "LocalGet", "label": "$a\rb"})
        cpg.add_edge(1, 0, g.DDG, {"ddgType": "Local", "label": "$a\rb"})
        nodes_csv, edges_csv = neo4j_csv(_reloaded(to_json(cpg.freeze())))
        nodes = list(csv.reader(io.StringIO(nodes_csv, newline="")))
        edges = list(csv.reader(io.StringIO(edges_csv, newline="")))
        assert len(nodes) == 3 and len(edges) == 2
        assert nodes[1][nodes[0].index("name")] == nodes[2][nodes[0].index("label")] == "$a\rb"
        assert edges[1][edges[0].index("label")] == "$a\rb"


# Labels that text formats quote or escape, or that a template could misread
TEXTS = ["{$x}", "100%d%%", "a\\b\\", 'say "hi"', "x,y", "\u00e9\u2192\u03bb", "cr\r", "lf\n"]
TEXT_EDGE_MAPS = {**EDGE_MAPS, g.DDG: [*({"ddgType": "Local", "label": t} for t in TEXTS),
                                       *EDGE_MAPS[g.DDG][1:3]]}
TEXT_NODE_MAPS = [
    *((g.VAR_NODE, {"name": t, "varType": "i32"}) for t in TEXTS[:4]),
    (g.VAR_NODE, {"varType": "i32", "name": TEXTS[4]}),   # the same keys in another order
    *((g.INSTRUCTION, {"instType": "Loop", "label": t, "nresults": 0}) for t in TEXTS[4:]),
    (g.INSTRUCTION, {"instType": "Const", "valueType": "f64", "value": -0.0}),
    (g.INSTRUCTION, {"instType": "Store", "offset": 4}),
    (g.FUNCTION, {"name": "$f{%}", "index": 0, "nargs": 1, "nlocals": 0, "nresults": 1,
                  "isImport": False, "isExport": True}),
    (g.MODULE, {"name": "m,\"\\"}), (g.ELSE, {})]


def _assert_reference_bytes(cpg: g.Cpg) -> None:
    """DOT, with every edge type and with a few sets of them, the Datalog
    files and the Neo4j CSV equal the row-by-row renderers'."""
    assert to_dot(cpg) == reference.to_dot(cpg)
    for kept in ((g.DDG,), (g.AST, g.CG), (g.CFG, g.DDG), ()):
        assert to_dot(cpg, kept) == reference.to_dot(cpg, kept)
    assert _datalog_files(cpg) == reference.datalog_files(cpg)
    assert neo4j_csv(cpg) == reference.neo4j_csv(cpg)


class TestReferenceBytes:
    """The column renderers write the bytes of the row-by-row ones kept in
    `export_reference.py`."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixture_and_its_reload(self, name):
        cpg = fixture_cpg(name)
        _assert_reference_bytes(cpg)
        _assert_reference_bytes(_reloaded(to_json(cpg)))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_module(self, seed):
        _assert_reference_bytes(build_cpg(gen.random_module(seed))[0])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cpg=graphs(TEXT_EDGE_MAPS, TEXT_NODE_MAPS))
    def test_interleaved_graphs_with_quoted_labels(self, cpg):
        _assert_reference_bytes(cpg)
        _assert_reference_bytes(_reloaded(to_json(cpg)))


def _csv_text(value) -> str:
    """A Neo4j CSV cell's value: a bool as true or false, None as empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _assert_read_back(cpg: g.Cpg, directory: str) -> None:
    """The DOT, Datalog and Neo4j CSV files `export` writes into `directory`,
    read back apart from the renderers, hold the graph's nodes and edge rows
    as far as each format carries them."""
    rows = list(cpg.edge_rows())
    label = lambda p: None if p.get("label") is None else str(p["label"])
    export(cpg, ExportManifest("dot", os.path.join(directory, "g.dot")))
    assert readers.read_dot(os.path.join(directory, "g.dot")) == (
        [(n.id, reference._dot_label(n)) for n in cpg.nodes],
        [(s, d, reference.EDGE_COLORS[t], label(p)) for s, d, t, p in rows])
    export(cpg, ExportManifest("datalog", os.path.join(directory, "facts")))
    assert readers.read_facts(os.path.join(directory, "facts")) == {
        name: [tuple(map(reference.cell, fact)) for fact in facts]
        for name, facts in reference.datalog_facts(cpg).items()}
    export(cpg, ExportManifest("neo4j-csv", os.path.join(directory, "csv")))
    keys = sorted({k for n in cpg.nodes for k in n.properties})
    assert readers.read_csv(os.path.join(directory, "csv", "nodes.csv")) == [
        [":ID", ":LABEL", *keys],
        *([str(n.id), n.kind, *(_csv_text(n.properties.get(k)) for k in keys)] for n in cpg.nodes)]
    keys = sorted({k for *_, p in rows for k in p})
    assert readers.read_csv(os.path.join(directory, "csv", "edges.csv")) == [
        [":START_ID", ":END_ID", ":TYPE", *keys],
        *([str(s), str(d), t, *(_csv_text(p.get(k)) for k in keys)] for s, d, t, p in rows)]


# a graph file whose DDG label holds a tab and a newline, and whose Call's
# CG edge reaches a Nop: the schema does not type CG endpoints
ODD_DOCUMENT = {
    "edges": [{"dst": 1, "map": 0, "src": 0, "type": "CG"}, {"dst": 0, "src": [2]}],
    "maps": [{}, {"ddgType": "Local", "label": "x\ty\nz"}],
    "nodes": [{"kind": "Instruction", "properties": {"instType": "Call", "label": "$f"}},
              {"kind": "Instruction", "properties": {"instType": "Nop"}},
              {"kind": "Instruction", "properties": {"instType": "LocalGet", "label": "$x"}}],
    "origins": [[2, 1]], "schema": 2}


class TestReadBack:
    """Each text export read back as its consumers read it: a `.facts`
    line split on tab and unescaped, a CSV file through the `csv` module,
    and DOT statements whose quoted labels may span lines."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cpg=graphs(TEXT_EDGE_MAPS, TEXT_NODE_MAPS))
    @example(cpg=_reloaded(json.dumps(ODD_DOCUMENT)))
    def test_each_reader_rebuilds_the_graph(self, cpg):
        for graph in (cpg, _reloaded(to_json(cpg))):
            with tempfile.TemporaryDirectory() as tmp:
                _assert_read_back(graph, tmp)


class TestManifest:
    def test_unknown_format_rejected(self):
        with pytest.raises(ExportError, match="format"):
            ExportManifest("yaml", "out")

    @pytest.mark.parametrize("edge_types", [("XYZ",), ("DDG", "ddg"), ("AST", "")])
    def test_unknown_edge_types_rejected(self, edge_types):
        with pytest.raises(ExportError, match="unknown edge types"):
            ExportManifest("dot", "out.dot", edge_types)

    def test_export_requires_frozen(self, tmp_path):
        with pytest.raises(ExportError, match="frozen"):
            export(g.Cpg(), ExportManifest("json", str(tmp_path / "x.json")))

    def test_determinism(self):
        cpg = fixture_cpg("mixed")
        assert to_json(cpg) == to_json(cpg)
        assert to_dot(cpg) == to_dot(cpg)
        assert neo4j_csv(cpg) == neo4j_csv(cpg)
