"""Command-line surface: subcommands, exit codes, stream discipline."""

from __future__ import annotations

import collections
import copy
import errno
import json
import math
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (ALL_FIXTURES, FIXTURES, TOKEN_RE, fixture_cpg, fixture_source,
                      run_capped, run_child)
from test_ast_builder import DEAD_LABELED_IF
from gen import fold_module, nested_blocks, nested_expression, random_module, scaling_module
from test_wat_parser import MALFORMED, MULTI_RESULT, SYNTHESIZED_LOCAL_CLASH
from test_wql import QUERIES_WQL, TWIN_STEPS
from wasmcpg.cli import main
from wasmcpg.errors import WasmCpgError
from wasmcpg.export import FORMATS, ExportManifest, export, import_json, to_json
from wasmcpg.queries import ScanConfig, run_all
from wasmcpg.wat_parser import parse_module
from wasmcpg.wql import eval_wql, parse_wql
from wasmcpg import graph as g

CONFIG = str(FIXTURES / "scan_config.json")
MIXED = str(FIXTURES / "mixed.wat")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScan:
    def test_uaf_fixture_exits_one_with_jsonl(self, capsys):
        code, out, _ = run(capsys, "scan", str(FIXTURES / "q03_vuln.wat"),
                           "--config", CONFIG)
        assert code == 1
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 1
        assert lines[0]["query"] == 3
        assert lines[0]["function"] == "$uaf"
        assert lines[0]["label"] == "$free"
        assert set(lines[0]) == {"query", "kind", "function", "label",
                                 "description", "nodes"}

    def test_clean_fixture_exits_zero(self, capsys):
        code, out, _ = run(capsys, "scan", str(FIXTURES / "q03_clean.wat"),
                           "--config", CONFIG)
        assert code == 0
        assert out == ""

    def test_builtin_selection(self, capsys):
        code, out, _ = run(capsys, "scan", str(FIXTURES / "q10_vuln.wat"),
                           "--config", CONFIG, "--builtin", "1,2,3")
        assert code == 0
        code, out, _ = run(capsys, "scan", str(FIXTURES / "q10_vuln.wat"),
                           "--config", CONFIG, "--builtin", "10")
        assert code == 1

    def test_wql_queries(self, capsys, tmp_path):
        qfile = tmp_path / "taint.wql"
        qfile.write_text((FIXTURES / "wql" / "taint_func_to_func.wql").read_text())
        code, out, _ = run(capsys, "scan", str(FIXTURES / "q06_vuln.wat"),
                           "--config", CONFIG, "--wql", str(qfile),
                           "--builtin", "")
        assert code == 1
        (line,) = [json.loads(l) for l in out.splitlines()]
        assert line["kind"] == "Tainted" and line["query"] is None

    def test_timing_report_lists_all_stages(self, capsys):
        code, out, err = run(capsys, "scan",
                             str(FIXTURES / "libpng_get_token.wat"),
                             "--config", CONFIG, "--timing")
        for stage in ("parse", "ast", "cfg", "cg", "ddg_fixpoint", "ddg_emit", "freeze"):
            assert stage in err
        assert "BO Loops" in out


    def test_timing_report_counts_the_ddg_edges(self, capsys):
        code, _, err = run(capsys, "scan", str(FIXTURES / "mixed.wat"), "--timing")
        (count,) = re.findall(r"^  ddg_emit .* (\d+) edges$", err, re.M)
        assert code == 0 and int(count) == len(fixture_cpg("mixed").edges_of_type(g.DDG)) > 0

    def test_a_host_that_froze_its_heap_scans_as_usual(self, capsys):
        # in a child, as gc.freeze() would freeze the test run's heap: the
        # build leaves the host's freeze count and GC as they were. A first
        # scan runs before the freeze, since a process's first build frees
        # a few objects made before it
        code = ("import contextlib, gc, io, sys; from wasmcpg.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()): main(['scan', sys.argv[1]])\n"
                "gc.freeze(); frozen = gc.get_freeze_count()\n"
                "code = main(['scan', sys.argv[1]])\n"
                "print(gc.get_freeze_count() == frozen > 0, gc.isenabled(), file=sys.stderr)\n"
                "sys.exit(code)")
        plain = run(capsys, "scan", MIXED)
        assert plain[0] in (0, 1)
        assert run_child(["-c", code, MIXED]) == (*plain[:2], "True True\n")


# (fixture, options): every fixture with the built-in queries, and each
# packaged WQL query on mixed.wat and on its own qNN_vuln.wat
SAVED_GRAPH_RUNS = [pytest.param(name, (), id=name) for name in ALL_FIXTURES] + [
    pytest.param(name, ("--wql", str(path)), id=f"{path.name[:3]}-{name}")
    for path in sorted(QUERIES_WQL.glob("*.wql")) for name in ("mixed", f"{path.name[:3]}_vuln")]


class TestBuildQueryExport:
    @pytest.mark.parametrize("name, options", SAVED_GRAPH_RUNS)
    def test_a_saved_graph_gives_the_scan_findings(self, capsys, tmp_path, name, options):
        wat, graph = str(FIXTURES / f"{name}.wat"), str(tmp_path / "g.json")
        scan = run(capsys, "scan", wat, "--config", CONFIG, *options)
        assert scan[0] in (0, 1)
        assert run(capsys, "build", wat, "-o", graph) == (0, "", "")
        assert run(capsys, "query", graph, "--config", CONFIG, *options) == scan

    def test_build_then_query_then_export(self, capsys, tmp_path):
        graph = tmp_path / "cpg.json"
        code, out, _ = run(capsys, "build", str(FIXTURES / "q06_vuln.wat"),
                           "-o", str(graph))
        assert code == 0
        assert json.loads(graph.read_text())["schema"] == 2

        code, out, _ = run(capsys, "query", str(graph), "--config", CONFIG)
        assert code == 1
        assert json.loads(out.splitlines()[0])["kind"] == "Tainted"

        outdir = tmp_path / "facts"
        code, _, err = run(capsys, "export", str(graph),
                           "--format", "datalog", "-o", str(outdir))
        assert code == 0
        assert (outdir / "ddgEdge.facts").exists()

        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "export", str(graph), "--format", "dot",
                         "-o", str(dot), "--edges", "DDG")
        assert code == 0
        assert "digraph" in dot.read_text()

    def test_build_empty_module(self, capsys, tmp_path):
        out_path = tmp_path / "empty.json"
        code, _, _ = run(capsys, "build", str(FIXTURES / "empty.wat"),
                         "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["nodes"]) == 1 and doc["edges"] == []

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "build", str(FIXTURES / "mixed.wat"), "-o", str(a))
        run(capsys, "build", str(FIXTURES / "mixed.wat"), "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class _DiskFull:
    """A text file on a disk that fills up: each write stores its chunk,
    then raises as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text: str) -> int:
        self._fh.write(text)
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


class TestOutputFiles:
    def test_build_stdout_is_the_saved_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        assert run(capsys, "build", MIXED, "-o", str(path)) == (0, "", "")
        code, out, _ = run(capsys, "build", MIXED)
        assert code == 0
        assert out.encode("utf-8") == path.read_bytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_an_export_repeated_to_one_path_writes_the_same_bytes(self, capsys, tmp_path, fmt):
        # and leaves no *.part file; a json export is the saved graph itself
        graph, out = tmp_path / "g.json", tmp_path / "out"
        assert run(capsys, "build", MIXED, "-o", str(graph)) == (0, "", "")
        written = []
        for _ in range(2):
            assert run(capsys, "export", str(graph), "--format", fmt, "-o", str(out))[:2] == (0, "")
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            written.append({f.name: f.read_bytes() for f in files})
        assert written[0] == written[1]
        assert not list(tmp_path.rglob("*.part"))
        if fmt == "json":
            assert written[0] == {"out": graph.read_bytes()}

    @pytest.mark.parametrize("command", ["build", "scan"])
    def test_an_output_that_cannot_be_created_is_named_as_given(self, command, capsys,
                                                                tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, command, MIXED, "-o", "nodir/f.out") == (
            2, "", "error: [Errno 2] No such file or directory: 'nodir/f.out'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", ["datalog", "neo4j-csv", "findings"])
    def test_failed_write_keeps_every_old_file(self, output, capsys, tmp_path,
                                               monkeypatch):
        graph, target = tmp_path / "g.json", tmp_path / "out"
        assert run(capsys, "build", str(FIXTURES / "q03_vuln.wat"), "-o", str(graph))[0] == 0
        argv = ["query", str(graph), "--config", CONFIG, "-o", str(target)] \
            if output == "findings" else \
            ["export", str(graph), "--format", output, "-o", str(target)]
        assert run(capsys, *argv)[0] in (0, 1)
        files = [target] if target.is_file() else sorted(target.iterdir())
        for f in files:
            f.write_text(f"old {f.name}\n")
        real_open = open

        def disk_full_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _DiskFull(fh) if "w" in mode else fh
        for module in ("wasmcpg.export", "wasmcpg.cli"):   # each module that could write
            monkeypatch.setattr(sys.modules[module], "open", disk_full_open, raising=False)
        code, _, err = run(capsys, *argv)
        assert code == 2 and "No space left on device" in err
        assert [f.read_text() for f in files] == [f"old {f.name}\n" for f in files]
        assert sorted(tmp_path.rglob("*")) == sorted({graph, target, *files})


class TestErrors:
    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "build", "no_such_file.wat")
        assert code == 2
        assert "error" in err

    def test_analysis_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.wat"
        bad.write_text("(module (func v128.load))")
        code, _, err = run(capsys, "build", str(bad))
        assert code == 3
        assert "v128.load" in err

    def test_malformed_graph_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"edges": [], "maps": [], "nodes": [{"kind": "Else"}], "origins": [], '
                       '"schema": 2}')
        code, out, err = run(capsys, "query", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("error: node record") and "Traceback" not in err

    @pytest.mark.parametrize("edges, origins", [
        ([{"dst": 1, "src": [0]}], [[0, 9]]),                 # a map index past the table
        ([{"dst": 1, "map": True, "src": 0, "type": "CFG"}], []),
        ([{"dst": 1, "src": [1]}], [[0, 0]]),                 # a source with no origin entry
        ([{"dst": 5, "src": [0]}], [[0, 0]]),                 # a consumer out of range
        ([{"dst": 1, "map": 1, "src": 0, "type": "DDG"}], []),
    ])
    def test_malformed_schema_2_graph_file(self, tmp_path, edges, origins):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "edges": edges, "maps": [{"ddgType": "Local", "label": "$x"}, {}],
            "nodes": [{"kind": "Else", "properties": {}}] * 2, "origins": origins,
            "schema": 2}))
        for command in ("query", "export"):
            code, out, err = run_child(["-m", "wasmcpg.cli", command, str(bad),
                                        *(["--format", "dot", "-o", str(tmp_path / "g.dot")]
                                          if command == "export" else [])])
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
        assert not (tmp_path / "g.dot").exists()

    def test_call_into_a_non_function_exports_empty_counts(self, tmp_path):
        # the schema does not type CG endpoints: a Call's CG edge may reach
        # any node, and one that is not a Function gives no counts
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({
            "edges": [{"dst": 1, "map": 0, "src": 0, "type": "CG"}], "maps": [{}],
            "nodes": [{"kind": "Instruction", "properties": {"instType": "Call", "label": "$f"}},
                      {"kind": "Instruction", "properties": {"instType": "Nop"}}],
            "origins": [], "schema": 2}))
        code, _, err = run_child(["-m", "wasmcpg.cli", "export", str(graph),
                                  "--format", "datalog", "-o", str(tmp_path / "facts")])
        assert code == 0 and "Traceback" not in err, err
        assert (tmp_path / "facts" / "call.facts").read_text() == "0\t$f\t\t\n"

    def test_bad_query_ids(self, capsys):
        code, _, err = run(capsys, "scan", str(FIXTURES / "empty.wat"),
                           "--builtin", "42")
        assert code == 3


# `memcpy` writes 16 bytes into `malloc(8)`: the i32 8 is a Const node's and a
# Const DDG edge's `value`, which a graph file might hold as 1e400 or NaN
HEAP_COPY = """(module
  (import "env" "malloc" (func $malloc (param i32) (result i32)))
  (import "env" "memcpy" (func $memcpy (param i32 i32 i32) (result i32)))
  (func $heap_copy (param $src i32)
    (local $buf i32)
    (local.set $buf (call $malloc (i32.const 8)))
    (drop (call $memcpy (local.get $buf) (local.get $src) (i32.const 16)))))"""

# an allocation size that overflows to infinity, passed to an allocator
INF_MALLOC = """(module
  (import "env" "malloc" (func $malloc (param i32) (result i32)))
  (import "env" "memcpy" (func $memcpy (param i32 i32 i32) (result i32)))
  (func $heap_copy (param $src i32)
    (local $buf i32)
    (local.set $buf (call $malloc (f64.const 1e400)))
    (drop (call $memcpy (local.get $buf) (local.get $src) (i32.const 64)))))"""

# scan configs whose fields have the wrong shape
BAD_CONFIGS = {
    "sources-string": {"sources": "$read_input"},
    "sinks-string": {"sinks": "$memcpy"},
    "dangerous-string": {"dangerousFunctions": "$gets"},
    "formats-array": {"formatFunctions": ["$printf"]},
    "pairs-array": {"allocPairs": [["$malloc", "$free"]]},
    "pair-value-array": {"allocPairs": {"$malloc": ["$free"]}},
    "format-index-string": {"formatFunctions": {"$printf": "0"}},
    "format-index-bool": {"formatFunctions": {"$printf": False}},
    "depth-string": {"taintDepth": "2"},
    "depth-bool": {"taintDepth": True},
    "depth-negative": {"taintDepth": -1},
}

# WQL programs that fail on line 1: at run time, or at parse time for a
# literal past the int-from-string digit limit
BAD_WQL = {
    "wql-instructions-of-int": "x := instructions(5);",
    "wql-instructions-of-int-list": "x := instructions(List(5));",
    "wql-children-list-type": "x := children(functions()[0], List());",
    "wql-children-unknown-type": 'x := children(functions()[0], "XYZ");',
    "wql-list-as-map-key": "x := config[List()];",
    "wql-list-in-map": 'x := config["sources"] in config;',
    "wql-int-too-large-for-float": "x := 1" + "0" * 400 + " * 1.0;",
    "wql-int-literal-too-long": "x := 1" + "0" * 5000 + ";",
    "wql-number-plus-bool": "x := 1 + true;",
    "wql-bool-and-list-order": "x := true < 2 && List(1) < List(2);",
    "wql-list-order": "x := List(1) < List(2);",
    "wql-reaches-unknown-ddg-type":
        'x := reachesDDG(functions()[0], functions()[0], "Nope", nil);',
    "wql-break-outside-loop": "break;",
    "wql-continue-outside-loop": "continue;",
}

FOREVER_WQL = "while true:\n    x := 1;\n"


class TestFailClosed:
    """Unreadable or undecodable inputs and unusable output paths end in one
    `error:` line and exit 2 (file system) or 3 (content), never a traceback."""

    @pytest.fixture
    def t(self, tmp_path, capsys):
        (tmp_path / "bad.wat").write_bytes(b"(module \xff)")
        (tmp_path / "bad.json").write_bytes(b"\xff{}")
        (tmp_path / "deep.json").write_text("[" * 100000)
        (tmp_path / "open.json").write_text("{")
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        (tmp_path / "multi.wat").write_text(MULTI_RESULT)
        for name, source in MALFORMED.items():
            (tmp_path / f"{name}.wat").write_text(source)
        (tmp_path / "dup_local.wat").write_text(SYNTHESIZED_LOCAL_CLASH)
        (tmp_path / "inf_malloc.wat").write_text(INF_MALLOC)
        for name, config in BAD_CONFIGS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        (tmp_path / "parens.wql").write_text("x := " + "(" * 3000 + "1" + ")" * 3000 + ";")
        (tmp_path / "minus.wql").write_text("x := " + "-" * 5000 + "1;")
        (tmp_path / "sum.wql").write_text("x := " + " + ".join(["1"] * 5000) + ";")
        for name, source in BAD_WQL.items():
            (tmp_path / f"{name}.wql").write_text(source)
        (tmp_path / "forever.wql").write_text(FOREVER_WQL)
        assert run(capsys, "build", MIXED, "-o", str(tmp_path / "g.json"))[0] == 0
        (tmp_path / "heap.wat").write_text(HEAP_COPY)
        assert run(capsys, "build", f"{tmp_path}/heap.wat", "-o", f"{tmp_path}/heap.json")[0] == 0
        heap = (tmp_path / "heap.json").read_text()
        assert heap.count('"value":8,') == 2
        for name, value in (("inf", "1e400"), ("nan", "NaN")):
            (tmp_path / f"{name}.json").write_text(heap.replace('"value":8,', f'"value":{value},'))
        (tmp_path / "props.json").write_text(json.dumps({
            "edges": [], "maps": [], "origins": [], "schema": 2,
            "nodes": [{"kind": "Instruction", "properties": [["instType", "Nop"]]}]}))
        (tmp_path / "old.json").write_text('{"schema": 1, "nodes": [], "edges": []}')
        for name, label in (("label", math.inf), ("list_label", [1, 2])):
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "edges": [{"dst": 1, "src": [0]}], "maps": [{"ddgType": "Local", "label": label}],
                "nodes": [{"kind": "Else", "properties": {}}] * 2, "origins": [[0, 0]],
                "schema": 2}))
        return tmp_path

    @pytest.mark.parametrize("code, argv", [
        (3, ["build", "{t}/bad.wat"]),
        (3, ["query", "{t}/bad.json"]),
        (3, ["query", "{t}/deep.json"]),
        (2, ["build", MIXED, "-o", "{t}/dir"]),
        (2, ["export", "{t}/g.json", "--format", "datalog", "-o", "{t}/file"]),
        (2, ["scan", MIXED, "--wql", "{t}/dir"]),
        (3, ["scan", MIXED, "--wql", "{t}/bad.wat"]),
        (3, ["scan", MIXED, "--config", "{t}/open.json"]),
        (3, ["scan", MIXED, "--config", "{t}/list.json"]),
        (3, ["query", "{t}/g.json", "--config", "{t}/deep.json"]),
        (3, ["scan", "{t}/multi.wat"]),
        (3, ["scan", "{t}/dup_local.wat"]),
        (3, ["scan", MIXED, "--wql", "{t}/parens.wql"]),
        (3, ["scan", MIXED, "--wql", "{t}/minus.wql"]),
        (3, ["scan", MIXED, "--wql", "{t}/sum.wql"]),
        (2, ["query", "{t}/missing.json"]),
        (2, ["export", "{t}/missing.json", "--format", "dot", "-o", "{t}/g.dot"]),
        (3, ["export", "{t}/g.json", "--format", "dot", "-o", "{t}/g.dot", "--edges", "XYZ"]),
        (3, ["export", "{t}/g.json", "--format", "dot", "-o", "{t}/g.dot", "--edges", "DDG,ddg"]),
        (3, ["export", "{t}/g.json", "--format", "datalog", "-o", "{t}/facts", "--edges", "AST"]),
        (3, ["export", "{t}/g.json", "--format", "neo4j-csv", "-o", "{t}/csv", "--edges", "AST"]),
        (3, ["export", "{t}/g.json", "--format", "json", "-o", "{t}/e.json", "--edges", "AST"]),
        (3, ["scan", "{t}/inf_malloc.wat", "--config", CONFIG]),
        (3, ["query", "{t}/inf.json", "--config", CONFIG]),
        (3, ["query", "{t}/nan.json", "--config", CONFIG]),
        (3, ["export", "{t}/inf.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["export", "{t}/nan.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["export", "{t}/props.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["query", "{t}/old.json"]),
        (3, ["export", "{t}/old.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["export", "{t}/label.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["query", "{t}/label.json"]),
        (3, ["export", "{t}/list_label.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["query", "{t}/list_label.json"]),
        *[(3, ["scan", f"{{t}}/{name}.wat"]) for name in MALFORMED],
        *[(3, ["scan", MIXED, "--config", f"{{t}}/{name}.json"]) for name in BAD_CONFIGS],
        *[(3, ["query", "{t}/g.json", "--wql", f"{{t}}/{name}.wql"]) for name in BAD_WQL],
        (3, ["query", "{t}/g.json", "--wql", "{t}/forever.wql", "--wql-budget", "1000"]),
        (3, ["scan", MIXED, "--wql", "{t}/forever.wql", "--wql-budget", "1000"]),
    ], ids=["wat-not-utf8", "graph-not-utf8", "graph-too-deep", "output-is-dir",
            "facts-dir-is-file", "wql-is-dir", "wql-not-utf8", "config-bad-json",
            "config-not-object", "config-too-deep", "multi-result-function",
            "duplicate-local-name",
            "wql-parens-too-deep", "wql-unary-too-deep", "wql-sum-too-deep",
            "query-missing-graph", "export-missing-graph",
            "export-unknown-edge-type", "export-misspelled-edge-type",
            "export-datalog-edge-filter", "export-neo4j-csv-edge-filter",
            "export-json-edge-filter", "infinite-alloc-size",
            "graph-infinite-value", "graph-nan-value", "export-infinite-value",
            "export-nan-value", "export-list-properties", "query-schema-1", "export-schema-1",
            "export-infinite-label", "query-infinite-label", "export-list-label",
            "query-list-label",
            *MALFORMED, *BAD_CONFIGS, *BAD_WQL, "wql-step-budget", "wql-step-budget-scan"])
    def test_exit_code_without_traceback(self, capsys, t, code, argv):
        got, out, err = run(capsys, *[a.format(t=t) for a in argv])
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["query", "scan"])
    @pytest.mark.parametrize("budget", ["-5", "-1", "x"])
    def test_a_bad_step_budget_is_a_usage_error(self, capsys, t, command, budget):
        graph = f"{t}/g.json" if command == "query" else MIXED
        got, out, err = run(capsys, command, graph, "--wql", f"{t}/forever.wql",
                            "--wql-budget", budget)
        assert (got, out) == (2, "")
        assert err.splitlines()[-1] == (f"wasmcpg {command}: error: argument --wql-budget: "
                                        f"expected a step count of 0 or more, got {budget!r}")
        assert "Traceback" not in err

    def test_a_step_budget_of_zero_is_valid(self, capsys, t):
        got = run(capsys, "query", f"{t}/g.json", "--wql", f"{t}/forever.wql",
                  "--wql-budget", "0")
        assert got == (3, "", "error: line 1: step budget of 0 exceeded\n")

    def test_step_budget_names_its_line(self, capsys, t):
        got = run(capsys, "query", f"{t}/g.json", "--wql", f"{t}/forever.wql",
                  "--wql-budget", "1000")
        assert got == (3, "", "error: line 1: step budget of 1000 exceeded\n")

    def test_q10_runs_within_its_pinned_steps(self, capsys, tmp_path):
        # the pin is the twin step count test_wql.py keeps; one step less
        # fails in q10's loop over the stores
        steps = TWIN_STEPS["scaling_module(1000)"][9]
        wat, graph = tmp_path / "scaling.wat", tmp_path / "g.json"
        wat.write_text(scaling_module(1000))
        assert run(capsys, "build", str(wat), "-o", str(graph)) == (0, "", "")
        argv = ["query", str(graph), "--config", CONFIG,
                "--wql", str(QUERIES_WQL / "q10_bo_loops.wql"), "--wql-budget"]
        assert run(capsys, *argv, str(steps))[0] in (0, 1)
        assert run(capsys, *argv, str(steps - 1)) == (
            3, "", f"error: line 9: step budget of {steps - 1} exceeded\n")

    def test_too_deep_wql_names_its_line_and_column(self, capsys, t):
        # the 46th "+" of a 1,000-term sum crosses the parser's nesting bound
        (t / "deep.wql").write_text("x := " + " + ".join(["1"] * 1000) + ";\n")
        got = run(capsys, "query", f"{t}/g.json", "--wql", f"{t}/deep.wql")
        assert got == (3, "", "error: 1:188: nesting deeper than 48 levels\n")

    def test_dead_labeled_if_scans_clean(self, capsys, tmp_path):
        path = tmp_path / "dead_if.wat"
        path.write_text(DEAD_LABELED_IF)
        assert run(capsys, "scan", str(path)) == (0, "", "")

    @pytest.mark.parametrize("shape", [nested_blocks, nested_expression])
    def test_deep_nesting_scans_clean(self, capsys, tmp_path, shape):
        path = tmp_path / "deep.wat"
        path.write_text(shape(1000))
        assert run(capsys, "scan", str(path)) == (0, "", "")

    @pytest.mark.parametrize("edges", ["", "AST,"])
    def test_an_empty_edge_type_is_unknown(self, capsys, t, edges):
        got = run(capsys, "export", f"{t}/g.json", "--format", "dot", "-o", f"{t}/e.dot",
                  "--edges", edges)
        assert got == (3, "", "error: unknown edge types ['']; expected some of "
                              "AST, CFG, CG, DDG\n")
        assert not (t / "e.dot").exists()

    @pytest.mark.parametrize("fmt", ["datalog", "neo4j-csv", "json"])
    def test_an_edge_filter_outside_dot_writes_nothing(self, capsys, t, fmt):
        got = run(capsys, "export", f"{t}/g.json", "--format", fmt, "-o", f"{t}/out",
                  "--edges", "CFG,DDG")
        assert got == (3, "", "error: an edge type filter applies to dot only; "
                              f"{fmt} exports every edge type\n")
        assert not (t / "out").exists()
        # naming every edge type filters nothing
        got = run(capsys, "export", f"{t}/g.json", "--format", fmt, "-o", f"{t}/out",
                  "--edges", "DDG,CG,CFG,AST")
        assert got[0] == 0 and (t / "out").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_3000_deep_expression_scans_in_300_mib(self, tmp_path):
        # its dependency sets are bitsets: the DDG fits where the 6,000-deep one's does not
        path = tmp_path / "deep.wat"
        path.write_text(nested_expression(3000))
        assert run_capped(300, "scan", str(path)) == (0, "", "")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_8000_instruction_scaling_module_scans_in_250_mib(self, tmp_path):
        # its 1.6 M DDG edges live in columns, with no record per edge until one is read
        path = tmp_path / "scaling.wat"
        path.write_text(scaling_module(8000))
        assert run_capped(250, "scan", str(path)) == (0, "", "")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_out_of_memory_is_an_analysis_error(self, tmp_path):
        # the DDG of a 6,000-deep expression does not fit in 300 MiB
        path = tmp_path / "deep.wat"
        path.write_text(nested_expression(6000))
        assert run_capped(300, "scan", str(path)) == (3, "", "error: out of memory\n")

    def test_log_level_is_not_read_from_the_environment(self):
        # in a child: under pytest the root logger already has handlers
        argv = ["-m", "wasmcpg.cli", "scan", str(FIXTURES / "empty.wat")]
        assert run_child(argv, WASMCPG_LOG="foo") == (0, "", "")

    def test_verbose_is_not_an_option(self, capsys):
        assert run(capsys, "-v", "scan", str(FIXTURES / "empty.wat"))[0] == 2


# tokens a mutation may insert: keywords, literals and forms in and out of place
MUTATION_TOKENS = ("(", ")", "$x", "0", "-1", "0x1", "zz", "offset=zz", "end", "else",
                   "then", "block", "loop", "if", "i32.const", "local.get", "br_table",
                   "call_indirect", "(then)", "(end)", "(result i32)", "(type $t)",
                   "(elem (x))", "func", "global", "type", "export", '"s"')


@st.composite
def wat_inputs(draw):
    """Generated modules, folded or flat, nested shapes, and token
    mutations of the fixtures."""
    kind = draw(st.sampled_from(("random", "folded", "nested", "mutated")))
    if kind in ("random", "folded"):
        source = random_module(draw(st.integers(0, 10_000)), max_insts=30)
        return fold_module(parse_module(source)) if kind == "folded" else source
    if kind == "nested":
        shape = draw(st.sampled_from((nested_blocks, nested_expression)))
        return shape(draw(st.integers(0, 300)))
    tokens = TOKEN_RE.findall(fixture_source(draw(st.sampled_from(ALL_FIXTURES))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("delete", "replace", "insert")))
        new = draw(st.sampled_from(MUTATION_TOKENS))
        if edit == "delete":
            del tokens[at]
        elif edit == "replace":
            tokens[at] = new
        else:
            tokens.insert(at, new)
    return " ".join(tokens)


class TestScanProperty:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(source=wat_inputs())
    def test_scan_exits_with_a_code_and_no_traceback(self, capsys, tmp_path, source):
        path = tmp_path / "input.wat"
        path.write_text(source)
        code, _, err = run(capsys, "scan", str(path), "--config", CONFIG)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


# JSON values a graph file or a scan configuration can hold; json.dumps
# writes a non-finite float as NaN or Infinity, which json.load reads back
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 300) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

TWINS = {int(path.name[1:3]): parse_wql(path.read_text(encoding="utf-8"))
         for path in sorted(QUERIES_WQL.glob("*.wql"))}


def assert_twins_agree(cpg, config: ScanConfig) -> None:
    """Each built-in query and its packaged twin find the same findings on
    `cpg`, whenever neither ends in a `WasmCpgError`."""
    bindings = config.to_wql_bindings()
    for qid, twin in TWINS.items():
        try:
            native = collections.Counter(f.key() for f in run_all(cpg, config, {qid}))
            wql = collections.Counter(f.key() for f in eval_wql(twin, cpg, bindings))
        except WasmCpgError:
            continue
        assert wql == native, qid


def _slots(doc) -> list:
    """Every (container, key) pair of a JSON document."""
    slots, todo = [], [doc]
    while todo:
        parent = todo.pop()
        for key in (list(parent) if isinstance(parent, dict) else range(len(parent))):
            slots.append((parent, key))
            if isinstance(parent[key], (dict, list)):
                todo.append(parent[key])
    return slots


MIXED_DOCUMENT = to_json(fixture_cpg("mixed"))


@st.composite
def graph_documents(draw):
    """mixed.wat's schema-2 graph file with one edit: a key or list item
    deleted, a list item repeated, or a value replaced by a new JSON value
    or by a copy of another one in the file. The edit is at a path drawn
    uniformly, or at a list item, which more often leaves a graph that
    loads."""
    doc = json.loads(MIXED_DOCUMENT)
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    slots = _slots(doc)
    items = [slot for slot in slots if isinstance(slot[0], list)]
    parent, key = rnd.choice(rnd.choice((slots, items)))
    edit = rnd.choice(("delete", "repeat", "copy", "new"))
    if edit == "delete":
        del parent[key]
    elif edit == "repeat" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif edit == "copy":
        other, at = rnd.choice(slots)
        parent[key] = copy.deepcopy(other[at])
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


# the function names scan_config.json lists, and two it does not
FUNCTION_NAMES = st.sampled_from(("$malloc", "$free", "$memcpy", "$printf", "$gets", "$strcat",
                                  "$read_input", "$source", "$send", "$sink", "$f", "$nope"))
CONFIG_FIELDS = {
    "sources": st.lists(FUNCTION_NAMES, max_size=3),
    "sinks": st.lists(FUNCTION_NAMES, max_size=3),
    "dangerousFunctions": st.lists(FUNCTION_NAMES, max_size=3),
    "formatFunctions": st.dictionaries(FUNCTION_NAMES, st.integers(-1, 4), max_size=2),
    "allocPairs": st.dictionaries(FUNCTION_NAMES, FUNCTION_NAMES, max_size=2),
    "taintDepth": st.integers(-1, 6) | st.just(10 ** 9),
}


@st.composite
def scan_configs(draw):
    """A scan configuration object: each field absent, of its own shape or
    any JSON value, and maybe a key of no field."""
    config = {}
    for key, shaped in CONFIG_FIELDS.items():
        kind = draw(st.sampled_from(("absent",) * 3 + ("shaped",) * 6 + ("any",)))
        if kind != "absent":
            config[key] = draw(shaped if kind == "shaped" else JSON_VALUES)
    if draw(st.booleans()):
        config[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    return config


class TestInputProperties:
    """A graph file and a scan configuration, like WAT above, end in a
    `WasmCpgError` or a result, never in another exception."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(doc=graph_documents())
    def test_a_mutated_graph_file_loads_queries_and_exports(self, tmp_path, scan_config, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        try:
            cpg = import_json(str(path))
        except WasmCpgError:
            return
        assert_twins_agree(cpg, scan_config)
        for fmt in FORMATS:
            try:
                export(cpg, ExportManifest(fmt, str(tmp_path / fmt)))
            except WasmCpgError:
                pass

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=scan_configs())
    def test_a_scan_configuration_runs_on_every_fixture(self, data):
        try:
            config = ScanConfig.from_dict(data)
        except WasmCpgError:
            return
        for name in ALL_FIXTURES:
            assert_twins_agree(fixture_cpg(name), config)
