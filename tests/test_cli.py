"""Command-line surface: subcommands, exit codes, stream discipline."""

from __future__ import annotations

import errno
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ALL_FIXTURES, FIXTURES, TOKEN_RE, fixture_cpg, fixture_source
from test_ast_builder import DEAD_LABELED_IF
from gen import fold_module, nested_blocks, nested_expression, random_module
from test_wat_parser import MALFORMED, MULTI_RESULT, SYNTHESIZED_LOCAL_CLASH
from wasmcpg.cli import main
from wasmcpg.wat_parser import parse_module
from wasmcpg import graph as g

CONFIG = str(FIXTURES / "scan_config.json")
MIXED = str(FIXTURES / "mixed.wat")


def run_child(argv, **env):
    """Exit code, stdout and stderr of a Python child importing from src/."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src"), **env}
    child = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                           env=env, timeout=300)
    return child.returncode, child.stdout, child.stderr


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

class TestBuildQueryExport:
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
        (3, ["scan", "{t}/inf_malloc.wat", "--config", CONFIG]),
        (3, ["query", "{t}/inf.json", "--config", CONFIG]),
        (3, ["query", "{t}/nan.json", "--config", CONFIG]),
        (3, ["export", "{t}/inf.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["export", "{t}/nan.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["export", "{t}/props.json", "--format", "json", "-o", "{t}/out.json"]),
        (3, ["query", "{t}/old.json"]),
        (3, ["export", "{t}/old.json", "--format", "json", "-o", "{t}/out.json"]),
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
            "export-unknown-edge-type", "export-misspelled-edge-type", "infinite-alloc-size",
            "graph-infinite-value", "graph-nan-value", "export-infinite-value",
            "export-nan-value", "export-list-properties", "query-schema-1", "export-schema-1",
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

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_3000_deep_expression_scans_in_300_mib(self, tmp_path):
        # its dependency sets are bitsets: the DDG fits where the next test's does not
        path = tmp_path / "deep.wat"
        path.write_text(nested_expression(3000))
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
                "from wasmcpg.cli import main; sys.exit(main(sys.argv[1:]))")
        assert run_child(["-c", code, "scan", str(path)]) == (0, "", "")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_out_of_memory_is_an_analysis_error(self, tmp_path):
        # the DDG of a 6,000-deep expression does not fit in 300 MiB; the
        # child caps its own address space
        path = tmp_path / "deep.wat"
        path.write_text(nested_expression(6000))
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
                "from wasmcpg.cli import main; sys.exit(main(sys.argv[1:]))")
        assert run_child(["-c", code, "scan", str(path)]) == (3, "", "error: out of memory\n")

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
