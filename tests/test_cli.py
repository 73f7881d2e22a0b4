"""Command-line surface: subcommands, exit codes, stream discipline."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ALL_FIXTURES, FIXTURES, fixture_source
from test_ast_builder import DEAD_LABELED_IF
from gen import fold_module, nested_blocks, nested_expression, random_module
from test_wat_parser import MALFORMED, MULTI_RESULT, SYNTHESIZED_LOCAL_CLASH
from wasmcpg.cli import main
from wasmcpg.wat_parser import _TOKEN_RE, parse_module

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
        for stage in ("parse", "ast", "cfg", "cg", "ddg"):
            assert stage in err
        assert "BO Loops" in out


class TestBuildQueryExport:
    def test_build_then_query_then_export(self, capsys, tmp_path):
        graph = tmp_path / "cpg.json"
        code, out, _ = run(capsys, "build", str(FIXTURES / "q06_vuln.wat"),
                           "-o", str(graph))
        assert code == 0
        assert json.loads(graph.read_text())["schema"] == 1

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
        bad.write_text('{"schema": 1, "nodes": [{"kind": "Else"}], "edges": []}')
        code, out, err = run(capsys, "query", str(bad))
        assert code == 3
        assert out == ""
        assert "error" in err and "Traceback" not in err

    def test_bad_query_ids(self, capsys):
        code, _, err = run(capsys, "scan", str(FIXTURES / "empty.wat"),
                           "--builtin", "42")
        assert code == 3


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
        (3, ["scan", "{t}/inf_malloc.wat", "--config", CONFIG]),
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
            "query-missing-graph", "export-missing-graph", "infinite-alloc-size",
            *MALFORMED, *BAD_CONFIGS, *BAD_WQL, "wql-step-budget", "wql-step-budget-scan"])
    def test_exit_code_without_traceback(self, capsys, t, code, argv):
        got, out, err = run(capsys, *[a.format(t=t) for a in argv])
        assert got == code
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_step_budget_names_its_line(self, capsys, t):
        got = run(capsys, "query", f"{t}/g.json", "--wql", f"{t}/forever.wql",
                  "--wql-budget", "1000")
        assert got == (3, "", "error: line 1: step budget of 1000 exceeded\n")

    def test_dead_labeled_if_scans_clean(self, capsys, tmp_path):
        path = tmp_path / "dead_if.wat"
        path.write_text(DEAD_LABELED_IF)
        assert run(capsys, "scan", str(path)) == (0, "", "")

    @pytest.mark.parametrize("shape", [nested_blocks, nested_expression])
    def test_deep_nesting_scans_clean(self, capsys, tmp_path, shape):
        path = tmp_path / "deep.wat"
        path.write_text(shape(1000))
        assert run(capsys, "scan", str(path)) == (0, "", "")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
    def test_out_of_memory_is_an_analysis_error(self, tmp_path):
        # the DDG of a 3,000-deep expression does not fit in 300 MiB; the
        # child caps its own address space
        path = tmp_path / "deep.wat"
        path.write_text(nested_expression(3000))
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
    tokens = _TOKEN_RE.findall(fixture_source(draw(st.sampled_from(ALL_FIXTURES))))
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
