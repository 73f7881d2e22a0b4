"""Query language: lexer/parser structure, evaluation, and engine parity."""

from __future__ import annotations

import collections
import copy
import pathlib

import pytest

from conftest import ALL_FIXTURES, CORPUS, fixture_cpg, wql_source
from wasmcpg.errors import WqlRuntimeError, WqlSyntaxError
from wasmcpg.queries import QUERIES, run_all
from wasmcpg.wql import eval_wql, parse_wql
from wasmcpg.wql import ast as A

QUERIES_WQL = pathlib.Path(__file__).parent.parent / "src" / "wasmcpg" / "queries_wql"

TAINT_LISTING = wql_source("taint_func_to_func")


class TestParseWql:
    def test_empty_source(self):
        assert parse_wql("").body == []

    def test_taint_listing_structure(self):
        prog = parse_wql(TAINT_LISTING)
        assert len(prog.body) == 1
        outer = prog.body[0]
        assert isinstance(outer, A.Foreach)
        assert len(outer.body) == 2  # the filter assignment and the inner loop
        assert isinstance(outer.body[0], A.ExprStmt)
        assert isinstance(outer.body[0].expr, A.Assign)
        assert isinstance(outer.body[1], A.Foreach)

    def test_range_expression(self):
        prog = parse_wql("x := [n in lst : n.value = 1];")
        assign = prog.body[0].expr
        assert isinstance(assign, A.Assign)
        rng = assign.expr
        assert isinstance(rng, A.RangeExpr)
        assert rng.var == "n"
        assert isinstance(rng.pred, A.BinOp) and rng.pred.op == "="

    def test_assignment_is_an_expression(self):
        prog = parse_wql("ok := !((xs := descendantsAST(n)).empty());")
        assert isinstance(prog.body[0].expr, A.Assign)

    def test_syntax_error_position(self):
        with pytest.raises(WqlSyntaxError, match="2:"):
            parse_wql("x := 1;\ny := ;\n")

    def test_operator_precedence(self):
        prog = parse_wql("x := 1 + 2 * 3 = 7 && !false;")
        top = prog.body[0].expr.expr
        assert isinstance(top, A.BinOp) and top.op == "&&"
        cmp_ = top.left
        assert cmp_.op == "="

    def test_all_shipped_query_files_parse(self):
        for path in sorted(QUERIES_WQL.glob("*.wql")):
            prog = parse_wql(path.read_text(encoding="utf-8"))
            assert prog.body, path.name

    def test_appendix_listings_parse(self):
        for name in ("uaf_simple", "uaf_config", "taint_func_to_func", "bo_loops"):
            assert parse_wql(wql_source(name)).body


class TestEval:
    def test_taint_listing_finds_the_flow(self, scan_config):
        cpg = fixture_cpg("q06_vuln")
        findings = eval_wql(parse_wql(TAINT_LISTING), cpg,
                            scan_config.to_wql_bindings())
        assert [f.key() for f in findings] == [("Tainted", "$relay", "$send")]

    def test_empty_module_no_findings(self, scan_config):
        cpg = fixture_cpg("empty")
        findings = eval_wql(parse_wql(TAINT_LISTING), cpg,
                            scan_config.to_wql_bindings())
        assert findings == []

    def test_range_is_a_stable_filter(self):
        # [n in lst : pred] preserves lst's order and equals filter-by-pred
        cpg = fixture_cpg("fig_ddg")
        prog = parse_wql("""
foreach f in functions():
    consts := [i in instructions(f) : i.instType = "Const"];
    foreach n in consts:
        vulnerability("const", f.name, "x", n.id);
""")
        findings = eval_wql(prog, cpg, {})
        ids = [int(f.description) for f in findings if f.function == "$test"]
        import wasmcpg.query as q
        fn = next(n for n in q.functions(cpg)
                  if cpg.node_property(n, "name") == "$test")
        expected = [n for n in q.instructions(cpg, [fn])
                    if cpg.node_property(n, "instType") == "Const"]
        assert ids == expected == sorted(ids)

    def test_while_break_continue(self):
        cpg = fixture_cpg("empty")
        prog = parse_wql("""
i := 0;
hits := List();
while (true):
    i := i + 1;
    if (i = 3):
        continue;
    if (i > 5):
        break;
    hits.append(i);
if (hits.size() = 4):
    vulnerability("ok", "f", "x");
""")
        assert len(eval_wql(prog, cpg, {})) == 1

    def test_arithmetic_and_comparisons(self):
        cpg = fixture_cpg("empty")
        prog = parse_wql("""
if (2 + 3 * 4 = 14 && 10 / 3 = 3 && 7 - 10 < 0 && "a" + "b" = "ab"):
    vulnerability("ok", "f", "x");
""")
        assert len(eval_wql(prog, cpg, {})) == 1

    def test_map_indexing_and_membership(self, scan_config):
        cpg = fixture_cpg("empty")
        prog = parse_wql("""
if ("$malloc" in config["allocPairs"] && config["allocPairs"]["$malloc"] = "$free"):
    if (!("$nope" in config["pairMalloc"])):
        vulnerability("ok", "f", "x");
""")
        assert len(eval_wql(prog, cpg, scan_config.to_wql_bindings())) == 1

    def test_absent_attribute_is_nil(self):
        cpg = fixture_cpg("fig_ddg")
        prog = parse_wql("""
foreach f in functions():
    if (f.opcode = nil):
        vulnerability("ok", f.name, "x");
""")
        assert len(eval_wql(prog, cpg, {})) == 2

    def test_runtime_errors(self):
        cpg = fixture_cpg("empty")
        with pytest.raises(WqlRuntimeError, match="undefined variable"):
            eval_wql(parse_wql("x := y;"), cpg, {})
        with pytest.raises(WqlRuntimeError, match="unknown builtin"):
            eval_wql(parse_wql("teleport();"), cpg, {})
        with pytest.raises(WqlRuntimeError, match="boolean"):
            eval_wql(parse_wql("if (1): x := 2;"), cpg, {})
        with pytest.raises(WqlRuntimeError, match="nil"):
            eval_wql(parse_wql("x := nil; y := x.name;"), cpg, {})
        with pytest.raises(WqlRuntimeError, match="line 2: instructions.. expects Function"):
            eval_wql(parse_wql("f := functions()[1];\nx := instructions(descendantsAST(f));"),
                     fixture_cpg("mixed"), {})

    def test_evaluation_does_not_mutate_the_graph(self, scan_config):
        cpg = fixture_cpg("q06_vuln")

        def snapshot():
            return (len(cpg.nodes), len(cpg.edges),
                    [[[e.id for e in read(n.id, t)] for t in (None, "AST", "CFG", "CG", "DDG")
                      for read in (cpg.in_edges, cpg.out_edges)] for n in cpg.nodes])

        before = snapshot()
        eval_wql(parse_wql(TAINT_LISTING), cpg, scan_config.to_wql_bindings())
        # lists a program is handed are its own to change, the bindings' too
        bindings = scan_config.to_wql_bindings()
        bound = copy.deepcopy(bindings)
        eval_wql(parse_wql("""
config["sinks"].append(1);
config["sources"].pop();
fns := functions();
nodes := descendantsAST(fns[1]);
nodes.append(fns[0]);
nodes.append(fns[1]);
foreach n in nodes:
    foreach edges in List(n.inEdges, n.outEdges, descendantsAST(n), children(n, "DDG")):
        if (!edges.empty()):
            e := edges.pop();
        edges.append(n);
fns.pop();
fns.append(1);
"""), cpg, bindings)
        assert snapshot() == before
        assert bindings == bound


def _multiset(findings):
    return collections.Counter(f.key() for f in findings)


class TestEngineParity:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_twin_matches_native_on_the_corpus(self, qid, scan_config):
        (path,) = QUERIES_WQL.glob(f"q{qid:02d}_*.wql")
        prog = parse_wql(path.read_text(encoding="utf-8"))
        bindings = scan_config.to_wql_bindings()
        for name in ALL_FIXTURES:
            cpg = fixture_cpg(name)
            wql_findings = _multiset(eval_wql(prog, cpg, bindings))
            native = _multiset(run_all(cpg, scan_config, {qid}))
            assert wql_findings == native, (qid, name)
