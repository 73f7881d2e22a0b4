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

    @pytest.mark.parametrize("source, message", [
        ("break;", "1:1: 'break' outside a loop"),
        ("continue;", "1:1: 'continue' outside a loop"),
        ("if true:\n    break;\n", "2:5: 'break' outside a loop"),
        ("while true:\n    x := 1;\ncontinue;\n", "3:1: 'continue' outside a loop"),
    ])
    def test_break_and_continue_outside_a_loop(self, source, message):
        with pytest.raises(WqlSyntaxError, match=message):
            parse_wql(source)

    def test_break_in_an_if_in_a_loop(self):
        prog = parse_wql("foreach x in List(1):\n    if x = 1:\n        break;\n    continue;\n")
        loop = prog.body[0]
        assert isinstance(loop.body[0].then[0], A.Break)
        assert isinstance(loop.body[1], A.Continue)

    def test_comment_marker_inside_a_string(self):
        assert parse_wql('x := "a//b";').body[0].expr.expr.value == "a//b"

    def test_trailing_comment_after_code(self):
        prog = parse_wql("x := 1; // one\ny := 2;//two\n")
        assert [s.expr.name for s in prog.body] == ["x", "y"]

    def test_indented_comment_line_inside_a_block(self):
        prog = parse_wql("while true:\n    x := 1;\n  // off the block's indent\n    break;\n")
        assert len(prog.body) == 1 and len(prog.body[0].body) == 2

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
        for source in ("x := true < 2 && List(1) < List(2);", "x := List(1) < List(2);",
                       'x := "a" >= 1;', "x := nil <= nil;", "x := 1 > false;"):
            with pytest.raises(WqlRuntimeError, match="line 1: cannot compare"):
                eval_wql(parse_wql(source), cpg, {})
        with pytest.raises(WqlRuntimeError, match="line 2: unknown ddgType 'Nope'"):
            eval_wql(parse_wql('f := functions()[1];\nx := reachesDDG(f, f, "Nope", nil);'),
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


# Each pushable range expression, with the same predicate written so that it
# cannot be pushed down (a leading `true &&`), on the same layout so that
# error lines agree. `{T}` is an instType or an edge type.
PUSHDOWN_PAIRS = [
    ('[n in instructions(f) : n.instType = "{T}"]',
     '[n in instructions(f) : true && n.instType = "{T}"]'),
    ('[n in instructions(f) : n.instType = "{T}" && n.id >= 0 && n.id / 2 * 2 = n.id]',
     '[n in instructions(f) : true && n.instType = "{T}" && n.id >= 0 && n.id / 2 * 2 = n.id]'),
    ('[n in instructions(functions()) : n.instType = "{T}" && n.id >= 0]',
     '[n in instructions(functions()) : true && n.instType = "{T}" && n.id >= 0]'),
    ('[e in n.inEdges : e.type = "{T}" && e.id / 3 * 3 != e.id]',
     '[e in n.inEdges : true && e.type = "{T}" && e.id / 3 * 3 != e.id]'),
    ('[e in n.outEdges : e.type = "{T}"]',
     '[e in n.outEdges : true && e.type = "{T}"]'),
]
PUSHDOWN_TYPES = ["Call", "Const", "Loop", "LocalGet", "BrIf", "Bogus",
                  "AST", "CFG", "CG", "DDG", "XYZ", "ast"]


def _range_ids(expr, cpg):
    """Ids that `expr` selects, for every function f and every node n."""
    prog = parse_wql(f"""
foreach f in functions():
    foreach n in descendantsAST(f):
        foreach x in {expr}:
            vulnerability("hit", f.name, n.id, x.id);
""")
    return [(f.label, f.description) for f in eval_wql(prog, cpg, {})]


def _outcome(source, cpg):
    try:
        return eval_wql(parse_wql(source), cpg, {})
    except WqlRuntimeError as exc:
        return str(exc)


class TestPushdown:
    def test_plans(self):
        def planned(expr):
            return parse_wql(f"x := {expr};").body[0].expr.expr.plan[0]

        pushed, plain = PUSHDOWN_PAIRS[1]
        for t, want in (("Call", "Call"), ("Bogus", None)):
            assert planned(pushed.format(T=t)) == want
            assert planned(plain.format(T=t)) is None
        assert planned('[e in n.inEdges : e.type = "DDG"]') == "DDG"
        assert planned('[e in n.outEdges : e.type = "CG" && true]') == "CG"
        for expr in ('[n in descendantsAST(f) : n.instType = "Call"]',
                     '[n in instructions(f) : n.label = "Call"]',
                     '[n in instructions(f) : m.instType = "Call"]',
                     '[n in instructions(f) : n.instType = x]',
                     '[n in instructions(f) : n.instType = "Call" || true]',
                     '[e in n.inEdges : e.ddgType = "Local"]'):
            assert planned(expr) is None, expr

    @pytest.mark.parametrize("name", ["q03_vuln", "q05_vuln", "q07_vuln", "q10_vuln",
                                      "mixed", "libpng_get_token", "empty"])
    def test_same_items_in_the_same_order(self, name):
        cpg = fixture_cpg(name)
        for pushed, plain in PUSHDOWN_PAIRS:
            for t in PUSHDOWN_TYPES:
                got = _range_ids(pushed.format(T=t), cpg)
                assert got == _range_ids(plain.format(T=t), cpg), (pushed, t)

    def test_same_errors(self):
        cpg = fixture_cpg("q03_vuln")
        programs = [
            # a non-Function node, a non-node and a nil as the source
            "f := descendantsAST(functions()[1])[0];\nx := {R};",
            "f := 5;\nx := {R};",
            "n := nil;\nx := {R};",
            "n := functions()[1].outEdges[0];\nx := {R};",   # an edge has no inEdges
            # a rest that is not a boolean, on a later line than the pushed test
            "f := functions()[3];\nn := descendantsAST(f)[4];\nx := {R2};",
        ]
        seen = set()
        for pushed, plain in PUSHDOWN_PAIRS:
            for source in programs:
                outcomes = [_outcome(source.format(R=r.format(T="Call"),
                                                   R2=r.format(T="Call").replace("]", "\n && 5]")),
                                     cpg) for r in (pushed, plain)]
                assert outcomes[0] == outcomes[1], (pushed, source)
                seen.add(outcomes[0] if isinstance(outcomes[0], str) else "ok")
        assert {"line 2: expected a node, got int", "line 2: attribute 'inEdges' on nil",
                "line 2: range expression expects a list",
                "line 4: expected a boolean, got int"} <= seen, seen
        assert any(o.startswith("line 2: instructions() expects Function") for o in seen)


class TestBudget:
    def test_every_step_counts(self):
        cpg = fixture_cpg("empty")
        prog = parse_wql("""
i := 0;
while (i < 2):
    i := i + 1;
foreach x in List(1, 2, 3):
    y := [z in List(1, 2) : true];
""")
        # 2 while iterations, 3 foreach iterations, 3 x 2 range items
        assert eval_wql(prog, cpg, {}, budget=11) == []
        with pytest.raises(WqlRuntimeError, match="line 6: step budget of 10 exceeded"):
            eval_wql(prog, cpg, {}, budget=10)

    def test_an_endless_loop_stops(self):
        cpg = fixture_cpg("empty")
        with pytest.raises(WqlRuntimeError, match="line 2: step budget of 1000 exceeded"):
            eval_wql(parse_wql("x := 0;\nwhile true:\n    x := x + 1;"), cpg, {}, budget=1000)

    def test_the_default_fits_every_twin_on_a_scaling_module(self, scan_config):
        import gen
        from wasmcpg.pipeline import build_cpg
        from wasmcpg.wql.interp import DEFAULT_BUDGET, Interpreter
        cpg, _ = build_cpg(gen.scaling_module(1000))
        used = {}
        for path in sorted(QUERIES_WQL.glob("*.wql")):
            interp = Interpreter(cpg, scan_config.to_wql_bindings())
            interp.run(parse_wql(path.read_text(encoding="utf-8")))
            used[path.stem] = interp.steps
        assert max(used.values()) * 100 < DEFAULT_BUDGET, used


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
