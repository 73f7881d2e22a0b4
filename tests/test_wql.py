"""Query language: lexer/parser structure, evaluation, and engine parity."""

from __future__ import annotations

import collections
import copy
import pathlib
import sys

import pytest

from conftest import ALL_FIXTURES, CORPUS, fixture_cpg, wql_source
from wasmcpg.errors import WqlRuntimeError, WqlSyntaxError
from wasmcpg.queries import QUERIES, run_all
from wasmcpg.wql import eval_wql, parse_wql
from wasmcpg.wql import ast as A
from wasmcpg import graph as g
from wasmcpg.wql import parser as P

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

    @pytest.mark.parametrize("source, message", [
        ("x := 1;\nelse: y := 2;\n", "2:1: expected 'EOF', found 'else'"),
        ("if true:\n    x := (1;\n", "2:12: expected ')', found ';'"),
        ("x := 1 # 2;", "1:8: stray character '#'"),
        ("if true:\n    x := 1;\n  y := 2;\n", "3:3: inconsistent indentation"),
        ('x := 1;\ny := "a\\nb";', "2:6: unknown escape \\n in a string"),
    ], ids=["else-without-if", "unclosed-paren", "stray-character", "inconsistent-indent",
            "unknown-escape"])
    def test_syntax_error_text_and_position(self, source, message):
        with pytest.raises(WqlSyntaxError) as info:
            parse_wql(source)
        assert str(info.value) == message

    def test_string_escapes_are_undone(self):
        # one left-to-right pass: `\\\"` is an escaped backslash, then an escaped quote
        prog = parse_wql(r'x := "a\"b";' "\n" r'y := "c\\";' "\n" r'z := "\\\"";')
        assert [s.expr.expr.value for s in prog.body] == ['a"b', "c\\", '\\"']

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
PUSHDOWN_FIXTURES = ["q03_vuln", "q05_vuln", "q07_vuln", "q10_vuln", "mixed",
                     "libpng_get_token", "empty"]

# Each range that pushes `e.ddgType = "{D}"` down after `e.type = "DDG"`, with
# the two tests swapped so that neither is pushed, on the same layout so that
# error lines agree. `{E}` is inEdges or outEdges.
DDG_TYPE_PAIRS = [
    ('[e in n.{E} : e.type = "DDG" && e.ddgType = "{D}"]',
     '[e in n.{E} : e.ddgType = "{D}" && e.type = "DDG"]'),
    ('[e in n.{E} : e.type = "DDG" && e.ddgType = "{D}" && true && true]',
     '[e in n.{E} : e.ddgType = "{D}" && e.type = "DDG" && true && true]'),
    ('[e in n.{E} : e.type = "DDG" && e.ddgType = "{D}" && e.id / 3 * 3 != e.id]',
     '[e in n.{E} : e.ddgType = "{D}" && e.type = "DDG" && e.id / 3 * 3 != e.id]'),
    ('[e in n.{E} : e.type = "DDG" && e.ddgType = "{D}" && e.label != nil && e.src.id >= 0]',
     '[e in n.{E} : e.ddgType = "{D}" && e.type = "DDG" && e.label != nil && e.src.id >= 0]'),
]
DDG_TYPE_PROBES = [*g.DDG_TYPES, "Bogus"]


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

    def test_ddg_type_plans(self):
        def plan(expr):
            return parse_wql(f"x := {expr};").body[0].expr.expr.plan

        for d in g.DDG_TYPES:
            for edges in ("inEdges", "outEdges"):
                pushed, plain = (p.format(E=edges, D=d) for p in DDG_TYPE_PAIRS[2])
                assert plan(pushed)[0] == (g.DDG, d)
                rest = plan(pushed)[1]   # `true && <the third test>`
                assert rest.left == A.Literal(value=True, line=1) and rest.right.op == "!="
                assert plan(plain)[0] is None
            assert plan(f'[e in n.inEdges : e.type = "DDG" && e.ddgType = "{d}"]') == \
                ((g.DDG, d), A.Literal(value=True, line=1))
        # only the edge-type test is pushed when the ddgType test is not the
        # second conjunct, is not a literal, or names no schema type
        for expr in ('[e in n.inEdges : e.type = "DDG" && true && e.ddgType = "Local"]',
                     '[e in n.inEdges : e.type = "DDG" && (e.ddgType = "Local" && true)]',
                     '[e in n.inEdges : e.type = "DDG" && e.ddgType = x]',
                     '[e in n.inEdges : e.type = "DDG" && e.ddgType = ("Lo" + "cal")]',
                     '[e in n.inEdges : e.type = "DDG" && e.ddgType = "Bogus"]',
                     '[e in n.inEdges : e.type = "DDG" && e.ddgType = "local"]',
                     '[e in n.inEdges : e.type = "DDG" && e.ddgType = 1]',
                     '[e in n.inEdges : e.type = "DDG" && m.ddgType = "Local"]',
                     '[e in n.inEdges : e.type = "DDG" && e.label = "Local"]',
                     '[e in n.outEdges : e.type = "DDG" && e.ddgType != "Local"]'):
            assert plan(expr)[0] == g.DDG, expr
        for expr in ('[e in n.inEdges : e.type = "CG" && e.ddgType = "Local"]',
                     '[e in n.inEdges : e.type = "AST" && e.ddgType = "Local"]'):
            assert plan(expr)[0] == expr.split('"')[1], expr
        for expr in ('[e in n.inEdges : (e.type = "DDG" || false) && e.ddgType = "Local"]',
                     '[e in descendantsAST(n) : e.type = "DDG" && e.ddgType = "Local"]',
                     '[n in instructions(f) : n.type = "DDG" && n.ddgType = "Local"]'):
            assert plan(expr)[0] is None, expr

    @pytest.mark.parametrize("name", PUSHDOWN_FIXTURES)
    def test_same_items_in_the_same_order(self, name):
        cpg = fixture_cpg(name)
        for pushed, plain in PUSHDOWN_PAIRS:
            for t in PUSHDOWN_TYPES:
                got = _range_ids(pushed.format(T=t), cpg)
                assert got == _range_ids(plain.format(T=t), cpg), (pushed, t)

    @pytest.mark.parametrize("name", PUSHDOWN_FIXTURES)
    def test_ddg_type_slices_give_the_same_items_in_the_same_order(self, name):
        cpg = fixture_cpg(name)
        for pushed, plain in DDG_TYPE_PAIRS:
            for edges in ("inEdges", "outEdges"):
                for d in DDG_TYPE_PROBES:
                    got = _range_ids(pushed.format(E=edges, D=d), cpg)
                    assert got == _range_ids(plain.format(E=edges, D=d), cpg), (pushed, edges, d)

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

    def test_ddg_type_slices_give_the_same_errors(self):
        cpg = fixture_cpg("libpng_get_token")
        programs = [
            "n := nil;\nx := {R};",
            "n := 5;\nx := {R};",
            "n := functions()[1].outEdges[0];\nx := {R};",   # an edge has no inEdges
            # a rest that is not a boolean, on a later line than the pushed tests
            "foreach n in descendantsAST(functions()[1]):\n    x := {R2};",
        ]
        seen = set()
        for pushed, plain in DDG_TYPE_PAIRS:
            for edges in ("inEdges", "outEdges"):
                for d in DDG_TYPE_PROBES:
                    for source in programs:
                        outcomes = [_outcome(source.format(
                            R=r.format(E=edges, D=d),
                            R2=r.format(E=edges, D=d).replace("]", "\n && 5]")), cpg)
                            for r in (pushed, plain)]
                        assert outcomes[0] == outcomes[1], (pushed, edges, d, source)
                        seen.add(outcomes[0] if isinstance(outcomes[0], str) else "ok")
        assert {"line 2: attribute 'inEdges' on nil", "line 2: attribute 'outEdges' on int",
                "line 2: range expression expects a list",
                "line 3: expected a boolean, got int", "ok"} <= seen, seen


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

    def test_a_slice_copy_runs_out_of_budget_where_item_by_item_would(self):
        from wasmcpg.wql.interp import Interpreter
        cpg = fixture_cpg("libpng_get_token")
        assert max(len(cpg.ddg_edges(n.id, "Local", "in")) for n in cpg.nodes) >= 2
        source = """
foreach f in functions():
    foreach n in descendantsAST(f):
        x := [e in n.inEdges : e.type = "DDG" && e.ddgType = "Local"{rest}];
"""
        # the same slice, copied at once (a constant-true rest) and tested item by item
        copied, tested = (parse_wql(source.format(rest=r)) for r in ("", " && e.id >= 0"))
        steps = []
        for prog in (copied, tested):
            interp = Interpreter(cpg, {})
            interp.run(prog)
            steps.append(interp.steps)
        assert steps[0] == steps[1]

        def outcome(prog, budget):
            try:
                return eval_wql(prog, cpg, {}, budget=budget)
            except WqlRuntimeError as exc:
                return str(exc), exc.line

        seen = set()
        for budget in range(steps[0] + 1):
            got = outcome(copied, budget)
            assert got == outcome(tested, budget), budget
            seen.add(got[1] if isinstance(got, tuple) else "ok")
        assert seen == {2, 3, 4, "ok"}

    @pytest.mark.parametrize("pred, want", [
        ("true", [1, 2]), ("true && true && (true && true)", [1, 2]), ("true || 1", [1, 2]),
        ("false", []), ("true && false", []), ("!false", [1, 2]),
        ("1", "line 1: expected a boolean, got int"),
        ("true && 1", "line 1: expected a boolean, got int"),
        ('"true"', "line 1: expected a boolean, got str"),
        ("nil && true", "line 1: expected a boolean, got NoneType"),
        # a map's methods: `config` is bound to an empty map
        ("config.empty()", [1, 2]), ("config.size() = 0", [1, 2]),
        ("config.size()", "line 1: expected a boolean, got int")])
    def test_only_true_literals_make_a_constant_range(self, pred, want):
        cpg = fixture_cpg("empty")
        prog = parse_wql(f"x := [v in List(1, 2) : {pred}];\nvulnerability(x, 0, 0);")
        try:
            got = eval_wql(prog, cpg, {})[0].kind
        except WqlRuntimeError as exc:
            got = str(exc)
        assert got == str(want)

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


# Steps each packaged twin takes (q01..q10, in file order), pinned so that a
# change to the evaluator keeps one step per loop iteration and range item.
TWIN_STEPS = {
    "q01_vuln": (9, 5, 8, 8, 3, 5, 11, 3, 8, 3),
    "q01_clean": (14, 5, 8, 8, 3, 5, 3, 3, 8, 3),
    "q02_vuln": (3, 4, 5, 5, 2, 3, 2, 2, 5, 2),
    "q02_clean": (3, 3, 5, 5, 2, 3, 2, 2, 5, 2),
    "q03_vuln": (7, 7, 23, 22, 4, 7, 4, 4, 15, 4),
    "q03_clean": (7, 7, 20, 20, 4, 7, 4, 4, 15, 4),
    "q04_vuln": (6, 6, 22, 22, 3, 6, 3, 3, 13, 3),
    "q04_clean": (5, 5, 15, 15, 3, 5, 3, 3, 11, 3),
    "q05_vuln": (5, 5, 9, 9, 7, 5, 4, 5, 9, 4),
    "q05_clean": (3, 3, 6, 6, 4, 3, 3, 4, 6, 3),
    "q06_vuln": (5, 5, 8, 8, 3, 7, 3, 3, 8, 3),
    "q06_clean": (3, 3, 5, 5, 2, 3, 2, 2, 5, 2),
    "q07_vuln": (5, 5, 8, 8, 3, 5, 80, 3, 8, 3),
    "q07_clean": (5, 5, 8, 8, 3, 5, 3, 3, 8, 3),
    "q08_vuln": (3, 3, 5, 5, 2, 3, 2, 23, 5, 2),
    "q08_clean": (5, 5, 8, 8, 3, 5, 3, 24, 8, 3),
    "q09_vuln": (6, 6, 18, 18, 4, 7, 4, 4, 17, 4),
    "q09_clean": (6, 6, 18, 18, 4, 7, 4, 4, 17, 4),
    "q10_vuln": (3, 3, 5, 5, 2, 3, 2, 3, 5, 52),
    "q10_clean": (1, 1, 2, 2, 1, 1, 1, 2, 2, 49),
    "fig_ddg": (3, 3, 5, 5, 2, 3, 2, 5, 5, 2),
    "libpng_get_token": (3, 3, 5, 5, 2, 3, 2, 4, 5, 215),
    "empty": (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    "mixed": (3, 3, 6, 6, 4, 3, 3, 9, 6, 13),
    "cfg_brtable": (1, 1, 2, 2, 1, 1, 1, 1, 2, 1),
    "scaling_module(1000)": (3, 3, 6, 6, 3, 3, 3, 213, 6, 7388),
}


def _twin_steps(cpg, bindings):
    from wasmcpg.wql.interp import Interpreter
    steps = []
    for path in sorted(QUERIES_WQL.glob("*.wql")):
        interp = Interpreter(cpg, bindings)
        interp.run(parse_wql(path.read_text(encoding="utf-8")))
        steps.append(interp.steps)
    return tuple(steps)


@pytest.mark.parametrize("name", sorted(TWIN_STEPS))
def test_twin_step_counts_are_pinned(name, scan_config):
    if name == "scaling_module(1000)":
        import gen
        from wasmcpg.pipeline import build_cpg
        cpg, _ = build_cpg(gen.scaling_module(1000))
    else:
        cpg = fixture_cpg(name)
    assert _twin_steps(cpg, scan_config.to_wql_bindings()) == TWIN_STEPS[name]


# (source, step budget, the error's full text); each error names its line
RUNTIME_ERRORS = [
    ("x := 1;\ny := z;", None, "line 2: undefined variable 'z'"),
    ("if (1):\n    x := 2;", None, "line 1: expected a boolean, got int"),
    ("x := 0;\nwhile x:\n    break;", None, "line 2: expected a boolean, got int"),
    ("x := (true &&\n  1);", None, "line 1: expected a boolean, got int"),
    ("x := 1 && true;", None, "line 1: expected a boolean, got int"),
    ("x := (false\n  || nil);", None, "line 2: expected a boolean, got NoneType"),
    ('x := !"a";', None, "line 1: expected a boolean, got str"),
    ("x := 1;\ny := [v in List(1, 2) : v];", None, "line 2: expected a boolean, got int"),
    ("x := nil;\ny := x.name;", None, "line 2: attribute 'name' on nil"),
    ("x := 5;\ny := x.name;", None, "line 2: attribute 'name' on int"),
    ("x := functions();\ny := x.inEdges;", None, "line 2: attribute 'inEdges' on list"),
    ("x := List(1)[1];", None, "line 1: list index 1 out of range"),
    ("x := List(1)[0 - 1];", None, "line 1: list index -1 out of range"),
    ('x := List(1)["0"];', None, "line 1: list index must be an integer"),
    ("x := List(1)[true];", None, "line 1: list index must be an integer"),
    ("x := 1[0];", None, "line 1: cannot index int"),
    ("x := List().nope();", None, "line 1: unknown method 'nope' on list"),
    ("x := List().pop();", None, "line 1: pop from an empty list"),
    ("if false:\n    x := 1;\nelse:\n    x := nil.name;", None,
     "line 4: attribute 'name' on nil"),
    ("x := 1;\ny := teleport(x);", None, "line 2: unknown builtin 'teleport'"),
    ("x := descendantsAST(1);", None, "line 1: expected a node, got int"),
    ("x := 1 in 2;", None, "line 1: 'in' expects a list or map"),
    ("x := List() in config;", None, "line 1: a list cannot be a map key"),
    ('x := 1 < "a";', None, "line 1: cannot compare int and str"),
    ("x := true >= false;", None, "line 1: cannot compare bool and bool"),
    ('x := "a" - "b";', None, "line 1: arithmetic on non-numbers"),
    ("x := (1\n + nil);", None, "line 2: arithmetic on non-numbers"),
    ('x := -"a";', None, "line 1: unary '-' needs a number"),
    ("x := 1 / 0;", None, "line 1: division by zero"),
    ("x := 1.5 / 0;", None, "line 1: division by zero"),
    ("x := 1.5 + 1" + "0" * 400 + ";", None, "line 1: number too large"),
    ("foreach v in 1:\n    x := v;", None, "line 1: foreach expects a list or map"),
    ("x := [v in 1 : true];", None, "line 1: range expression expects a list"),
    ("x := 1;\ny := [v in List(1, 2, 3) : true];", 2, "line 2: step budget of 2 exceeded"),
    ("foreach v in List(1, 2, 3):\n    x := v;", 2, "line 1: step budget of 2 exceeded"),
    ("foreach v in List(1):\n    x := [w in List(1, 2) : true];", 2,
     "line 2: step budget of 2 exceeded"),
    # an attribute or a method call takes the line of its name
    ("x := (nil.name\n);", None, "line 1: attribute 'name' on nil"),
    ("x := (List()\n.nope()\n);", None, "line 2: unknown method 'nope' on list"),
]


@pytest.mark.parametrize("source, budget, message", RUNTIME_ERRORS)
def test_runtime_error_text_and_line(source, budget, message):
    kwargs = {} if budget is None else {"budget": budget}
    with pytest.raises(WqlRuntimeError) as info:
        eval_wql(parse_wql(source), fixture_cpg("empty"), {}, **kwargs)
    assert str(info.value) == message
    assert info.value.line == int(message.split(":")[0].split()[1])


class TestSemantics:
    def _labels(self, source, name="empty", config=None):
        return [f.label for f in eval_wql(parse_wql(source), fixture_cpg(name), config)]

    def test_and_or_short_circuit(self):
        assert self._labels("""
x := false && nope();
y := true || nope();
vulnerability("k", "f", x);
vulnerability("k", "f", y);
""") == ["False", "True"]

    # each loop binds v and takes line 2
    @pytest.mark.parametrize("loop", [
        "foreach v in List(1, 2): y := v;",
        "foreach v in List(1, 2): break;",
        "foreach v in List(1, 2): continue;",
        "y := [v in List(1, 2) : v = 2];",
    ])
    def test_a_shadowed_variable_is_restored(self, loop):
        assert self._labels(f'v := "outer";\n{loop}\nvulnerability("k", "f", v);') \
            == ["outer"]
        with pytest.raises(WqlRuntimeError, match="^line 3: undefined variable 'v'$"):
            self._labels(f"w := 0;\n{loop}\nz := v;")

    @pytest.mark.parametrize("loop", [
        "foreach v in List(1, 2): y := nil.x;",
        "y := [v in List(1, 2) : nil.x];",
        "y := [v in List(1, 2) : 1];",
    ])
    def test_a_shadowed_variable_is_restored_when_the_loop_raises(self, loop):
        from wasmcpg.wql.interp import Interpreter
        for outer, after in (('v := "outer";', "outer"), ("w := 0;", "unbound")):
            interp = Interpreter(fixture_cpg("empty"), {})
            with pytest.raises(WqlRuntimeError, match="^line 2: "):
                interp.run(parse_wql(f"{outer}\n{loop}"))
            assert interp.vars.get("v", "unbound") == after

    def test_foreach_over_a_map_yields_its_keys(self):
        assert self._labels("""
foreach k in config:
    vulnerability("k", "f", k);
""", config={"b": 1, "a": 2}) == ["b", "a"]

    def test_break_and_continue_in_nested_loops(self):
        assert self._labels("""
foreach i in List(1, 2, 3):
    foreach j in List(1, 2, 3):
        if (j = 2):
            continue;
        if (j = 3):
            break;
        vulnerability("k", "f", i * 10 + j);
    if (i = 2):
        break;
k := 0;
while (true):
    k := k + 1;
    if (k < 3):
        continue;
    vulnerability("k", "f", k);
    break;
""") == ["11", "21", "3"]

    def test_records_compare_by_identity(self):
        assert self._labels("""
foreach f in functions():
    a := f.outEdges;
    b := f.outEdges;
    vulnerability("k", f.name, a = b);
    vulnerability("k", f.name, a[0] = b[0] && a[0].src = f && f != a[0].dst);
    vulnerability("k", f.name, f in List(f) && !(f in List(a[0].dst)));
fs := functions();
vulnerability("k", "f", fs[0] = fs[1] || fs[0] != functions()[0]);
""", "fig_ddg") == ["True", "True", "True"] * 2 + ["False"]


# One statement per shape, nested n levels of that shape deep
NESTED = {
    "sum": lambda n: "x := " + " + ".join(["1"] * n) + ";",
    "parens": lambda n: "x := " + "(" * n + "1" + ")" * n + ";",
    "minus": lambda n: "x := " + "-" * n + "1;",
    "not": lambda n: "x := " + "!" * n + "true;",
    "assign": lambda n: "".join(f"x{i} := " for i in range(n)) + "1;",
    "calls": lambda n: "x := " + "List(" * n + ")" * n + ";",
    "ranges": lambda n: "x := " + "[v in " * n + "List(1)" + " : true]" * n + ";",
    "index": lambda n: "l := List();\nl.append(l);\nx := l" + "[0]" * n + ";",
    "methods": lambda n: "l := List();\nx := l" + ".append(1)" * n + ".size();",
    "ifs": lambda n: "".join("    " * i + "if true:\n" for i in range(n))
                     + "    " * n + "x := 1;",
    "loops": lambda n: "".join("    " * i + "foreach v in List(1):\n" for i in range(n))
                       + "    " * n + "x := v;",
}
# shape -> (the largest n that parses, line:col of the error at n + 1): the
# token where nesting crosses the bound, such as the 46th "+" or "-"
AT_BOUND = {
    "sum": (46, "1:188"), "parens": (45, "1:52"), "minus": (45, "1:51"),
    "not": (45, "1:51"), "assign": (46, "1:320"), "calls": (46, "1:236"),
    "ranges": (44, "1:281"), "index": (45, "3:142"), "methods": (44, "2:457"),
    "ifs": (45, "47:190"), "loops": (45, "47:190"),
}


def _frames_deep(frames, fn):
    """`fn()`, called `frames` Python frames below this call."""
    return fn() if frames == 0 else _frames_deep(frames - 1, fn)


class TestDepthBound:
    def test_shipped_and_listed_queries_need_under_half_the_bound(self, monkeypatch):
        monkeypatch.setattr(P, "MAX_DEPTH", 24)   # the deepest needs 19 levels
        paths = [*QUERIES_WQL.glob("*.wql"),
                 *(pathlib.Path(__file__).parent / "fixtures" / "wql").glob("*.wql")]
        assert len(paths) == 14
        for path in paths:
            parse_wql(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_at_the_bound_parse_compile_and_run_400_frames_deep(self, shape):
        n, _ = AT_BOUND[shape]
        cpg, limit = fixture_cpg("empty"), sys.getrecursionlimit()
        sys.setrecursionlimit(1000)   # Python's default
        try:
            prog = _frames_deep(400, lambda: parse_wql(NESTED[shape](n)))
            assert _frames_deep(400, lambda: eval_wql(prog, cpg, {})) == []
        finally:
            sys.setrecursionlimit(limit)
        assert prog.code is not None   # compiled on that run

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_one_level_past_the_bound_fails_at_the_crossing_token(self, shape):
        n, where = AT_BOUND[shape]
        with pytest.raises(WqlSyntaxError) as info:
            _frames_deep(400, lambda: parse_wql(NESTED[shape](n + 1)))
        assert str(info.value) == f"{where}: nesting deeper than {P.MAX_DEPTH} levels"
        # far past the bound, the parser stops as early, wherever the bound is crossed
        with pytest.raises(WqlSyntaxError, match=f"nesting deeper than {P.MAX_DEPTH} levels$"):
            _frames_deep(400, lambda: parse_wql(NESTED[shape](3000)))


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
