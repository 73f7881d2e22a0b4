"""Native traversal layer: node sets, reachability, predicates."""

from __future__ import annotations

import random

import pytest

from conftest import ALL_FIXTURES, build_fixture, fixture_cpg, fixture_source
from wasmcpg.errors import GraphError
from wasmcpg.export import import_json, to_json
from wasmcpg import graph as g
from wasmcpg import query as q
from wasmcpg.pipeline import build_cpg


class TestFunctions:
    def test_single_function(self):
        cpg = fixture_cpg("q02_vuln")
        assert len(q.functions(cpg)) == 2  # import + definition

    def test_libpng_includes_get_token(self):
        cpg = fixture_cpg("libpng_get_token")
        names = [cpg.node_property(n, "name") for n in q.functions(cpg)]
        assert "$get_token" in names

    def test_count_matches_module(self):
        ctx, _ = build_fixture("mixed")
        assert len(q.functions(ctx.cpg)) == len(ctx.module.functions)

    def test_requires_frozen(self):
        with pytest.raises(GraphError, match="frozen"):
            q.functions(g.Cpg())


class TestInstructions:
    def test_filter_by_call_label(self):
        cpg = fixture_cpg("q03_vuln")
        fn = next(n for n in q.functions(cpg)
                  if cpg.node_property(n, "name") == "$uaf")
        pred = q.p_and(q.p_inst_type(cpg, "Call"),
                       q.p_property(cpg, "label", "$malloc"))
        hits = q.instructions(cpg, [fn], pred)
        assert len(hits) == 1
        assert cpg.node_property(hits[0], "label") == "$malloc"

    def test_always_false_predicate(self):
        cpg = fixture_cpg("fig_ddg")
        assert q.instructions(cpg, q.functions(cpg), lambda n: False) == []

    def test_counts_match_ast(self):
        ctx, _ = build_fixture("libpng_get_token")
        cpg = ctx.cpg
        total = len(q.instructions(cpg, q.functions(cpg)))
        expected = sum(len(l.inst_node) for l in ctx.layouts.values())
        synthetic = sum(
            1 + len(l.begin_node) + len(l.end_node)
            for l in ctx.layouts.values() if not l.func.is_import)
        assert total == expected + synthetic

    def test_rejects_non_function_input(self):
        cpg = fixture_cpg("fig_ddg")
        with pytest.raises(GraphError, match="Function"):
            q.instructions(cpg, [0])


def _reimported(cpg, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(to_json(cpg), encoding="utf-8")
    return import_json(str(path))


class TestInstructionIndex:
    """The index behind `instructions` answers exactly what a walk does."""

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_equals_a_fresh_ast_walk(self, name, tmp_path):
        built = fixture_cpg(name)
        for cpg in (built, _reimported(built, tmp_path)):
            fns = q.functions(cpg)
            for fn in fns:
                walked = [n for n in q.descendants_ast(cpg, fn)
                          if cpg.nodes[n].kind == g.INSTRUCTION]
                assert q.instructions(cpg, [fn]) == walked
                for t in g.INST_TYPES:
                    assert q.instructions(cpg, [fn], inst_type=t) == \
                        [n for n in walked if cpg.node_property(n, "instType") == t]
            for t in (None, "Call", "Loop"):
                assert q.instructions(cpg, fns, inst_type=t) == sorted(
                    {n for fn in fns for n in q.instructions(cpg, [fn], inst_type=t)})

    def test_results_are_fresh_lists(self):
        cpg = fixture_cpg("mixed")
        fn = q.functions(cpg)[-1]
        for kwargs in ({}, {"inst_type": "Call"}, {"pred": lambda n: True}):
            first = q.instructions(cpg, [fn], **kwargs)
            first.append(-1)
            assert -1 not in q.instructions(cpg, [fn], **kwargs)
        assert isinstance(cpg.instructions(fn), tuple)   # the store's own copy is read-only

    def test_unfrozen_graph_is_refused(self):
        cpg = g.Cpg()
        fn = cpg.add_node(g.FUNCTION, {"name": "$f", "index": 0, "nargs": 0, "nlocals": 0,
                                       "nresults": 0, "isImport": False, "isExport": False})
        with pytest.raises(GraphError, match="frozen"):
            q.instructions(cpg, [fn])
        with pytest.raises(GraphError, match="frozen"):
            cpg.instructions(fn)
        cpg.freeze()
        assert q.instructions(cpg, [fn]) == []

    def test_unknown_inst_type_is_an_error(self):
        cpg = fixture_cpg("mixed")
        with pytest.raises(GraphError, match="instType"):
            q.instructions(cpg, q.functions(cpg), inst_type="Bogus")

    def test_not_serialised(self):
        cpg, _ = build_cpg(fixture_source("q07_vuln"))   # no index built yet
        before = to_json(cpg)
        q.instructions(cpg, q.functions(cpg))
        assert to_json(cpg) == before


class TestTypedLookupsFailClosed:
    """A type outside the schema is an error, never an empty answer."""

    def test_unknown_types_raise(self):
        cpg = fixture_cpg("mixed")
        f = q.functions(cpg)[-1]
        for lookup in (lambda: cpg.out_edges(f, "XYZ"), lambda: cpg.in_edges(f, "XYZ"),
                       lambda: cpg.adjacency(f, "XYZ"), lambda: q.children(cpg, f, "XYZ"),
                       lambda: q.reaches_ddg(cpg, f, f + 1, "Nope", None),
                       lambda: q.p_in_edge(cpg, "XYZ"), lambda: q.edge_type_cond("ddg"),
                       lambda: q.p_in_ddg_edge(cpg, "Nope"),
                       lambda: q.p_out_ddg_edge(cpg, "Nope")):
            with pytest.raises(GraphError, match="unknown"):
                lookup()

    def test_schema_types_still_answer(self):
        cpg = fixture_cpg("mixed")
        f = q.functions(cpg)[-1]
        for t in g.EDGE_TYPES:
            assert cpg.out_edges(f, t) == [e for e in cpg.out_edges(f) if e.type == t]
        for t in g.DDG_TYPES:
            assert not q.reaches_ddg(cpg, f, f, t, None)


def _plain(cond):
    """The same condition as a plain callable, which walks every edge type."""
    return lambda e: cond(e)


def _closure(cpg, edge_cond):
    """Floyd-Warshall reachability oracle over matching edges."""
    n = len(cpg.nodes)
    reach = [[False] * n for _ in range(n)]
    for e in cpg.edges:
        if edge_cond(e):
            reach[e.src][e.dst] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


class TestBfs:
    def test_uaf_descendants_contain_use(self):
        cpg = fixture_cpg("q03_vuln")
        free = next(n.id for n in cpg.nodes
                    if n.properties.get("label") == "$free"
                    and n.properties.get("instType") == "Call")
        use = next(n.id for n in cpg.nodes
                   if n.properties.get("label") == "$use_ptr")
        assert use in q.bfs(cpg, [free], edge_cond=q.edge_type_cond(g.CFG))

    def test_false_predicate_empty(self):
        cpg = fixture_cpg("fig_ddg")
        assert q.bfs(cpg, [12], lambda n: False,
                     q.edge_type_cond(g.AST)) == []

    def test_matches_transitive_closure(self):
        cpg = fixture_cpg("fig_ddg")  # 29 nodes: small enough to close
        n = len(cpg.nodes)
        for cond_type in (g.AST, g.CFG, g.DDG):
            typed = q.edge_type_cond(cond_type)
            closure = _closure(cpg, typed)
            for cond in (typed, _plain(typed)):
                for src in range(n):
                    got = set(q.bfs(cpg, [src], edge_cond=cond))
                    expected = {d for d in range(n) if closure[src][d]} - {src}
                    # reachable set excludes starts but keeps self-loops' targets
                    if closure[src][src]:
                        expected.discard(src)
                    assert got == expected, (cond_type, src)
                    ascendants = q.bfs(cpg, [src], edge_cond=cond, direction="in")
                    assert ascendants == [d for d in range(n)
                                          if closure[d][src] and d != src], (cond_type, src)

    def test_limit(self):
        cpg = fixture_cpg("libpng_get_token")
        fn = q.functions(cpg)[1]
        full = q.bfs(cpg, [fn], edge_cond=q.edge_type_cond(g.AST))
        limited = q.bfs(cpg, [fn], edge_cond=q.edge_type_cond(g.AST), limit=3)
        assert len(limited) == 3 and set(limited) <= set(full)
        # a limit keeps the first nodes in breadth-first order, which a typed
        # walk and an untyped one agree on
        call = q.instructions(cpg, [fn], q.p_inst_type(cpg, "Call"))[0]
        for cond_type in (g.AST, g.CFG, g.DDG):
            typed = q.edge_type_cond(cond_type)
            for start, direction in ((fn, "out"), (call, "out"), (call, "in")):
                for limit in range(1, 6):
                    assert q.bfs(cpg, [start], edge_cond=typed, limit=limit,
                                 direction=direction) == \
                        q.bfs(cpg, [start], edge_cond=_plain(typed), limit=limit,
                              direction=direction), (cond_type, start, direction, limit)

    def test_limit_zero_negative_and_bad_direction(self):
        cpg = fixture_cpg("fig_ddg")
        fn = q.functions(cpg)[0]
        assert q.bfs(cpg, [fn], limit=0) == []
        with pytest.raises(GraphError, match="limit"):
            q.bfs(cpg, [fn], limit=-1)
        with pytest.raises(GraphError, match="direction"):
            q.bfs(cpg, [fn], direction="up")

    def test_deterministic(self):
        cpg = fixture_cpg("mixed")
        fn = q.functions(cpg)[2]
        a = q.bfs(cpg, [fn], edge_cond=q.edge_type_cond(g.AST))
        b = q.bfs(cpg, [fn], edge_cond=q.edge_type_cond(g.AST))
        assert a == b == sorted(a)
        assert len(a) <= len(cpg.nodes)


class TestReachesDdg:
    def test_malloc_reaches_use(self):
        cpg = fixture_cpg("q03_vuln")
        malloc = next(n.id for n in cpg.nodes
                      if n.properties.get("label") == "$malloc"
                      and n.properties.get("instType") == "Call")
        use = next(n.id for n in cpg.nodes
                   if n.properties.get("label") == "$use_ptr")
        assert q.reaches_ddg(cpg, malloc, use, "Function", "$malloc")
        assert not q.reaches_ddg(cpg, malloc, use, "Function", "$other")

    def test_empty_path_excluded(self):
        cpg = fixture_cpg("fig_ddg")
        assert not q.reaches_ddg(cpg, 6, 6, "Local", "$y")

    def test_matches_label_filtered_closure(self):
        cpg = fixture_cpg("q06_vuln")
        cond = q.ddg_edge_cond("Function", "$read_input")
        closure = _closure(cpg, cond)
        for src in range(len(cpg.nodes)):
            for dst in range(len(cpg.nodes)):
                assert q.reaches(cpg, src, dst, cond) == closure[src][dst]
                assert q.reaches(cpg, src, dst, _plain(cond)) == closure[src][dst]


class TestPredicates:
    def test_in_ddg_edge(self, scan_config):
        cpg = fixture_cpg("q06_vuln")
        sink = next(n.id for n in cpg.nodes
                    if n.properties.get("label") == "$send"
                    and n.properties.get("instType") == "Call")
        assert q.p_in_ddg_edge(cpg, "Function", "$read_input")(sink)
        assert not q.p_in_ddg_edge(cpg, "Function", "$nothing")(sink)
        assert q.p_in_ddg_edge(cpg, "Function", "$nothing", equal=False)(sink)

    def test_absent_property_is_false(self):
        cpg = fixture_cpg("fig_ddg")
        assert not q.p_property(cpg, "opcode", "i32.add")(0)

    def test_out_edge_and_reaches_predicates(self):
        cpg = fixture_cpg("q06_vuln")
        source_call = next(n.id for n in cpg.nodes
                           if n.properties.get("label") == "$read_input"
                           and n.properties.get("instType") == "Call")
        sink = next(n.id for n in cpg.nodes
                    if n.properties.get("label") == "$send"
                    and n.properties.get("instType") == "Call")
        assert q.p_out_ddg_edge(cpg, "Function", "$read_input")(source_call)
        assert q.p_reaches_in(cpg, source_call, q.edge_type_cond(g.DDG))(sink)
        assert q.p_reaches_out(cpg, sink, q.edge_type_cond(g.DDG))(source_call)

    def test_de_morgan_over_random_nodes(self):
        cpg = fixture_cpg("mixed")
        rng = random.Random(11)
        preds = [
            q.p_inst_type(cpg, "Const"),
            q.p_property(cpg, "label", "$x"),
            q.p_in_edge(cpg, g.AST),
            q.p_test(lambda n: n % 2 == 0),
        ]
        nodes = [rng.randrange(len(cpg.nodes)) for _ in range(100)]
        for _ in range(50):
            a, b = rng.choice(preds), rng.choice(preds)
            lhs = q.p_not(q.p_and(a, b))
            rhs = q.p_or(q.p_not(a), q.p_not(b))
            for n in nodes:
                assert lhs(n) == rhs(n)

    def test_filter_distributes(self):
        cpg = fixture_cpg("libpng_get_token")
        fns = q.functions(cpg)
        p1 = q.p_inst_type(cpg, "Compare")
        p2 = q.p_test(lambda n: n % 2 == 0)
        nested = [n for n in q.instructions(cpg, fns, p1) if p2(n)]
        combined = q.instructions(cpg, fns, q.p_and(p1, p2))
        assert nested == combined
