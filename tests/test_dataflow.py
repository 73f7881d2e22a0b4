"""Dependency analysis: transfer rules, the fixpoint engine, edge emission."""

from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import ALL_FIXTURES, build_fixture, fixture_cpg, fixture_source
from gen import nested_expression, random_module, scaling_module
from oracle import round_robin_states
from wasmcpg.ast_builder import build_ast
from wasmcpg.cfg_builder import build_cfg
from wasmcpg.cg_builder import build_cg
from wasmcpg.errors import DataflowError, WasmCpgError
from wasmcpg.export import to_json
from wasmcpg.pipeline import _build, build_cpg
from wasmcpg.wat_parser import parse_module
from wasmcpg import dataflow as df
from wasmcpg import graph as g
from wasmcpg import opcodes as op


def _context(src: str):
    module = parse_module(src)
    ctx = build_ast(module)
    build_cfg(ctx)
    build_cg(ctx)
    return ctx


def _ddg_edges(cpg):
    return {
        (e.src, e.dst, e.properties["ddgType"], e.properties["label"])
        for e in cpg.edges_of_type(g.DDG)
    }


def _checked_analysis(ctx, func_name: str) -> df.FunctionAnalysis:
    """`analyze_function` after checking the engine's precondition on
    `fd.order`, and its visit counters after the run.

    The flattened order holds every node once; every CFG edge goes back to
    the header of an enclosing loop, or forward without entering a loop
    component anywhere but at its header.
    """
    analysis = df.analyze_function(ctx, func_name)
    fd, stats = analysis.fd, analysis.stats
    where: dict[int, tuple[int, tuple[int, ...]]] = {}  # node -> (position, loops)
    flat = []

    def flatten(order, loops):
        for item in order:
            if type(item) is tuple:
                header, body = item
                flat.append(header)
                where[header] = (len(where), loops + (header,))
                flatten(body, loops + (header,))
            else:
                flat.append(item)
                where[item] = (len(where), loops)

    flatten(fd.order, ())
    assert sorted(flat) == sorted(fd.nodes)
    for src, (pos, loops) in where.items():
        for e in ctx.cpg.out_edges(src, g.CFG):
            dst_pos, dst_loops = where[e.dst]
            assert e.dst in loops or (
                dst_pos > pos and set(dst_loops) - {e.dst} <= set(loops)), (src, e.dst)
    assert stats.pops == sum(stats.transfer_counts.values())
    assert stats.growth_revisits == stats.pops - len(analysis.res)
    return analysis


def _info(opcode: str, **props) -> df.NodeInfo:
    """The NodeInfo `_prepare` gives a plain instruction: its instType tag
    and its operand and result counts from the opcode table."""
    tag, nargs, nresults = op.SIMPLE_OPCODES[opcode]
    return df.NodeInfo(tag, nargs, nresults, **props)


# an origin table as `_prepare` builds one: bit k is the k-th origin's
C1, C2, C3 = (df.Dep("Const", n, None, n, "i32") for n in (1, 2, 3))
Y4, C5, Q6 = df.Dep("Local", 4, "$y"), df.Dep("Const", 5, None, 2, "i32"), \
    df.Dep("Local", 6, "$q")
F7, Y16 = df.Dep("Function", 7, "$fgetc"), df.Dep("Local", 16, "$y")
DEPS = {dep.origin: dep for dep in (C1, C2, C3, Y4, C5, Q6, F7, Y16)}
FD = df.FunctionDataflow(layout=None, deps=DEPS)


def _bits(*deps: df.Dep) -> int:
    return sum(1 << list(DEPS).index(dep.origin) for dep in set(deps))


class TestTransfer:
    def test_const_pushes_anchored_dependency(self):
        s = df.State()
        out, popped = df.transfer(5, _info("i32.const", own=_bits(C5), deps=DEPS), s)
        assert popped == []
        assert out.stack == (_bits(C5),)
        assert df.deps_of(FD, out.stack[0]) == [C5]

    def test_local_get_anchors_itself_and_forwards_the_store(self):
        # slot 0 is $y, slot 1 is $q
        seeded = df.State(locals_=(_bits(Y16), df.EMPTY))
        out, _ = df.transfer(4, _info("local.get", slot=0, own=_bits(Y4), deps=DEPS),
                             seeded)
        assert df.deps_of(FD, out.stack[-1]) == [Y4, Y16]
        # an untouched local still records the use site
        out2, _ = df.transfer(6, _info("local.get", slot=1, own=_bits(Q6), deps=DEPS),
                              seeded)
        assert df.deps_of(FD, out2.stack[-1]) == [Q6]

    def test_binop_unions_operands(self):
        lv, cv = _bits(Y4), _bits(C5)
        s, info = df.State(stack=(df.EMPTY, lv, cv)), _info("i32.add", deps=DEPS)
        out, popped = df.transfer(6, info, s)
        assert out.stack == (df.EMPTY, lv | cv)
        assert popped == [{Y4}, {C5}]
        assert df._step(info, s) == (out, (lv, cv))

    def test_select_discards_condition_set(self):
        a, b, c = _bits(C1), _bits(C2), _bits(C3)
        out, popped = df.transfer(9, _info("select", deps=DEPS), df.State(stack=(a, b, c)))
        assert out.stack == (a | b,)
        assert popped == [{C1}, {C2}, {C3}]

    def test_load_pushes_empty_set(self):
        addr = _bits(Y4)
        out, popped = df.transfer(7, _info("i32.load", deps=DEPS), df.State(stack=(addr,)))
        assert out.stack == (df.EMPTY,)
        assert popped == [{Y4}]

    def test_call_pushes_function_dependency(self):
        info = df.NodeInfo(op.CALL, nargs=1, nresults=1, own=_bits(F7), deps=DEPS)
        out, popped = df.transfer(7, info, df.State(stack=(_bits(C1),)))
        assert out.stack == (_bits(F7),)
        assert popped == [{C1}]

    def test_stack_underflow(self):
        with pytest.raises(DataflowError, match="underflow"):
            df.transfer(1, _info("i32.add"), df.State())

    def test_monotone_on_random_states(self):
        rng = random.Random(7)
        bits = [1 << k for k in range(6)]
        opcodes = ["i32.add", "i32.eqz", "drop", "local.set", "local.tee",
                   "global.set", "i32.load", "i32.store"]
        for _ in range(200):
            small = sum(rng.sample(bits, rng.randrange(0, 4)))
            big = small | sum(rng.sample(bits, rng.randrange(0, 3)))
            info = _info(rng.choice(opcodes), slot=1, deps=DEPS)
            extra = sum(rng.sample(bits, 2))
            store = (extra, df.EMPTY)   # $x is slot 1 of each store
            s1 = df.State(store, store, stack=(extra, small))
            s2 = df.State(store, store, stack=(extra, big))
            o1, p1 = df.transfer(0, info, s1)
            o2, p2 = df.transfer(0, info, s2)
            assert len(p1) == info.nargs > 0
            for x, y in zip(p1, p2):
                assert x <= y
            for x, y in zip(o1.stack + o1.locals_ + o1.globals_,
                            o2.stack + o2.locals_ + o2.globals_):
                assert x | y == y


# a table wide enough that the drawn sets are not Python's cached small ints
WIDE = df.FunctionDataflow(layout=None, deps={n: df.Dep("Const", n, None, n, "i32")
                                              for n in range(70)})


@st.composite
def state_pairs(draw):
    """(a, b) of one shape; b's store tuples and sets are often a's own
    objects, subsets or supersets of them."""
    sets = st.builds(lambda ks: sum(1 << k for k in ks),
                     st.sets(st.integers(64, 69), max_size=4))

    def store(n):
        xs = tuple(draw(sets) for _ in range(n))
        if draw(st.booleans()):
            return xs, xs
        ys = []
        for x in xs:
            how, y = draw(st.sampled_from(("same", "subset", "superset", "any"))), draw(sets)
            ys.append(x if how == "same" else x & y if how == "subset"
                      else x | y if how == "superset" else y)
        return xs, tuple(ys)

    (ga, gb), (la, lb), (sa, sb) = (store(draw(st.integers(0, 3))) for _ in range(3))
    return df.State(ga, la, sa), df.State(gb, lb, sb)


class TestJoin:
    def test_mismatched_heights(self):
        with pytest.raises(DataflowError, match="mismatched stack heights"):
            df.join(df.State(stack=(df.EMPTY,)), df.State())

    def test_pointwise_union_and_growth_flag(self):
        a = df.State(stack=(_bits(C1),))
        b = df.State(stack=(_bits(C2),))
        joined, grew = df.join(a, b)
        assert grew and df.deps_of(FD, joined.stack[0]) == [C1, C2]
        again, grew2 = df.join(joined, b)
        assert not grew2 and again is joined

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=state_pairs())
    def test_matches_pointwise_union_and_shares_what_did_not_grow(self, pair):
        a, b = pair
        decoded = lambda s: tuple(tuple(set(df.deps_of(WIDE, x)) for x in store)
                                  for store in s)
        slots = lambda s: [x for store in decoded(s) for x in store]
        reference = tuple(tuple(x | y for x, y in zip(p, q))
                          for p, q in zip(decoded(a), decoded(b)))
        joined, grew = df.join(a, b)
        assert decoded(joined) == reference
        assert grew == any(not y <= x for x, y in zip(slots(a), slots(b)))
        if not grew:
            assert joined is a
        for u, x, y, (dx, dy) in zip(joined.globals_ + joined.locals_ + joined.stack,
                                     a.globals_ + a.locals_ + a.stack,
                                     b.globals_ + b.locals_ + b.stack,
                                     zip(slots(a), slots(b))):
            if dy <= dx:
                assert u is x   # a slot that did not grow keeps a's set
            elif dx <= dy:
                assert u is y   # one b covers takes b's


class TestPrepare:
    def test_origins_are_built_once(self):
        ctx = _context("""(module
            (global $g (mut i32) (i32.const 0))
            (func $r (result i32) i32.const 7)
            (func $v (param i32))
            (func $f (param $p i32)
              i32.const 2
              local.get $p
              global.get $g
              call $r
              i32.add i32.add i32.add
              call $v))""")
        fd = df._prepare(ctx, ctx.layouts["$f"])
        owns = {i.tag: df.deps_of(fd, i.own) for i in fd.info.values() if i.own}
        node = {i.tag: n for n, i in fd.info.items()}
        assert owns == {
            op.CONST: [df.Dep("Const", node[op.CONST], None, 2, "i32")],
            op.LOCAL_GET: [df.Dep("Local", node[op.LOCAL_GET], "$p")],
            op.GLOBAL_GET: [df.Dep("Global", node[op.GLOBAL_GET], "$g")],
            op.CALL: [df.Dep("Function", node[op.CALL] - 4, "$r")],
        }
        # the param and the four origins; a call without results is none
        assert len(fd.deps) == 5
        # bits number the origins in node-id order: the param's var node is last
        param = ctx.layouts["$f"].param_var_node["$p"]
        assert list(fd.deps.items())[-1] == (param, df.Dep("Local", param, "$p"))
        assert list(fd.deps) == sorted(fd.deps) == [d.origin for d in fd.deps.values()]

    def test_frame_bases_are_static(self):
        ctx = _context("""(module (func $f (result i32)
            i32.const 1
            (block $b (result i32)
              i32.const 2
              (loop $l (br_if $l (i32.const 0)))
              i32.const 3
              br $b)
            i32.add))""")
        fd = df._prepare(ctx, ctx.layouts["$f"])
        frames = {i.tag: (i.base, i.nresults) for i in fd.info.values()
                  if i.base is not None}
        assert frames == {op.BLOCK: (1, 1), op.LOOP: (2, 0),
                          op.END_LOOP: (2, 0), df.EXIT: (0, 1)}
        block = next(i for i in fd.info.values() if i.tag == op.BLOCK)
        a, b, c = _bits(C1), _bits(C2), _bits(C3)
        s = df.State(stack=(a, b, c))
        assert df.adjust_for_edge(s, block).stack == (a, c)
        fits = df.State(stack=(a, c))
        assert df.adjust_for_edge(fits, block) is fits

    def test_a_shadowed_label_closes_the_innermost_frame(self):
        # the loop's entry edge must not close the outer block of the same name
        ctx = _context("""(module (func $f (result i32)
            (block $a (result i32)
              i32.const 1
              (loop $a (br_if $a (i32.const 0)))
              i32.eqz)))""")
        analysis = _checked_analysis(ctx, "$f")
        assert analysis.res == round_robin_states(ctx, "$f")
        df.emit_ddg_edges(ctx, analysis)
        ctx.cpg.freeze()
        info = analysis.fd.info
        const = next(n for n, i in info.items()
                     if df.deps_of(analysis.fd, i.own) == [df.Dep("Const", n, None, 1, "i32")])
        eqz = next(n for n, i in info.items() if i.tag == op.COMPARE)
        assert [e.src for e in ctx.cpg.in_edges(eqz, g.DDG)] == [const]


class TestAnalyzeFunction:
    def test_straight_line_single_pass(self):
        ctx = _context("""(module (func $f
            i32.const 1
            i32.const 2
            i32.add
            drop))""")
        analysis = df.analyze_function(ctx, "$f")
        assert all(c == 1 for c in analysis.stats.transfer_counts.values())
        assert analysis.stats.growth_revisits == 0

    def test_fig_merge_joins_both_branches(self):
        ctx, _ = build_fixture("fig_ddg")
        analysis = df.analyze_function(ctx, "$test")
        # node 12 is the final add; its input stack carries both branch results
        state = analysis.res[12]
        labels = {(d.kind, d.name or d.value) for d in df.deps_of(analysis.fd, state.stack[0])}
        assert {("Local", "$y"), ("Local", "$z"),
                ("Const", 2), ("Const", 3)} <= labels

    @pytest.mark.parametrize("seed", range(10))
    def test_loop_fixpoint_matches_round_robin(self, seed):
        ctx = _context(random_module(seed, max_insts=50))
        for fn in ctx.module.functions:
            analysis = df.analyze_function(ctx, fn.name)
            assert analysis.res == round_robin_states(ctx, fn.name), fn.name

    def test_inner_loop_cache(self):
        # The outer loop needs a second sweep (it grows $i), but delivers an
        # unchanged state to the inner loop, whose body must not be re-swept.
        ctx = _context("""(module (func $nested
            (local $i i32)
            (local $j i32)
            loop $OUT
              local.get $i
              i32.const 1
              i32.add
              local.set $i
              i32.const 5
              local.set $j
              loop $IN
                local.get $j
                br_if $IN
              end
              local.get $i
              i32.const 10
              i32.lt_s
              br_if $OUT
            end))""")
        cpg = ctx.cpg
        analysis = df.analyze_function(ctx, "$nested")
        counts = analysis.stats.transfer_counts
        layout = ctx.layouts["$nested"]
        by_node = {nid: cpg.node(nid).properties
                   for nid in layout.inst_node.values()}
        inner_get = next(n for n, p in by_node.items()
                         if p.get("instType") == "LocalGet"
                         and p.get("label") == "$j"
                         and cpg.node_property(n - 1, "instType") == "Loop")
        outer_add = next(n for n, p in by_node.items()
                         if p.get("instType") == "Binary")
        assert counts[outer_add] == 2      # outer body re-swept once
        assert counts[inner_get] == 1      # inner body swept exactly once

    def test_a_join_that_always_grows_trips_the_lattice_bound(self, monkeypatch):
        # a transfer that adds a fresh bit to $p on every visit grows the
        # loop header's inbox on every pass, so the loop never settles
        step, fresh = df._step, itertools.count(64)

        def growing(info, s):
            out, popped = step(info, s)
            return out._replace(locals_=(out.locals_[0] | 1 << next(fresh),)), popped

        monkeypatch.setattr(df, "_step", growing)
        ctx = _context("""(module (func $f (param $p i32)
            (loop $L (br_if $L (local.get $p)))))""")
        with pytest.raises(DataflowError, match=r"^\$f: \d+ growth re-visits pass "
                                                r"the lattice bound of \d+$"):
            df.analyze_function(ctx, "$f")

    def test_a_loop_at_the_entry_joins_the_initial_state(self):
        # the loop header's predecessors are the Function node and the back
        # edge: its inbox keeps $p's parameter bit beside the constant's
        ctx = _context("""(module (func $f (param $p i32) (result i32)
            (loop $L (local.set $p (i32.const 1)) (br_if $L (local.get $p)))
            local.get $p))""")
        analysis = _checked_analysis(ctx, "$f")
        assert analysis.res == round_robin_states(ctx, "$f")
        fd = analysis.fd
        header = next(n for n, i in fd.info.items() if i.tag == op.LOOP)
        assert [d.kind for d in df.deps_of(fd, analysis.res[header].locals_[0])] == \
            ["Const", "Local"]

    @pytest.mark.parametrize("name", ["fig_ddg", "mixed", "cfg_brtable", "q10_vuln"])
    def test_join_runs_only_into_merge_points(self, name, monkeypatch):
        # a merge point has two or more CFG predecessors, the entry's
        # Function node among them; every other inbox is set, not joined:
        # each firing joins once per CFG out-edge into a merge point
        join, run, fired = df.join, df._run, []

        def recording(a, b):
            fired[-1][1] += 1
            return join(a, b)

        def counting(order, dirty, fire):
            def firing(node):
                fired.append([node, 0])
                fire(node)
            run(order, dirty, firing)

        ctx, _ = build_fixture(name)
        oracle = {fn.name: round_robin_states(ctx, fn.name) for fn in ctx.module.functions}
        monkeypatch.setattr(df, "join", recording)
        monkeypatch.setattr(df, "_run", counting)
        for fn in ctx.module.functions:
            fired.clear()
            analysis = df.analyze_function(ctx, fn.name)
            merges = {n for n in analysis.res if len(ctx.cpg.in_edges(n, g.CFG)) >= 2}
            into = {n: [e.dst for e in ctx.cpg.out_edges(n, g.CFG) if e.dst in merges]
                    for n in analysis.res}
            assert [joins for _, joins in fired] == [len(into[n]) for n, _ in fired], fn.name
            assert {m for n, _ in fired for m in into[n]} == merges, fn.name
            assert analysis.res == oracle[fn.name], fn.name

    def test_a_reverse_copy_chain_converges_inside_the_engine_bound(self):
        # each pass moves $l0's dependency one local down the chain, so every
        # body node is re-visited once per local: more growth re-visits than
        # `stats.height_bound`, though each node's inbox stays inside its own
        k = 10
        ctx = _context(
            f"(module (func $f (param $p i32) "
            + " ".join(f"(local $l{i} i32)" for i in range(k + 1))
            + " (loop $L "
            + " ".join(f"local.get $l{i - 1} local.set $l{i}" for i in range(k, 0, -1))
            + " local.get $p br_if $L)))")
        analysis = _checked_analysis(ctx, "$f")
        assert analysis.res == round_robin_states(ctx, "$f")
        stats = analysis.stats
        assert stats.height_bound < stats.growth_revisits <= stats.height_bound * stats.cfg_nodes

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_height_bound_on_fixtures(self, name):
        _, report = build_fixture(name)
        for fname, stats in report.function_stats.items():
            if stats.cfg_nodes == 0:
                continue
            assert stats.growth_revisits <= stats.height_bound, fname
            assert stats.pops <= (stats.height_bound + 1) * stats.cfg_nodes, fname

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_order_and_counters_on_fixtures(self, name):
        ctx, _ = build_fixture(name)
        for fn in ctx.module.functions:
            _checked_analysis(ctx, fn.name)

    @pytest.mark.parametrize("seed", range(40))
    def test_order_and_counters_on_random_modules(self, seed):
        ctx = _context(random_module(seed))
        for fn in ctx.module.functions:
            _checked_analysis(ctx, fn.name)

    def test_import_has_no_dataflow_nodes(self):
        ctx, report = build_fixture("libpng_get_token")
        fd = df._prepare(ctx, ctx.layouts["$fgetc"])
        assert fd.nodes == fd.order == [] and fd.info == {}
        assert report.function_stats["$fgetc"].cfg_nodes == 0

    def test_dropped_analyses_leave_no_cyclic_garbage(self):
        # with the cyclic collector off, only reference counting frees an
        # analysis: its FunctionDataflow must not sit in a reference cycle
        ctx, _ = build_fixture("mixed")

        def live() -> int:
            return sum(isinstance(o, df.FunctionDataflow) for o in gc.get_objects())

        gc.collect()
        before = live()
        with g.gc_paused():
            for fn in ctx.module.functions:
                df.analyze_function(ctx, fn.name)
            assert live() == before

    def test_ddg_stage_dominates_on_loop_heavy_input(self):
        from gen import scaling_module
        _, report = build_cpg(scaling_module(500))
        ddg = report.timings["ddg_fixpoint"] + report.timings["ddg_emit"]
        assert all(ddg >= report.timings[s] for s in ("parse", "ast", "cfg", "cg"))


class TestEmitDdgEdges:
    def test_fig_edge_properties(self):
        cpg = fixture_cpg("fig_ddg")
        edge = next(e for e in cpg.edges_of_type(g.DDG)
                    if e.src == 4 and e.dst == 6)
        assert edge.properties == {"ddgType": "Local", "label": "$y"}

    def test_first_edge_from_each_origin_goes_through_add_edge(self, monkeypatch):
        """A fault injected by wrapping `Cpg.add_edge` reaches the DDG: the
        emitter hands each origin's first edge to it."""
        add_edge, firsts = g.Cpg.add_edge, set()

        def recording(self, src, dst, edge_type, properties=None):
            eid = add_edge(self, src, dst, edge_type, properties)
            if edge_type == g.DDG:
                firsts.add(eid)
            return eid

        monkeypatch.setattr(g.Cpg, "add_edge", recording)
        cpg, _ = build_cpg(fixture_source("mixed"))
        first_from: dict[int, int] = {}
        for e in cpg.edges_of_type(g.DDG):
            first_from.setdefault(e.src, e.id)
        assert first_from and firsts == set(first_from.values())

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_rows_are_the_popped_bits_decoded_ascending(self, seed):
        ctx = _context(random_module(seed, max_insts=40))
        rows, add_ddg_rows = [], g.Cpg.add_ddg_rows

        def recording(self, given, origins, props_of):   # each row decoded here
            rows.extend((dst, [o for k, o in enumerate(origins) if bits >> k & 1])
                        for dst, bits in given)
            return add_ddg_rows(self, given, origins, props_of)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(g.Cpg, "add_ddg_rows", recording)
            for fn in ctx.module.functions:
                analysis = df.analyze_function(ctx, fn.name)
                rows.clear()
                df.emit_ddg_edges(ctx, analysis)
                expected = []
                for node in sorted(analysis.popped):
                    deps = set().union(*(df.deps_of(analysis.fd, bits)
                                         for bits in analysis.popped[node]))
                    if deps:   # a consumer that popped nothing has no row
                        expected.append((node, sorted(d.origin for d in deps)))
                assert rows == expected
                for dst, row in rows:
                    assert all(a < b for a, b in zip(row, row[1:]))
                    assert [e.src for e in ctx.cpg.in_edges(dst, g.DDG)] == row

    @staticmethod
    def _emitted_and_reference(src: str) -> tuple[g.Cpg, g.Cpg]:
        """One module's graph twice, frozen: its DDG edges written by
        `emit_ddg_edges`, and by one `add_edges` per function, a row per
        edge in the emitter's order (consumers, then their origins,
        ascending; the bits decoded here) and one map object per origin."""
        emitted, reference = _context(src), _context(src)
        for fn in emitted.module.functions:
            analysis = df.analyze_function(emitted, fn.name)
            df.emit_ddg_edges(emitted, analysis)
            deps = analysis.fd.deps
            props = {origin: df._ddg_props(dep) for origin, dep in deps.items()}
            rows = []
            for node in sorted(analysis.popped):
                bits = 0
                for popped in analysis.popped[node]:
                    bits |= popped
                rows += [(origin, node, g.DDG, props[origin])
                         for k, origin in enumerate(deps) if bits >> k & 1]
            reference.cpg.add_edges(rows)
        return emitted.cpg.freeze(), reference.cpg.freeze()

    @staticmethod
    def _assert_same_store(emitted: g.Cpg, reference: g.Cpg) -> None:
        assert list(emitted.edge_rows()) == list(reference.edge_rows())
        runs = lambda cpg: [(d, list(srcs), t, list(maps))
                            for d, srcs, t, maps in cpg.edge_runs()]
        assert runs(emitted) == runs(reference)
        # the same edges share a stored map: one per origin
        sharing = lambda cpg: list(map({}.setdefault, map(id, cpg.edge_columns()[3]),
                                       itertools.count()))
        assert sharing(emitted) == sharing(reference)
        assert to_json(emitted) == to_json(reference)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000))
    def test_emission_equals_a_per_edge_reference(self, seed):
        src = random_module(seed, max_insts=120, max_loop_depth=4)
        self._assert_same_store(*self._emitted_and_reference(src))

    def test_a_loop_shaped_module_is_written_from_its_memo(self, row_memos):
        # loops over four locals pop few distinct bitsets, each many times:
        # $main's rows fill memo slots, and the copies match the reference
        emitted, reference = self._emitted_and_reference(scaling_module(240))
        memo = max(row_memos, key=len)
        assert len(memo) > 4 and all(isinstance(row, slice) for row in memo.values())
        self._assert_same_store(emitted, reference)

    def test_a_function_without_a_repeated_bitset_has_no_memo(self, row_memos):
        cpg, report = build_cpg(nested_expression(40))   # each add pops a wider set
        assert row_memos == [{}] and report.ddg_edges == {"$f": len(cpg.edges_of_type(g.DDG))}

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_the_report_counts_every_ddg_edge(self, name):
        ctx, report = build_fixture(name)
        assert list(report.ddg_edges) == [fn.name for fn in ctx.module.functions]
        assert sum(report.ddg_edges.values()) == len(ctx.cpg.edges_of_type(g.DDG))

    def test_no_value_consumers_no_edges(self):
        ctx = _context("(module (func $f nop nop))")
        ctx.cpg.freeze()
        assert ctx.cpg.edges_of_type(g.DDG) == []

    def test_memory_is_not_tracked(self):
        ctx = _context("""(module (func $f (result i32)
            i32.const 8
            i32.const 42
            i32.store
            i32.const 8
            i32.load))""")
        cpg = ctx.cpg
        store = next(n for n in cpg.nodes
                     if n.properties.get("instType") == "Store")
        load = next(n for n in cpg.nodes
                    if n.properties.get("instType") == "Load")
        assert not any(e.src == store.id and e.dst == load.id
                       for e in cpg.edges_of_type(g.DDG))
        # the loaded value carries nothing: the exit expression has no deps
        analysis = df.analyze_function(ctx, "$f")
        exit_state = analysis.res[ctx.layouts["$f"].exit_node]
        assert exit_state.stack[-1] == df.EMPTY

    def test_libpng_store_dependencies(self):
        # frozen from a hand-simulated transfer trace over the token loop:
        # the address operand carries $token/$i/const-1 through the adds, the
        # value operand carries the fgetc result and the $ret read
        cpg = fixture_cpg("libpng_get_token")
        store = next(n for n in cpg.nodes
                     if n.properties.get("instType") == "Store")
        incoming = {
            (cpg.node_property(e.src, "instType"),
             e.properties["ddgType"], e.properties["label"])
            for e in cpg.in_edges(store.id, g.DDG)
        }
        assert incoming == {
            ("Call", "Function", "$fgetc"),
            ("LocalGet", "Local", "$token"),
            ("LocalGet", "Local", "$i"),
            ("LocalGet", "Local", "$ret"),
            ("Const", "Const", 1),
            (None, "Local", "$token"),   # the parameter node seed
        }

    @staticmethod
    def _assert_no_duplicate_edges(cpg):
        seen = set()
        for e in cpg.edges_of_type(g.DDG):
            key = (e.src, e.dst, e.properties["ddgType"], e.properties["label"])
            assert key not in seen
            seen.add(key)

    def test_duplicate_edges_coalesce(self):
        for name in ALL_FIXTURES:
            self._assert_no_duplicate_edges(fixture_cpg(name))

    @pytest.mark.parametrize("seed", range(8))
    def test_no_duplicate_edges_on_random_modules(self, seed):
        cpg, _ = build_cpg(random_module(seed, max_insts=80))
        assert cpg.edges_of_type(g.DDG)
        self._assert_no_duplicate_edges(cpg)

    def test_crossed_local_and_global_names(self):
        # $x and $y name a global and a param each, in opposite orders, so
        # each name has a different slot as a local and as a global
        ctx, _ = _build("""(module
            (global $x (mut i32) (i32.const 0))
            (global $y (mut i32) (i32.const 0))
            (func $f (param $y i32) (param $x i32) (result i32)
              local.get $y
              global.set $x
              local.get $x
              global.set $y
              global.get $y
              local.set $y
              global.get $x
              local.set $x
              local.get $y
              local.get $x
              i32.add))""")
        layout = ctx.layouts["$f"]
        n = [layout.inst_node[id(inst)] for inst in layout.func.body]
        px, py = layout.param_var_node["$x"], layout.param_var_node["$y"]
        lx = [(px, "Local", "$x"), (n[2], "Local", "$x")]
        ly = [(py, "Local", "$y"), (n[0], "Local", "$y")]
        gy5, gx7 = (n[4], "Global", "$y"), (n[6], "Global", "$x")
        consumers = {
            n[1]: ly,                               # global.set $x
            n[3]: lx,                               # global.set $y
            n[5]: lx + [gy5],                       # local.set $y
            n[7]: ly + [gx7],                       # local.set $x
            n[10]: lx + ly + [gy5, gx7, (n[8], "Local", "$y"),
                              (n[9], "Local", "$x")],   # i32.add
        }
        assert _ddg_edges(ctx.cpg) == {
            (src, dst, kind, label)
            for dst, deps in consumers.items() for src, kind, label in deps}

    def test_edges_from_one_origin_share_properties(self):
        cpg = fixture_cpg("libpng_get_token")
        by_origin = {}
        for e in cpg.edges_of_type(g.DDG):
            assert by_origin.setdefault(e.src, e.properties) is e.properties


# -- dead code ----------------------------------------------------------------

TRANSFERS = ("i32.const 0 br 0", "i32.const 0 i32.const 0 br_table 0 0",
             "i32.const 0 return", "unreachable")
DEAD_PLAIN = ("i32.add", "drop", "select", "i32.eqz", "nop", "local.set $l0",
              "local.get $p0", "i32.const 3", "call $h1", "global.set $g0",
              "i32.store", "br 0", "return")


class _DeadCode:
    """Draws code for `inject_dead_code`; labels are unique per draw."""

    def __init__(self, data):
        self.draw = data.draw
        self.labels = 0

    def dead(self, depth: int) -> str:
        """An unconditional transfer, then plain and structured dead code."""
        out = [self.draw(st.sampled_from(TRANSFERS))]
        for _ in range(self.draw(st.integers(0, 3))):
            if depth < 2 and self.draw(st.booleans()):
                out.append(self.construct(depth, dead=True))
            else:
                out.append(self.draw(st.sampled_from(DEAD_PLAIN)))
        return " ".join(out)

    def body(self, depth: int, label: str) -> str:
        """Stack-neutral code that is valid where it is reachable."""
        out = []
        for _ in range(self.draw(st.integers(0, 3))):
            kind = self.draw(st.sampled_from(("plain", "br_if", "construct", "dead")))
            if kind == "plain":
                out.append(self.draw(st.sampled_from(
                    ("nop", "i32.const 1 drop", "local.get $p0 local.set $l1"))))
            elif kind == "br_if":
                out.append(f"local.get $p1 br_if {label}")
            elif kind == "construct" and depth < 2:
                out.append(self.construct(depth + 1, dead=False))
            elif kind == "dead":
                out.append(self.draw(st.sampled_from((f"br {label}", self.dead(depth)))))
                break
        return " ".join(out)

    def construct(self, depth: int, dead: bool) -> str:
        self.labels += 1
        label = f"$dead{self.labels}"
        kind = self.draw(st.sampled_from(("block", "loop", "if")))
        if kind != "if":
            return f"{kind} {label} {self.body(depth, label)} end"
        # a dead if needs no condition; a branch may target its label
        cond = "" if dead and self.draw(st.booleans()) else "local.get $p0 "
        text = f"{cond}if {label} {self.body(depth, label)}"
        if self.draw(st.booleans()):
            text += f" else {self.body(depth, label)}"
        return text + " end"


def inject_dead_code(source: str, data) -> str:
    """Insert 1-3 dead-code snippets at random lines of `$main`'s body."""
    lines = source.split("\n")
    first = next(i for i, line in enumerate(lines) if "(func $main" in line) + 2
    gen = _DeadCode(data)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(first, len(lines) - 2))
        lines.insert(at, "    " + gen.dead(0))
    return "\n".join(lines)


class TestDeadCodeProperty:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_accepted_dead_code_builds_and_matches_the_oracle(self, seed, data):
        source = inject_dead_code(random_module(seed, max_insts=30), data)
        try:
            module = parse_module(source)
        except WasmCpgError:
            return
        ctx, _ = _build(module)
        for fn in module.functions:
            analysis = _checked_analysis(ctx, fn.name)
            assert analysis.res == round_robin_states(ctx, fn.name), fn.name
