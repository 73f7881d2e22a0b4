"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its measured numbers."""

from __future__ import annotations

import collections
import json
import time

import pytest

from conftest import (
    ANSWER_KEY,
    CORPUS,
    ALL_FIXTURES,
    FIXTURES,
    build_fixture,
    fixture_cpg,
    fixture_source,
    wql_source,
)
from export_readers import read_facts
from gen import random_module, scaling_module
from oracle import round_robin_states
from wasmcpg.ast_builder import build_ast
from wasmcpg.cfg_builder import build_cfg
from wasmcpg.cg_builder import build_cg
from wasmcpg.export import ExportManifest, export, import_json, to_json
from wasmcpg.ir import iter_instructions
from wasmcpg.pipeline import build_cpg
from wasmcpg.queries import ScanConfig, run_all
from wasmcpg.wat_parser import parse_module
from wasmcpg.wql import eval_wql, parse_wql
from wasmcpg import dataflow as df
from wasmcpg import graph as g


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_planted_corpus(scan_config):
    """20 planted fixtures: all expected findings, nothing else, under 5s."""
    assert len(CORPUS) == 20
    t0 = time.perf_counter()
    failures = []
    for name in CORPUS:
        cpg, _ = build_cpg(fixture_source(name))
        got = [(f.query, f.kind, f.function, f.label)
               for f in run_all(cpg, scan_config)]
        if got != ANSWER_KEY[name]:
            failures.append((name, got))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(1, ok, f"{len(CORPUS)} fixtures, 10 true positives, "
                   f"0 false positives, {elapsed:.2f}s"
                   + (f"; failures: {failures}" if failures else ""))


# Frozen expected dependency edges for the two-branch example, derived from
# the round-robin oracle and verified by hand: (src, dst, ddgType, label).
# Node ids: 2 call, 3 if, 4 local.get $y, 5 const 2, 6 add, 8 local.get $z,
# 9 const 3, 10 mul, 11 const 1, 12 final add; 16/17 are the parameter nodes.
FIG_DDG_EDGES = {
    (2, 3, "Function", "$source"),
    (4, 6, "Local", "$y"),
    (16, 6, "Local", "$y"),
    (5, 6, "Const", 2),
    (8, 10, "Local", "$z"),
    (17, 10, "Local", "$z"),
    (9, 10, "Const", 3),
    (4, 12, "Local", "$y"),
    (16, 12, "Local", "$y"),
    (5, 12, "Const", 2),
    (8, 12, "Local", "$z"),
    (17, 12, "Local", "$z"),
    (9, 12, "Const", 3),
    (11, 12, "Const", 1),
}


def test_criterion_2_figure_exactness():
    """The two-branch example produces exactly the expected dependency edges."""
    cpg = fixture_cpg("fig_ddg")
    got = {(e.src, e.dst, e.properties["ddgType"], e.properties["label"])
           for e in cpg.edges_of_type(g.DDG)}
    anchors_present = (4, 6, "Local", "$y") in got and \
        (5, 6, "Const", 2) in got
    const_props = next(e for e in cpg.edges_of_type(g.DDG)
                       if (e.src, e.dst) == (5, 6)).properties
    ok = got == FIG_DDG_EDGES and anchors_present and \
        const_props == {"ddgType": "Const", "label": 2,
                        "valueType": "i32", "value": 2}
    missing = FIG_DDG_EDGES - got
    extra = got - FIG_DDG_EDGES
    _report(2, ok, f"{len(got)} dependency edges match the frozen set exactly"
                   + (f"; missing={missing} extra={extra}" if not ok else ""))


def test_criterion_3_cve_pattern():
    """The token-reader loop: query 10 flags $L4, queries 1-9 stay silent."""
    cpg = fixture_cpg("libpng_get_token")
    empty = ScanConfig()
    findings = run_all(cpg, empty)
    keys = [(f.query, f.function, f.label) for f in findings]
    ok = keys == [(10, "$get_token", "$L4")]
    _report(3, ok, f"findings with an empty configuration: {keys}")


def test_criterion_4_fixpoint_oracle():
    """25 random validated functions: engine equals round-robin iteration."""
    t0 = time.perf_counter()
    checked = 0
    for seed in range(25):
        module = parse_module(random_module(seed, max_insts=60,
                                            max_loop_depth=3))
        ctx = build_ast(module)
        build_cfg(ctx)
        build_cg(ctx)
        for fn in module.functions:
            analysis = df.analyze_function(ctx, fn.name)
            expected = round_robin_states(ctx, fn.name)
            assert analysis.res == expected, (seed, fn.name)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(4, ok, f"{checked} functions over 25 modules equal the "
                   f"round-robin oracle, {elapsed:.2f}s")


def test_criterion_5_termination_bound():
    """Worklist growth re-expansions never exceed the state-lattice height
    H = (|globals| + |locals| + stack bound) x |dependencies|; total pops stay
    within (H + 1) sweeps of the node set."""
    worst = 0.0
    checked = 0
    for name in ALL_FIXTURES:
        _, report = build_fixture(name)
        for fname, stats in report.function_stats.items():
            if stats.cfg_nodes == 0:
                continue
            h = stats.height_bound
            assert stats.growth_revisits <= h, (name, fname, stats)
            assert stats.pops <= (h + 1) * stats.cfg_nodes, (name, fname)
            checked += 1
            if h:
                worst = max(worst, stats.growth_revisits / h)
    _report(5, True, f"{checked} functions; max revisits/H = {worst:.3f}")


def test_criterion_6_scaling():
    """Construction time on 1k/2k/4k/8k-instruction loop-heavy programs fits
    a power law with exponent <= 2.2 and R^2 >= 0.9, under 60s total."""
    np = pytest.importorskip("numpy")
    sizes = (1000, 2000, 4000, 8000)
    start = time.perf_counter()
    build_cpg(scaling_module(sizes[0]))   # untimed warm-up
    times = []   # each size's fastest of 3 builds, so timer jitter does not set the fit
    for n in sizes:
        src = scaling_module(n)
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            build_cpg(src)
            runs.append(time.perf_counter() - t0)
        times.append(min(runs))
    total = time.perf_counter() - start
    logx, logy = np.log(sizes), np.log(times)
    b, loga = np.polyfit(logx, logy, 1)
    pred = b * logx + loga
    r2 = 1 - np.sum((logy - pred) ** 2) / np.sum((logy - np.mean(logy)) ** 2)
    ok = b <= 2.2 and r2 >= 0.9 and total < 60.0
    _report(6, ok, f"exponent b={b:.3f} (<=2.2), R^2={r2:.4f} (>=0.9), "
                   f"total {total:.1f}s (<60s)")


APPENDIX_LISTINGS = [
    # (query file, native query id, fixtures it is checked on)
    ("uaf_simple", 3, ["q03_vuln", "q03_clean"]),
    ("uaf_config", 3, ["q03_vuln", "q03_clean"]),
    ("taint_func_to_func", 6, ["q06_vuln", "q06_clean"]),
    ("bo_loops", 10, ["q10_vuln", "q10_clean", "libpng_get_token"]),
]


def test_criterion_7_wql_parity(scan_config):
    """The four reference query-language listings parse and agree with the
    native implementations on their fixtures."""
    bindings = scan_config.to_wql_bindings()
    checked = 0
    for listing, qid, fixtures in APPENDIX_LISTINGS:
        program = parse_wql(wql_source(listing))
        for name in fixtures:
            cpg = fixture_cpg(name)
            wql_counts = collections.Counter(
                f.key() for f in eval_wql(program, cpg, bindings))
            native_counts = collections.Counter(
                f.key() for f in run_all(cpg, scan_config, {qid}))
            assert wql_counts == native_counts, (listing, name)
            checked += 1
    _report(7, True, f"4 listings x fixtures = {checked} parity checks")


def test_criterion_8_roundtrip_and_arities(tmp_path):
    """JSON export -> import -> export is byte-identical on the whole corpus;
    the Datalog facts `export` writes, read back, keep the documented
    arities (ddgEdge 7-ary, call 4-ary)."""
    for name in ALL_FIXTURES:
        cpg = fixture_cpg(name)
        first = to_json(cpg)
        path = tmp_path / f"{name}.json"
        path.write_text(first, encoding="utf-8")
        assert to_json(import_json(str(path))) == first, name
    export(fixture_cpg("libpng_get_token"), ExportManifest("datalog", str(tmp_path / "facts")))
    facts = read_facts(str(tmp_path / "facts"))
    assert all(len(r) == 7 for r in facts["ddgEdge"])
    assert all(len(r) == 4 for r in facts["call"])
    assert facts["ddgEdge"] and facts["call"]
    _report(8, True, f"{len(ALL_FIXTURES)} fixtures byte-stable; "
                     f"ddgEdge 7-ary, call 4-ary")


def test_criterion_9_indirect_call_soundness():
    """Every indirect call's CG out-set equals the brute-force set of
    table-resident signature matches."""
    checked = 0
    for name in ALL_FIXTURES:
        ctx, _ = build_fixture(name)
        cpg = ctx.cpg
        module = ctx.module
        table_names = [module.functions[i].name
                       for i in dict.fromkeys(module.table)]
        for layout in ctx.layouts.values():
            for inst in iter_instructions(layout.func.body):
                if inst.opcode != "call_indirect":
                    continue
                node = layout.inst_node[id(inst)]
                got = {cpg.node_property(e.dst, "name")
                       for e in cpg.out_edges(node, g.CG)}
                expected = {
                    n for n in table_names
                    if module.function_by_name(n).signature == inst.type_use
                }
                assert got == expected, (name, layout.func.name)
                checked += 1
    _report(9, True, f"{checked} indirect calls match the brute-force "
                     f"signature scan")
