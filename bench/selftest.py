"""Self-test of the benchmark at a small size.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Checks that the generators are deterministic, that the planted answer key
matches the detectors and their WQL twins, that the fixpoint matches the
round-robin oracle, that the traced decomposition builds the same graph as
`build_cpg`, that a short run of every workload reports every metric named
in BENCHMARK.json, and that the benchmark fails without the sources.
"""

from __future__ import annotations

import collections
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import phases as ph  # noqa: E402
import run  # noqa: E402
from patterns import SCAN_CONFIG  # noqa: E402
from tracing import Tracer, traced_build, traced_op  # noqa: E402

ROOT = run.ROOT
API = ph.load_api(ROOT / "src")
CONFIG = API.queries.ScanConfig.from_dict(SCAN_CONFIG)


def small_app(seed: int = 3):
    return inputs.app_module(seed, copies=2, fillers=6, filler_insts=40)


def test_generators_are_deterministic():
    assert inputs.ddg_loops_module(5, 8) == inputs.ddg_loops_module(5, 8)
    assert inputs.ddg_loops_module(5, 8) != inputs.ddg_loops_module(6, 8)
    assert small_app(5) == small_app(5)
    assert small_app(5)[0] != small_app(6)[0]


def test_ddg_loops_work_is_seed_invariant():
    counts = set()
    for seed in (1, 2, 3):
        cpg, _ = API.pipeline.build_cpg(inputs.ddg_loops_module(seed, 12))
        counts.add(tuple(sorted(ph.edge_counts(API, cpg).items())))
        assert API.queries.run_all(cpg, CONFIG) == []
    assert len(counts) == 1


def test_answer_key_and_wql_parity():
    src, key = small_app()
    assert len(key) == 20
    cpg, _ = API.pipeline.build_cpg(src)
    findings = API.queries.run_all(cpg, CONFIG)
    assert ph.finding_keys(findings) == key
    st = ph.OpState(workdir=run.OUT_DIR, cpg=cpg, findings=findings)
    bindings = CONFIG.to_wql_bindings()
    twins = ph.load_wql_twins(API)
    assert [qid for qid, _, _ in twins] == list(range(1, 11))
    ph.run_wql(API, twins, bindings, st)
    ph.check_wql(st)


def oracle_reference(src: str, key: list[tuple]) -> ph.Reference:
    """The reference `Bench.build_reference` sets, for any input size."""
    oracle = run.load_oracle()
    rows: set[str] = set()
    built = traced_build(API, Tracer(), src, lambda ctx, name, analysis: rows.update(
        ph.oracle_ddg_rows(API, ctx, name, oracle.round_robin_states(ctx, name))))
    return ph.Reference(key, ph.edge_counts(API, built.ctx.cpg),
                        ph.rows_digest(rows))


def test_fixpoint_and_ddg_match_oracle():
    oracle = run.load_oracle()
    for src in (inputs.ddg_loops_module(2, 8), small_app()[0]):
        rows: set[str] = set()
        checked = []

        def check(ctx, name, analysis):
            ins = oracle.round_robin_states(ctx, name)
            assert analysis.res == ins
            checked.append(name)
            rows.update(ph.oracle_ddg_rows(API, ctx, name, ins))

        built = traced_build(API, Tracer(), src, check)
        assert checked
        assert ph.rows_digest(rows) == ph.ddg_digest(API, built.ctx.cpg)


def test_digest_catches_a_misdirected_ddg_edge():
    """A build with every count right but one DDG edge reversed fails the
    per-op check, which edge counts alone would not catch."""
    src, key = small_app()
    ref = oracle_reference(src, key)
    cpg_class = API.graph.Cpg
    add_edge = cpg_class.add_edge
    moved = []

    def misdirect(self, src_id, dst_id, edge_type, properties=None):
        if edge_type == API.graph.DDG and not moved:
            moved.append(edge_type)
            src_id, dst_id = dst_id, src_id
        return add_edge(self, src_id, dst_id, edge_type, properties)

    cpg_class.add_edge = misdirect
    try:
        cpg, _ = API.pipeline.build_cpg(src)
    finally:
        cpg_class.add_edge = add_edge
    assert moved
    good, _ = API.pipeline.build_cpg(src)
    st = ph.OpState(workdir=run.OUT_DIR, cpg=cpg,
                    findings=API.queries.run_all(good, CONFIG))
    assert ph.edge_counts(API, cpg) == ref.counts
    try:
        ph.check_scan(API, ref, st)
    except ph.CheckFailed as exc:
        assert "DDG edge set" in str(exc)
        return
    raise AssertionError("check_scan accepted a misdirected DDG edge")


def test_pinned_counts_hold_for_held_out_seed():
    for workload in run.WORKLOADS:
        src, _ = run.make_input(workload, 7919)
        cpg, _ = API.pipeline.build_cpg(src)
        assert ph.edge_counts(API, cpg) == run.PINNED_COUNTS[run.size_key(workload)]


def test_traced_graph_equals_build_cpg():
    src, key = small_app()
    cpg, _ = API.pipeline.build_cpg(src)
    ref = oracle_reference(src, key)
    assert ph.edge_counts(API, cpg) == ref.counts
    assert ph.ddg_digest(API, cpg) == ref.digest
    workdir = ROOT / ".bench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tr = Tracer()
        st = ph.OpState(workdir=workdir)
        checked = []

        def check(phase):
            ph.check_after(API, ref, checker, phase, st)
            checked.append(phase)

        checker = ph.RoundTripChecker(ROOT / "src")
        try:
            counts = traced_op(API, tr, src, CONFIG, ph.load_wql_twins(API),
                               CONFIG.to_wql_bindings(), st, check)
        finally:
            checker.close()
        assert checked == ["detect", "wql", "save", "load_query", "export"]
        assert st.cpg is None     # dropped after save
        assert counts["graph.edges"] == sum(ref.counts[t] for t in ("AST", "CFG", "CG", "DDG"))
        assert counts["queries.findings"] == len(key)
        names = collections.Counter(span[0] for span in tr.spans)
        assert names["dataflow.fixpoint"] == names["dataflow.emit"] > 0
        self_times = tr.self_times(0, {})
        assert all(t >= 0 for t in self_times.values())
        assert math.isclose(sum(self_times.values()), tr.duration(0, "op"), rel_tol=1e-9)
        doubled = tr.self_times(0, {"scan": 2.0})
        assert math.isclose(doubled["dataflow.emit"], 2 * self_times["dataflow.emit"])
        assert math.isclose(doubled["wql.q01"], self_times["wql.q01"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_round_trip_check_catches_a_changed_file():
    src, _ = small_app()
    workdir = ROOT / ".bench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    checker = ph.RoundTripChecker(ROOT / "src")
    try:
        st = ph.OpState(workdir=workdir)
        ph.run_build(API, src, st)
        ph.run_save(API, st)
        ph.check_round_trip(checker, st)
        with open(st.json_path, "a", encoding="utf-8") as fh:
            fh.write(" ")
        try:
            ph.check_round_trip(checker, st)
        except ph.CheckFailed:
            return
        raise AssertionError("check_round_trip accepted a changed file")
    finally:
        checker.close()
        shutil.rmtree(workdir, ignore_errors=True)


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]


def test_short_runs_report_every_metric():
    saved = (run.DDG_LOOPS, run.APP_COPIES, run.APP_FILLERS, run.FILLER_INSTS,
             run.MIN_OPS, run.SETUP_REPS)
    run.DDG_LOOPS, run.APP_COPIES, run.APP_FILLERS, run.FILLER_INSTS = 6, 1, 4, 40
    run.MIN_OPS, run.SETUP_REPS = run.FULL_EVERY + 1, 1
    try:
        for workload in run.WORKLOADS:
            for traced, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                bench = run.Bench(workload, 1)
                bench.setup()
                try:
                    bench.build_reference()
                    metrics = bench.run_traced(0) if traced else bench.run_untraced(0)
                finally:
                    bench.close()
                assert bench.failed == 0, bench.errors
                assert list(metrics) == [m[0] for m in names]
                assert all(math.isfinite(v) for v, _ in metrics.values()), metrics
    finally:
        (run.DDG_LOOPS, run.APP_COPIES, run.APP_FILLERS, run.FILLER_INSTS,
         run.MIN_OPS, run.SETUP_REPS) = saved
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)


def test_fails_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ddg-loops", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail overall
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
