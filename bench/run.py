#!/usr/bin/env python3
"""The wasmcpg benchmark.

    python3 bench/run.py --workload ddg-loops --seed 1 --seconds 50 --trace 0

Runs one workload as a closed loop with one client, in this one process and
thread, for `--seconds` seconds, checks every op's output, and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

`--trace 0` reports the end-to-end metrics, measured through the package's
public entry points (`build_cpg`, `run_all`, `eval_wql`, `export`,
`import_json`). Times are medians per op in reference seconds: wall seconds
scaled by a calibration loop run around each phase (see calibrate.py).
`--trace 1` reports the per-layer metrics from a traced run that calls each
layer itself (see tracing.py), and its overhead against untraced scans made
in the same run.

The program under test is imported from `src/` next to this directory; the
benchmark exits with an error, printing no result, when it is not there.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import phases as ph
from calibrate import SpeedBracket, calibration_s, to_reference
from patterns import SCAN_CONFIG
from tracing import Tracer, traced_build, traced_op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = OUT_DIR / f"work-{os.getpid()}"   # an op's files; removed after each op

DEFAULT_SEED = 1      # seed 7919 is kept out of tuning, to confirm claimed gains
DEFAULT_SECONDS = 50  # BENCHMARK.json's run_seconds: the bounds were set at it

# input sizes (see README.md for what they produce)
DDG_LOOPS = 40        # 29 instructions per loop
APP_COPIES = 2        # copies of the 20 planted patterns
APP_FILLERS = 45
FILLER_INSTS = 60

# The graph every seed gives at the sizes above: edge counts by type and by
# ddgType, and nodes. The generators keep the shape fixed across seeds, so a
# change here means the program builds a different graph, not that the
# work changed size.
PINNED_COUNTS = {
    ("ddg-loops", DDG_LOOPS): {
        "AST": 1210, "CFG": 1241, "CG": 0, "DDG": 37120,
        "DDG.Const": 18560, "DDG.Local": 18560, "nodes": 1211},
    ("app-scan", APP_COPIES, APP_FILLERS, FILLER_INSTS): {
        "AST": 4206, "CFG": 3452, "CG": 672, "DDG": 5266,
        "DDG.Const": 1911, "DDG.Function": 767, "DDG.Global": 252,
        "DDG.Local": 2336, "nodes": 4207},
}

SETUP_REPS = 3        # set-up is repeated and its median reported
FULL_EVERY = 4        # every 4th op runs all six phases
MIN_OPS = 12          # ops per run, even past the deadline
HARD_STOP_S = 150.0   # never run the loop longer than this

# the top-level span of a traced op that ends with each checked phase
TOP_SPAN = {"detect": "scan"}

# workload -> the phases most of its ops run; every FULL_EVERY-th op runs
# all of ph.PHASES, so every end-to-end metric is measured on every workload
WORKLOADS = {
    "ddg-loops": ph.SCAN,
    "app-scan": ph.PHASES,
}

END_TO_END = [
    # name, unit, better, bound
    # each bound is about three times the spread between runs seen on a
    # noisy 2-core VM (bench/README.md), capped at 0.25
    ("scan_s", "s", "lower", 0.15),
    ("scan_s_tail", "s", "lower", 0.15),
    ("build_s", "s", "lower", 0.2),
    ("detect_s", "s", "lower", 0.25),
    ("wql_s", "s", "lower", 0.25),
    ("save_s", "s", "lower", 0.25),
    ("load_query_s", "s", "lower", 0.2),
    ("export_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

_Q = [f"q{i:02d}" for i in range(1, 11)]
PER_LAYER = (
    [("wat_parser.parse_s", "s", "lower"),
     ("wat_parser.instructions", "count", "lower"),
     ("ast_builder.build_s", "s", "lower"),
     ("ast_builder.nodes", "count", "lower"),
     ("ast_builder.ast_edges", "count", "lower"),
     ("cfg_builder.build_s", "s", "lower"),
     ("cfg_builder.cfg_edges", "count", "lower"),
     ("cg_builder.build_s", "s", "lower"),
     ("cg_builder.cg_edges", "count", "lower"),
     ("dataflow.fixpoint_s", "s", "lower"),
     ("dataflow.emit_s", "s", "lower"),
     ("dataflow.pops", "count", "lower"),
     ("dataflow.growth_revisits", "count", "lower"),
     ("dataflow.transfers", "count", "lower"),
     ("dataflow.ddg_edges", "count", "lower"),
     ("dataflow.revisit_ratio", "ratio", "lower"),
     ("dataflow.ddg_edges_per_s", "1/s", "higher"),
     ("graph.freeze_s", "s", "lower"),
     ("graph.nodes", "count", "lower"),
     ("graph.edges", "count", "lower")]
    + [(f"queries.{q}_s", "s", "lower") for q in _Q]
    + [("queries.findings", "count", "higher"),
       ("wql.parse_s", "s", "lower")]
    + [(f"wql.{q}_s", "s", "lower") for q in _Q]
    + [("wql.findings", "count", "higher"),
       ("export.to_json_s", "s", "lower"),
       ("export.json_bytes", "bytes", "lower"),
       ("export.import_json_s", "s", "lower"),
       ("export.to_dot_s", "s", "lower"),
       ("export.datalog_s", "s", "lower"),
       ("export.neo4j_s", "s", "lower"),
       ("trace.untraced_scan_s", "s", "lower"),
       ("trace.traced_scan_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def size_key(workload: str) -> tuple:
    if workload == "ddg-loops":
        return (workload, DDG_LOOPS)
    return (workload, APP_COPIES, APP_FILLERS, FILLER_INSTS)


def make_input(workload: str, seed: int) -> tuple[str, list[tuple]]:
    """Generated WAT and its answer key (sorted finding tuples)."""
    if workload == "ddg-loops":
        return inputs.ddg_loops_module(seed, DDG_LOOPS), []
    return inputs.app_module(seed, APP_COPIES, APP_FILLERS, FILLER_INSTS)


class Bench:
    """One run: set-up state, references and the collected samples."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.samples: dict[str, list[float]] = {}     # reference seconds
        self.wall: dict[str, list[float]] = {}        # the same, as wall seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.json_bytes = 0
        self.peak_kb = 0
        self.peak_at = ""
        self.input_counts: dict[str, int] = {}

    # -- set-up ------------------------------------------------------------------
    def setup(self) -> None:
        """Imports, input generation and WQL parsing, repeated SETUP_REPS
        times."""
        for _ in range(SETUP_REPS):
            gc.collect()
            with SpeedBracket() as speed:
                t0 = time.perf_counter()
                self.api = ph.load_api(ROOT / "src")
                self.src, self.answer_key = make_input(self.workload, self.seed)
                self.twins = ph.load_wql_twins(self.api)
                self.config = self.api.queries.ScanConfig.from_dict(SCAN_CONFIG)
                self.bindings = self.config.to_wql_bindings()
                elapsed = time.perf_counter() - t0
            parse = sum(t for _, _, t in self.twins)
            self._record({"setup_s": (elapsed, elapsed * speed.factor),
                          "wql.parse_s": (parse, parse * speed.factor)})
        self.checker = ph.RoundTripChecker(ROOT / "src")
        self._note_peak("set-up")

    def close(self) -> None:
        """Stop the round-trip checker process and wait for it."""
        self.checker.close()

    def build_reference(self) -> None:
        """Set the reference every op's graph must equal, from what the
        program under test did not compute itself: the pinned counts
        (PINNED_COUNTS) and the digest of the DDG edge set that the
        round-robin fixpoint oracle implies. Once per run and outside timing,
        a layer-by-layer build is checked against both, and each function's
        fixpoint against the oracle's states."""
        api = self.api
        pinned = PINNED_COUNTS.get(size_key(self.workload))
        self.ref = ph.Reference(self.answer_key, pinned or {}, "")
        oracle = load_oracle()
        rows: set[str] = set()
        wrong: list[str] = []

        def check_fixpoint(ctx, name, analysis):
            ins = oracle.round_robin_states(ctx, name)
            if analysis.res != ins:
                wrong.append(name)
            rows.update(ph.oracle_ddg_rows(api, ctx, name, ins))

        built = traced_build(api, Tracer(), self.src, check_fixpoint)
        self.input_counts = built.counts(api)
        counts = ph.edge_counts(api, built.ctx.cpg)
        layered_digest = ph.ddg_digest(api, built.ctx.cpg)
        del built
        digest = ph.rows_digest(rows)
        del rows
        gc.collect()
        self.ref = ph.Reference(self.answer_key, pinned or counts, digest)
        self._note_peak("reference build")
        if wrong:
            raise ph.CheckFailed(f"fixpoint of {wrong[0]} differs from the oracle")
        if pinned is not None and counts != pinned:
            raise ph.CheckFailed(f"graph counts {counts} differ from the pinned {pinned}")
        if layered_digest != digest:
            raise ph.CheckFailed(
                "DDG edge set differs from the one the fixpoint oracle implies")

    # -- ops -----------------------------------------------------------------------
    def _record(self, times: dict[str, tuple[float, float]]) -> None:
        """Keep (wall seconds, reference seconds) samples by metric name."""
        for k, (wall, ref) in times.items():
            self.wall.setdefault(k, []).append(wall)
            self.samples.setdefault(k, []).append(ref)

    def _note_peak(self, where: str) -> None:
        """Remember the step during which the process's peak RSS last rose."""
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if kb > self.peak_kb:
            self.peak_kb, self.peak_at = kb, where

    def _check(self, phase: str, st: ph.OpState) -> None:
        self._note_peak(phase)
        ph.check_after(self.api, self.ref, self.checker, phase, st)
        self._note_peak(f"check after {phase}")

    def run_op(self, phases: tuple[str, ...], tracer: Tracer | None = None):
        """Run one op. Returns its exact counters (traced ops only, else
        None) and, by top-level span name, the wall-to-reference-seconds
        factors of a traced op. Each phase's output is checked after its
        timed region."""
        api = self.api
        st = ph.OpState(workdir=WORK_DIR)
        st.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        counts = None
        factors: dict[str, float] = {}
        try:
            times: dict[str, tuple[float, float]] = {}
            # calibrate around each phase, so each is scaled by the speed
            # measured right around it
            if tracer is not None:
                before = [calibration_s()]

                def after_phase(phase: str) -> None:
                    factors[TOP_SPAN.get(phase, phase)] = \
                        to_reference(1.0, before[0], calibration_s())
                    self._check(phase, st)
                    before[0] = calibration_s()

                counts = traced_op(api, tracer, self.src, self.config,
                                   self.twins, self.bindings, st, after_phase)
            else:
                for phase in phases:
                    before = calibration_s()
                    wall = self._phase(phase, st)
                    after = calibration_s()
                    times.update({k: (v, to_reference(v, before, after))
                                  for k, v in wall.items()})
                    self._check(phase, st)
                if "detect_s" in times:
                    (bw, br), (dw, dr) = times["build_s"], times["detect_s"]
                    times["scan_s"] = (bw + dw, br + dr)
            if st.json_path is not None:
                self.json_bytes = st.json_path.stat().st_size
            self._record(times)
        except (api.errors.WasmCpgError, ph.CheckFailed) as exc:
            self.failed += 1
            counts = None
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(st.workdir, ignore_errors=True)
            del st
            gc.collect()
        return counts, factors

    def _phase(self, phase: str, st: ph.OpState) -> dict[str, float]:
        api = self.api
        if phase == "build":
            return ph.run_build(api, self.src, st)
        if phase == "detect":
            return ph.run_detect(api, self.config, st)
        if phase == "wql":
            return ph.run_wql(api, self.twins, self.bindings, st)
        if phase == "save":
            return ph.run_save(api, st)
        if phase == "load_query":
            return ph.run_load_query(api, self.config, st)
        return ph.run_export(api, st)

    # -- runs ----------------------------------------------------------------------
    def run_untraced(self, seconds: float) -> dict[str, tuple[float, str]]:
        self._closed_loop(seconds, lambda i: self.run_op(
            ph.PHASES if i % FULL_EVERY == 0 else WORKLOADS[self.workload]))
        metrics = {}
        for name, unit, _, _ in END_TO_END:
            if name == "scan_s_tail":
                value, self.tail_note = tail(self.samples.get("scan_s", []))
            elif name == "peak_rss_mb":
                self._note_peak("op clean-up")
                value = self.peak_kb / 1024.0
            else:
                value = median(self.samples.get(name, []))
            metrics[name] = (value, unit)
        return metrics

    def run_traced(self, seconds: float) -> dict[str, tuple[float, str]]:
        tracer = Tracer()
        per_op: list[dict[str, float]] = []
        counts: dict[str, int] | None = None

        def one(_: int) -> None:
            nonlocal counts
            self.run_op(ph.PHASES)
            tracer.op += 1
            got, factors = self.run_op(ph.PHASES, tracer)
            if got is not None:
                counts = got
                layers = tracer.self_times(tracer.op, factors)
                for name in ("scan", "build"):
                    layers[name] = tracer.duration(tracer.op, name) * factors["scan"]
                per_op.append(layers)

        self._closed_loop(seconds, one, min_ops=2)
        write_spans(tracer, self.workload, self.seed)
        values: dict[str, float] = dict(counts or {})
        span_names = {n for layers in per_op for n in layers}
        for name in span_names:
            values[name + "_s"] = median([layers.get(name, 0.0) for layers in per_op])
        values["wql.parse_s"] = median(self.samples["wql.parse_s"])
        if counts:
            values["dataflow.revisit_ratio"] = \
                counts["dataflow.growth_revisits"] / max(1, counts["dataflow.pops"])
            values["dataflow.ddg_edges_per_s"] = \
                counts["dataflow.ddg_edges"] / values["dataflow.emit_s"]
        values["trace.untraced_scan_s"] = median(self.samples.get("scan_s", []))
        values["trace.traced_scan_s"] = values.get("scan_s", float("nan"))
        values["trace.overhead_s"] = \
            values["trace.traced_scan_s"] - values["trace.untraced_scan_s"]
        self.shares = {
            "dataflow": (values.get("dataflow.fixpoint_s", 0)
                         + values.get("dataflow.emit_s", 0)) / values.get("build_s", 1),
            "front end": sum(values.get(k, 0) for k in (
                "wat_parser.parse_s", "ast_builder.build_s",
                "cfg_builder.build_s")) / values.get("build_s", 1),
        }
        return {name: (values.get(name, float("nan")), unit)
                for name, unit, _ in PER_LAYER}

    @staticmethod
    def _closed_loop(seconds: float, op, min_ops: int = MIN_OPS) -> None:
        """One client: op(i) starts when op(i - 1) has ended."""
        start = time.perf_counter()
        n = 0
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and n >= min_ops) or elapsed >= HARD_STOP_S:
                break
            op(n)
            n += 1


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return (max(values) if values else float("nan")), f"max of {n} samples"
    ordered = sorted(values)
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples"


def load_oracle():
    path = ROOT / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": op}
            for n, s, e, p, op in tracer.spans]
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wasmcpg" / "__init__.py").is_file():
        print(f"error: no wasmcpg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: no fixpoint oracle at {ROOT / 'tests' / 'oracle.py'}",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.setup()
    try:
        try:
            bench.build_reference()
        except (bench.api.errors.WasmCpgError, ph.CheckFailed) as exc:
            bench.attempted += 1
            bench.failed += 1
            bench.errors.append(f"reference: {exc}")
        if args.trace:
            metrics = bench.run_traced(args.seconds)
        else:
            metrics = bench.run_untraced(args.seconds)
    finally:
        bench.close()
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    size = bench.input_counts
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{size.get('wat_parser.instructions')} instructions, "
          f"{size.get('graph.nodes')} nodes, edges "
          + ", ".join(f"{k}={v}" for k, v in bench.ref.counts.items() if k != "nodes")
          + (f", json {bench.json_bytes} bytes" if bench.json_bytes else ""))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "scan_s_tail":
            note = f"  ({bench.tail_note})"
        elif name == "peak_rss_mb":
            note = f"  (reached during {bench.peak_at})"
        elif name in bench.samples:
            note = (f"  (median of {len(bench.samples[name])}; "
                    f"wall median {median(bench.wall[name]):.6g} s)")
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    if args.trace:
        for layer, share in bench.shares.items():
            print(f"  share of traced build_s in {layer}: {100 * share:.1f}%")
    print(f"  fail_ratio {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f}")
    for err in bench.errors:
        print(f"  failure: {err}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
