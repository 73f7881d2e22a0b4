"""Traced run: the same full op, decomposed into calls to each layer.

`traced_op` repeats what `build_cpg`, `run_all`, the WQL twins and the
exporters do, but calls every layer's public function itself and wraps each
call in a span. Spans live in memory (`Tracer.spans`) and are written out
when the run ends. A layer's self time is its span's duration minus the
time its child spans cover.

The traced graph must equal the `build_cpg` graph (edge counts by type and
the DDG edge-set digest), so this decomposition cannot drift from the
pipeline users call.
"""

from __future__ import annotations

import collections
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from phases import EXPORT_FORMATS, OpState, export_path


class Tracer:
    """Flat list of spans: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, op: int, scale: dict[str, float]) -> dict[str, float]:
        """Summed self time per span name, over the spans of one op. Each
        span's time is multiplied by `scale[t]`, where t is the name of its
        top-level span (a child of the op's root span)."""
        child = collections.Counter()
        top: dict[int, str] = {}
        out: collections.Counter = collections.Counter()
        for i, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            if parent is not None:
                child[parent] += end - start
                grand = self.spans[parent][3]
                top[i] = name if grand is None else top.get(parent, "")
        for i, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op == op:
                out[name] += (end - start - child[i]) * scale.get(top.get(i, ""), 1.0)
        return dict(out)

    def duration(self, op: int, name: str) -> float:
        return sum(end - start for n, start, end, _, span_op in self.spans
                   if span_op == op and n == name)


@dataclass
class Built:
    """A layer-by-layer build: its context and what its exact counters need."""
    ctx: Any
    module: Any
    stats: list
    ddg_edges: int

    def counts(self, api) -> dict[str, int]:
        """The layers' exact counters. No layer after the AST builder adds
        nodes or AST edges, and each other edge type has one builder, so the
        frozen graph gives every layer's count; callers read them after
        their spans have closed."""
        g = api.graph
        cpg = self.ctx.cpg
        edges = {t: len(cpg.edges_of_type(t)) for t in g.EDGE_TYPES}
        stats = self.stats
        return {
            "wat_parser.instructions": sum(
                sum(1 for _ in api.ir.iter_instructions(f.body))
                for f in self.module.functions),
            "ast_builder.nodes": len(cpg.nodes),
            "ast_builder.ast_edges": edges[g.AST],
            "cfg_builder.cfg_edges": edges[g.CFG],
            "cg_builder.cg_edges": edges[g.CG],
            "dataflow.pops": sum(s.pops for s in stats),
            "dataflow.growth_revisits": sum(s.growth_revisits for s in stats),
            "dataflow.transfers": sum(sum(s.transfer_counts.values()) for s in stats),
            "dataflow.ddg_edges": self.ddg_edges,
            "graph.nodes": len(cpg.nodes),
            "graph.edges": sum(edges.values()),
        }


def traced_build(api, tr: Tracer, src: str, on_analysis=None) -> Built:
    """parse -> AST -> CFG -> CG -> DDG -> freeze, one span per layer call.

    `on_analysis(ctx, name, analysis)`, if given, is called with each
    function's fixpoint before the next one is computed; the reference build
    checks it against the oracle there.
    """
    stats = []
    ddg_edges = 0
    with tr.span("build"):
        with tr.span("wat_parser.parse"):
            module = api.wat_parser.parse_module(src)
        with tr.span("ast_builder.build"):
            ctx = api.ast_builder.build_ast(module)
        with tr.span("cfg_builder.build"):
            api.cfg_builder.build_cfg(ctx)
        with tr.span("cg_builder.build"):
            index = api.cg_builder.build_signature_index(module)
            api.cg_builder.build_cg(ctx, index)
        with tr.span("dataflow"):
            for func in module.functions:
                with tr.span("dataflow.fixpoint"):
                    analysis = api.dataflow.analyze_function(ctx, func.name)
                with tr.span("dataflow.emit"):
                    ddg_edges += api.dataflow.emit_ddg_edges(ctx, analysis)
                stats.append(analysis.stats)
                if on_analysis is not None:
                    on_analysis(ctx, func.name, analysis)
                del analysis
        with tr.span("graph.freeze"):
            ctx.cpg.freeze()
    return Built(ctx, module, stats, ddg_edges)


def traced_op(api, tr: Tracer, src: str, config, twins, bindings,
              st: OpState, after_phase=None) -> dict[str, int]:
    """One full op, layer by layer. Returns the layers' exact counters.

    `after_phase(phase)`, if given, runs after each phase's span has closed,
    as it does between the untraced phases: it checks the phase's output and
    drops what later phases do not need (the built graph after `save`).
    """
    after_phase = after_phase or (lambda phase: None)
    with tr.span("op"):
        with tr.span("scan"):
            built = traced_build(api, tr, src)
            cpg = built.ctx.cpg
            findings = []
            with tr.span("detect"):
                for qid in sorted(api.queries.QUERIES):
                    with tr.span(f"queries.q{qid:02d}"):
                        findings.extend(api.queries.QUERIES[qid](cpg, config))
        counts = built.counts(api)
        counts["queries.findings"] = len(findings)
        st.cpg, st.findings = cpg, findings
        del built, cpg
        after_phase("detect")
        with tr.span("wql"):
            st.wql_results = []
            for qid, program, _ in twins:
                with tr.span(f"wql.q{qid:02d}"):
                    st.wql_results.append(
                        (qid, api.wql.eval_wql(program, st.cpg, bindings)))
        counts["wql.findings"] = sum(len(found) for _, found in st.wql_results)
        after_phase("wql")
        with tr.span("save"):
            st.json_path = st.workdir / "cpg.json"
            with tr.span("export.to_json"):
                text = api.export.to_json(st.cpg)
            with open(st.json_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            del text
        counts["export.json_bytes"] = st.json_path.stat().st_size
        after_phase("save")
        with tr.span("load_query"):
            with tr.span("export.import_json"):
                st.loaded = api.export.import_json(str(st.json_path))
            st.loaded_findings = api.queries.run_all(st.loaded, config)
        after_phase("load_query")
        with tr.span("export"):
            for fmt, name in zip(EXPORT_FORMATS, ("export.to_dot", "export.datalog",
                                                  "export.neo4j")):
                with tr.span(name):
                    api.export.export(st.loaded, api.export.ExportManifest(
                        fmt, str(export_path(st, fmt))))
        after_phase("export")
    return counts
