"""End-to-end graph construction with per-stage timing."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ast_builder import BuildContext, build_ast
from .cfg_builder import build_cfg
from .cg_builder import build_cg, build_signature_index
from .dataflow import AnalysisStats, analyze_function, emit_ddg_edges
from .ir import ModuleIR
from .wat_parser import Parser
from . import graph as g

STAGES = ("parse", "ast", "cfg", "cg", "ddg_fixpoint", "ddg_emit", "freeze")


@dataclass
class BuildReport:
    timings: dict[str, float] = field(default_factory=dict)
    function_stats: dict[str, AnalysisStats] = field(default_factory=dict)
    ddg_edges: dict[str, int] = field(default_factory=dict)   # per function, as emitted

    @property
    def total(self) -> float:
        return sum(self.timings.values())


def _build(source: str | ModuleIR) -> tuple[BuildContext, BuildReport]:
    """The one build path: parse (unless given a module), AST (its walk is
    the validator), CFG, CG, each function's DDG fixpoint and edge emission,
    and freeze, each timed, cyclic GC paused."""
    report = BuildReport()
    last = [time.perf_counter()]

    def mark(stage):   # the time since the last mark goes to `stage`
        now = time.perf_counter()
        report.timings[stage] = report.timings.get(stage, 0.0) + now - last[0]
        last[0] = now

    def timed(stage, fn, *args):
        result = fn(*args)
        mark(stage)
        return result

    with g.gc_paused():
        module = source if isinstance(source, ModuleIR) else \
            timed("parse", Parser(source).parse)
        ctx = timed("ast", build_ast, module)
        timed("cfg", build_cfg, ctx)
        timed("cg", build_cg, ctx, build_signature_index(module))
        for func in module.functions:
            analysis = analyze_function(ctx, func.name)
            analysis.res.clear()   # the inboxes: emission reads only the popped bits
            mark("ddg_fixpoint")
            report.ddg_edges[func.name] = timed("ddg_emit", emit_ddg_edges, ctx, analysis)
            report.function_stats[func.name] = analysis.stats
            del analysis   # freed before the next function's fixpoint
            mark("ddg_fixpoint")
        timed("freeze", ctx.cpg.freeze)
    return ctx, report


def build_cpg(source: str) -> tuple[g.Cpg, BuildReport]:
    """Parse WAT text and build the frozen four-subgraph property graph."""
    ctx, report = _build(source)
    return ctx.cpg, report

