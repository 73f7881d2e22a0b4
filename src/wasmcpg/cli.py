"""Command-line interface.

Subcommands: build (WAT -> graph JSON), query (graph JSON -> findings),
scan (WAT -> findings in one pass), export (graph JSON -> other formats).
Findings go to stdout as JSON lines; diagnostics to stderr. Exit codes:
0 no findings, 1 findings present, 2 usage error, 3 analysis error
(including running out of memory).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import ParseError, WasmCpgError, WqlError
from .export import FORMATS, ExportManifest, _json_chunks, _write_whole, export, import_json
from .findings import Finding
from .pipeline import STAGES, build_cpg
from .queries import QUERIES, ScanConfig, run_all
from .wql import eval_wql, parse_wql
from .wql.interp import DEFAULT_BUDGET

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_ANALYSIS = 3


def _step_budget(text: str) -> int:
    """`--wql-budget`'s value: a step count, 0 or more."""
    try:
        steps = int(text)
    except ValueError:
        steps = -1
    if steps < 0:
        raise argparse.ArgumentTypeError(f"expected a step count of 0 or more, got {text!r}")
    return steps


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wasmcpg",
        description="Build and query code property graphs for WebAssembly "
                    "text modules.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="parse a .wat file and emit the graph as JSON")
    b.add_argument("input")
    b.add_argument("-o", "--output", help="output file (default: stdout)")
    b.add_argument("--timing", action="store_true",
                   help="print per-stage construction times to stderr")

    qp = sub.add_parser("query", help="run queries over a previously built graph")
    qp.add_argument("input", help="graph JSON produced by 'build'")
    s = sub.add_parser("scan", help="build the graph and run queries in one pass")
    s.add_argument("input", help=".wat module")
    s.add_argument("--timing", action="store_true")
    for p in (qp, s):
        p.add_argument("--config", help="scan configuration JSON")
        p.add_argument("--builtin", help="comma-separated built-in query ids (e.g. 1,6,10)")
        p.add_argument("--wql", action="append", default=[],
                       help="query file to interpret (repeatable)")
        p.add_argument("-o", "--output", help="findings file (default: stdout)")
        p.add_argument("--wql-budget", type=_step_budget, default=DEFAULT_BUDGET, metavar="N",
                       help="fail a query file after N loop and filter steps")

    e = sub.add_parser("export", help="convert a graph to another serialization")
    e.add_argument("input", help="graph JSON produced by 'build'")
    e.add_argument("--format", required=True, choices=FORMATS)
    e.add_argument("-o", "--output", required=True,
                   help="output file (json/dot) or directory (datalog/neo4j-csv)")
    e.add_argument("--edges", help="comma-separated edge types for dot "
                                   f"(default {','.join(ExportManifest.edge_types)})")
    return ap


def _parse_builtin(arg: str | None) -> set[int] | None:
    if arg is None:
        return None
    try:
        ids = {int(x) for x in arg.split(",") if x.strip()}
    except ValueError:
        raise WasmCpgError(f"bad query id list {arg!r}")
    unknown = ids - set(QUERIES)
    if unknown:
        raise WasmCpgError(f"unknown query ids {sorted(unknown)}")
    return ids


def _read_text(path: str, error: type[WasmCpgError]) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def _emit_findings(findings: list[Finding], output: str | None) -> None:
    lines = (json.dumps(f.to_json_dict(), sort_keys=True) + "\n" for f in findings)
    if output:
        _write_whole([(output, lines)])
    else:
        sys.stdout.writelines(lines)


def _print_timing(report) -> None:
    """One line per stage; the `ddg_emit` line ends with the DDG edge count."""
    total = report.total or 1.0
    for stage in STAGES:
        dt = report.timings.get(stage, 0.0)
        edges = f"  {sum(report.ddg_edges.values())} edges" if stage == "ddg_emit" else ""
        print(f"  {stage:<12} {dt * 1000:9.2f} ms  {100 * dt / total:5.1f}%{edges}",
              file=sys.stderr)


def _run_queries(cpg, args) -> list[Finding]:
    config = ScanConfig() if args.config is None else ScanConfig.from_file(args.config)
    enabled = _parse_builtin(args.builtin)
    findings: list[Finding] = []
    if enabled is not None or not args.wql:
        findings.extend(run_all(cpg, config, enabled))
    for path in args.wql:
        program = parse_wql(_read_text(path, WqlError))
        findings.extend(eval_wql(program, cpg, config.to_wql_bindings(), args.wql_budget))
    return findings


def _run(args) -> int:
    if args.command in ("build", "scan"):
        cpg, report = build_cpg(_read_text(args.input, ParseError))
        if args.timing:
            _print_timing(report)

    if args.command == "build":
        if args.output:
            export(cpg, ExportManifest("json", args.output))
        else:   # the chunks as they come, as `export` writes a file
            sys.stdout.writelines(_json_chunks(cpg))
        return EXIT_CLEAN

    if args.command == "query":
        cpg = import_json(args.input)
    if args.command in ("query", "scan"):
        findings = _run_queries(cpg, args)
        _emit_findings(findings, args.output)
        return EXIT_FINDINGS if findings else EXIT_CLEAN

    if args.command == "export":
        edge_types = tuple(args.edges.split(",")) if args.edges is not None else \
            ExportManifest.edge_types
        manifest = ExportManifest(args.format, args.output, edge_types)
        cpg = import_json(args.input)
        for path in export(cpg, manifest):
            print(path, file=sys.stderr)
        return EXIT_CLEAN
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    ap = _parser()
    try:
        args = ap.parse_args(args_list)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_CLEAN
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    try:
        return _run(args)
    except OSError as exc:   # missing, unreadable or a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WasmCpgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except MemoryError:
        pass
    # reported once the handler has dropped the exception, whose traceback
    # holds the failed run's frames and so its memory
    print("error: out of memory", file=sys.stderr)
    return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
