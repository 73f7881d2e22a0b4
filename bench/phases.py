"""What one benchmark op does, phase by phase, and how its output is checked.

A full op runs the phases a user of the CLI runs on one module:

    build       build_cpg                     (`wasmcpg scan`: build ...
    detect      run_all, all 10 detectors      ... then detect)
    wql         the 10 packaged WQL twins     (`wasmcpg query --wql ...`)
    save        JSON export to a file         (`wasmcpg build -o`)
    load_query  import_json + run_all         (`wasmcpg query`)
    export      DOT, Datalog and Neo4j CSV    (`wasmcpg export`)

Each phase calls only the package's public entry points, returns its wall
times, and leaves its checks to `check_*` functions that run outside the
timed region. A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import collections
import hashlib
import importlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

PHASES = ("build", "detect", "wql", "save", "load_query", "export")
SCAN = ("build", "detect")     # `wasmcpg scan`
EXPORT_FORMATS = ("dot", "datalog", "neo4j-csv")


class CheckFailed(Exception):
    """An op produced output that differs from its reference."""


def load_api(src_dir: Path) -> SimpleNamespace:
    """Import (or re-import) the package from `src_dir`.

    Previously imported package modules are dropped first, so every call
    pays the full import cost; set-up repeats this to time it.
    """
    for name in [m for m in sys.modules if m == "wasmcpg" or m.startswith("wasmcpg.")]:
        del sys.modules[name]
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    pkg = importlib.import_module("wasmcpg")
    if Path(pkg.__file__).resolve().parent != (src_dir / "wasmcpg").resolve():
        raise ImportError(f"wasmcpg imported from {pkg.__file__}, not {src_dir}")
    mods = {m: importlib.import_module(f"wasmcpg.{m}") for m in (
        "ast_builder", "cfg_builder", "cg_builder", "dataflow", "errors",
        "export", "graph", "ir", "pipeline", "queries", "wat_parser", "wql")}
    return SimpleNamespace(pkg=pkg, **mods)


def load_wql_twins(api: SimpleNamespace) -> list[tuple[int, Any, float]]:
    """(query id, parsed program, parse seconds) for each packaged twin."""
    twins = []
    for path in sorted((Path(api.pkg.__file__).parent / "queries_wql").glob("q*.wql")):
        text = path.read_text(encoding="utf-8")
        t0 = time.perf_counter()
        program = api.wql.parse_wql(text)
        twins.append((int(path.name[1:3]), program, time.perf_counter() - t0))
    return twins


# -- graph summaries ------------------------------------------------------------

def edge_counts(api, cpg) -> dict[str, int]:
    """Edge counts by edge type, and DDG edge counts by `ddgType`."""
    g = api.graph
    counts = {t: len(cpg.edges_of_type(t)) for t in g.EDGE_TYPES}
    by_ddg = collections.Counter(
        e.properties["ddgType"] for e in cpg.edges_of_type(g.DDG))
    counts.update({f"DDG.{k}": v for k, v in sorted(by_ddg.items())})
    counts["nodes"] = len(cpg.nodes)
    return counts


def rows_digest(rows) -> str:
    """Order-independent digest of DDG edge rows (see `ddg_digest`)."""
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def ddg_digest(api, cpg) -> str:
    """Order-independent digest of the exact DDG edge set."""
    return rows_digest(
        f"{e.src}\t{e.dst}\t{e.properties['ddgType']}\t{e.properties['label']!r}"
        f"\t{e.properties.get('valueType')}"
        for e in cpg.edges_of_type(api.graph.DDG))


def oracle_ddg_rows(api, ctx, func_name: str, ins: dict) -> set[str]:
    """The DDG edges of one function that the oracle's states `ins` imply.

    `ins` is `round_robin_states(ctx, func_name)` from the fixpoint oracle.
    For every node, each dependency its instruction pops (by the package's
    transfer rule, applied to the node's input state) gives one edge
    (origin, node, ddgType, label), where a constant's label is its value and
    anything else's its name. Neither the analysis engine, `emit_ddg_edges`
    nor the graph's edge store is used, so the edge set checks all three.
    Rows have the format of `ddg_digest`.
    """
    df = api.dataflow
    if not ins:
        return set()
    info = df._prepare(ctx, ctx.layouts[func_name]).info
    rows = set()
    for node, state in ins.items():
        _, popped = df.transfer(node, info[node], state)
        for dep in set().union(*popped):
            label = dep.value if dep.kind == df.CONST_DEP else dep.name
            rows.add(f"{dep.origin}\t{node}\t{dep.kind}\t{label!r}\t{dep.value_type}")
    return rows


def finding_keys(findings) -> list[tuple]:
    return sorted((f.query, f.kind, f.function, f.label) for f in findings)


# -- per-op state and phases ------------------------------------------------------

@dataclass
class Reference:
    """What every op's output must equal: the generator's answer key, the
    pinned graph counts, and the digest of the DDG edge set that the
    fixpoint oracle implies."""
    answer_key: list[tuple]
    counts: dict[str, int]
    digest: str


@dataclass
class OpState:
    workdir: Path
    cpg: Any = None
    findings: list = field(default_factory=list)
    json_path: Path | None = None
    loaded: Any = None
    loaded_findings: list = field(default_factory=list)
    wql_results: list = field(default_factory=list)


def run_build(api, src: str, st: OpState) -> dict[str, float]:
    t0 = time.perf_counter()
    st.cpg, _ = api.pipeline.build_cpg(src)
    return {"build_s": time.perf_counter() - t0}


def run_detect(api, config, st: OpState) -> dict[str, float]:
    t0 = time.perf_counter()
    st.findings = api.queries.run_all(st.cpg, config)
    return {"detect_s": time.perf_counter() - t0}


def run_wql(api, twins, bindings, st: OpState) -> dict[str, float]:
    t0 = time.perf_counter()
    st.wql_results = [(qid, api.wql.eval_wql(program, st.cpg, bindings))
                      for qid, program, _ in twins]
    return {"wql_s": time.perf_counter() - t0}


def run_save(api, st: OpState) -> dict[str, float]:
    path = st.workdir / "cpg.json"
    t0 = time.perf_counter()
    api.export.export(st.cpg, api.export.ExportManifest("json", str(path)))
    st.json_path = path
    return {"save_s": time.perf_counter() - t0}


def run_load_query(api, config, st: OpState) -> dict[str, float]:
    t0 = time.perf_counter()
    loaded = api.export.import_json(str(st.json_path))
    findings = api.queries.run_all(loaded, config)
    st.loaded, st.loaded_findings = loaded, findings
    return {"load_query_s": time.perf_counter() - t0}


def run_export(api, st: OpState) -> dict[str, float]:
    t0 = time.perf_counter()
    for fmt in EXPORT_FORMATS:
        api.export.export(st.loaded, api.export.ExportManifest(
            fmt, str(export_path(st, fmt))))
    return {"export_s": time.perf_counter() - t0}


def export_path(st: OpState, fmt: str) -> Path:
    return st.workdir / {"dot": "cpg.dot", "datalog": "facts",
                         "neo4j-csv": "csv"}[fmt]


# -- checks (outside the timed region) ---------------------------------------------

def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_scan(api, ref: Reference, st: OpState) -> None:
    _expect(finding_keys(st.findings) == ref.answer_key,
            "scan findings differ from the answer key")
    _expect(edge_counts(api, st.cpg) == ref.counts,
            "edge counts by type or ddgType changed")
    _expect(ddg_digest(api, st.cpg) == ref.digest,
            "DDG edge set differs from the one the fixpoint oracle implies")


def check_wql(st: OpState) -> None:
    native = collections.defaultdict(collections.Counter)
    for f in st.findings:
        native[f.query][f.key()] += 1
    for qid, found in st.wql_results:
        _expect(collections.Counter(f.key() for f in found) == native[qid],
                f"WQL twin q{qid:02d} disagrees with the native detector")


def _sha256_of_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_ROUND_TRIP_CHILD = """
import hashlib, importlib, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
export = importlib.import_module("wasmcpg.export")
assert Path(export.__file__).resolve().parent == (Path(sys.argv[1]) / "wasmcpg").resolve()
for line in sys.stdin:
    try:
        text = export.to_json(export.import_json(line.rstrip("\\n")))
        print(hashlib.sha256(text.encode("utf-8")).hexdigest(), flush=True)
    except Exception as exc:
        print(f"error {type(exc).__name__}", flush=True)
"""


class RoundTripChecker:
    """A child process that answers each graph file path with the SHA-256 of
    `to_json(import_json(path))`, computed by the package under test.

    The round trip takes as much memory as the timed save does, on top of
    the reloaded graph; in a process of its own, started before any op, it
    never counts in the benchmark process's peak RSS or shares its pages.
    """

    def __init__(self, src_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _ROUND_TRIP_CHILD, str(src_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sha256(self, path: Path) -> str:
        """The digest, or "" if the child has ended."""
        try:
            self.proc.stdin.write(f"{path}\n")
            self.proc.stdin.flush()
        except OSError:
            return ""
        return self.proc.stdout.readline().strip()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def check_load_query(ref: Reference, st: OpState) -> None:
    _expect(finding_keys(st.loaded_findings) == ref.answer_key,
            "findings after import_json differ from the answer key")


def check_round_trip(checker: RoundTripChecker, st: OpState) -> None:
    """to_json(import_json(f)) must be byte-identical to the saved file f."""
    _expect(checker.sha256(st.json_path) == _sha256_of_file(st.json_path),
            "JSON round trip is not byte-identical")


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def check_export(ref: Reference, st: OpState) -> None:
    nodes = ref.counts["nodes"]
    edges = sum(ref.counts[t] for t in ("AST", "CFG", "CG", "DDG"))
    _expect(_lines(export_path(st, "dot")) == nodes + edges + 3,
            "DOT file does not hold every node and edge")
    csv = export_path(st, "neo4j-csv")
    _expect(_lines(csv / "nodes.csv") == nodes + 1
            and _lines(csv / "edges.csv") == edges + 1,
            "Neo4j CSV does not hold every node and edge")
    facts = export_path(st, "datalog")
    for pred, etype in (("astEdge", "AST"), ("cfgEdge", "CFG"),
                        ("cgEdge", "CG"), ("ddgEdge", "DDG")):
        _expect(_lines(facts / f"{pred}.facts") == ref.counts[etype],
                f"Datalog {pred} facts miss edges")



def check_after(api, ref: Reference, checker: RoundTripChecker, phase: str,
                st: OpState) -> None:
    """Check a phase's output, outside its timed region, then drop what the
    later phases do not need, so no check holds more than the phases do."""
    if phase == "detect":
        check_scan(api, ref, st)
    elif phase == "wql":
        check_wql(st)
        st.wql_results = []
    elif phase == "save":
        st.cpg = None       # load_query and export use the reloaded graph
    elif phase == "load_query":
        check_load_query(ref, st)
    elif phase == "export":
        check_export(ref, st)
        check_round_trip(checker, st)
