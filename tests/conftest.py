from __future__ import annotations

import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from wasmcpg.pipeline import BuildReport, _build
from wasmcpg.ast_builder import BuildContext
from wasmcpg.queries import ScanConfig
from wasmcpg import graph as g

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# a WAT text's strings, parentheses and other atoms, in order; `;` is not
# part of any, so words in comments come out as tokens too
TOKEN_RE = re.compile(r'"(?:\\.|[^"\\])*"|[()]|[^\s()";]+')

CORPUS = [f"q{i:02d}_{kind}" for i in range(1, 11) for kind in ("vuln", "clean")]
EXTRA = ["fig_ddg", "libpng_get_token", "empty", "mixed", "cfg_brtable"]
ALL_FIXTURES = CORPUS + EXTRA

# expected findings per corpus fixture: (query id, kind, function, label)
ANSWER_KEY: dict[str, list[tuple[int, str, str, str]]] = {
    "q01_vuln": [(1, "FormatString", "$fmt_vuln", "$printf")],
    "q02_vuln": [(2, "DangerousFunction", "$read_line", "$gets")],
    "q03_vuln": [(3, "Use after free", "$uaf", "$free")],
    "q04_vuln": [(4, "Double free", "$df", "$free")],
    "q05_vuln": [(5, "Tainted CallIndirect", "$dispatch", "call_indirect")],
    "q06_vuln": [(6, "Tainted", "$relay", "$send")],
    "q07_vuln": [(7, "Tainted Local", "$handler", "$memcpy")],
    "q08_vuln": [(8, "BO StaticBuffer", "$stack_copy", "$memcpy")],
    "q09_vuln": [(9, "BO StaticMalloc", "$heap_copy", "$memcpy")],
    "q10_vuln": [(10, "BO Loops", "$fill", "$L")],
    **{f"q{i:02d}_clean": [] for i in range(1, 11)},
}


def fixture_source(name: str) -> str:
    return (FIXTURES / f"{name}.wat").read_text(encoding="utf-8")


def wql_source(name: str) -> str:
    return (FIXTURES / "wql" / f"{name}.wql").read_text(encoding="utf-8")


_CTX_CACHE: dict[str, tuple[BuildContext, BuildReport]] = {}


def build_fixture(name: str) -> tuple[BuildContext, BuildReport]:
    """Full build (all four edge sets, frozen graph) with per-session caching."""
    if name not in _CTX_CACHE:
        _CTX_CACHE[name] = _build(fixture_source(name))
    return _CTX_CACHE[name]


def fixture_cpg(name: str):
    return build_fixture(name)[0].cpg


@pytest.fixture(scope="session")
def scan_config() -> ScanConfig:
    return ScanConfig.from_file(str(FIXTURES / "scan_config.json"))


@pytest.fixture
def row_memos(monkeypatch) -> list[dict]:
    """Each memo `Cpg.add_ddg_rows` makes, in call order, as it was left."""
    memos, row_memo = [], g._row_memo
    monkeypatch.setattr(g, "_row_memo", lambda rows: memos.append(row_memo(rows)) or memos[-1])
    return memos
