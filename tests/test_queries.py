"""Built-in detectors: per-query behavior and configuration properties."""

from __future__ import annotations

import collections
import pathlib

import pytest

from conftest import ANSWER_KEY, CORPUS, build_fixture, fixture_cpg, fixture_source
from wasmcpg.errors import ConfigError
from wasmcpg.pipeline import build_cpg
from wasmcpg.queries import QUERIES, ScanConfig, run_all
from wasmcpg.wql import eval_wql, parse_wql

QUERIES_WQL = pathlib.Path(__file__).parent.parent / "src" / "wasmcpg" / "queries_wql"


def _keys(findings):
    return [(f.query, f.kind, f.function, f.label) for f in findings]


class TestRunAll:
    def test_corpus_answer_key(self, scan_config):
        for name in CORPUS:
            cpg = fixture_cpg(name)
            assert _keys(run_all(cpg, scan_config)) == ANSWER_KEY[name], name

    def test_clean_module_all_queries(self, scan_config):
        assert run_all(fixture_cpg("q01_clean"), scan_config) == []

    def test_enabled_subset(self, scan_config):
        cpg = fixture_cpg("q10_vuln")
        assert run_all(cpg, scan_config, {10}) != []
        assert run_all(cpg, scan_config, {1, 2, 3}) == []

    def test_findings_ordered_by_query_id(self, scan_config):
        # one module carrying both a dangerous call and a tainted flow
        cpg, _ = build_cpg("""(module
          (import "env" "read_input" (func $read_input (result i32)))
          (import "env" "send" (func $send (param i32)))
          (import "env" "gets" (func $gets (param i32) (result i32)))
          (func $both
            (local $x i32)
            i32.const 0
            call $gets
            local.set $x
            call $read_input
            local.set $x
            local.get $x
            call $send))""")
        findings = run_all(cpg, scan_config)
        assert [f.query for f in findings] == sorted(f.query for f in findings)
        assert {f.query for f in findings} == {2, 6}

    def test_determinism(self, scan_config):
        cpg = fixture_cpg("q07_vuln")
        a = _keys(run_all(cpg, scan_config))
        b = _keys(run_all(cpg, scan_config))
        assert a == b


class TestScanConfig:
    def test_rejects_self_paired_allocator(self):
        with pytest.raises(ValueError, match="itself"):
            ScanConfig.from_dict({"allocPairs": {"$x": "$x"}})

    def test_rejects_negative_format_index(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScanConfig.from_dict({"formatFunctions": {"$printf": -1}})

    @pytest.mark.parametrize("data", [
        [], "x", {"formatFunctions": [1]}, {"formatFunctions": {"$p": "x"}},
        {"taintDepth": None}, {"taintDepth": float("inf")}, {"sources": 3},
    ])
    def test_malformed_config_is_config_error(self, data):
        with pytest.raises(ConfigError):
            ScanConfig.from_dict(data)

    @pytest.mark.parametrize("key, value, message", [
        ("sources", "$read_input", "an array of strings"),
        ("sinks", "$send", "an array of strings"),
        ("dangerousFunctions", "$gets", "an array of strings"),
        ("sources", ["$read_input", 3], "an array of strings"),
        ("sinks", {"$send": 1}, "an array of strings"),
        ("dangerousFunctions", None, "an array of strings"),
        ("formatFunctions", "$printf", "an object"),
        ("formatFunctions", [["$printf", 0]], "an object"),
        ("allocPairs", "$malloc", "an object"),
        ("allocPairs", [["$malloc", "$free"]], "an object"),
        ("allocPairs", {"$malloc": ["$free"]}, "an object of strings"),
        ("allocPairs", {"$malloc": None}, "an object of strings"),
        ("formatFunctions", {"$printf": "0"}, "an object of integers"),
        ("formatFunctions", {"$printf": True}, "an object of integers"),
        ("formatFunctions", {"$printf": 0.0}, "an object of integers"),
        ("taintDepth", "2", "an integer >= 0"),
        ("taintDepth", True, "an integer >= 0"),
        ("taintDepth", 2.0, "an integer >= 0"),
        ("taintDepth", -1, "an integer >= 0"),
    ])
    def test_a_field_of_the_wrong_shape_is_config_error(self, key, value, message):
        # a string must not be split into one-character names, nor a value
        # of the wrong type coerced
        with pytest.raises(ConfigError, match=f"{key} must be {message}"):
            ScanConfig.from_dict({key: value})

    @pytest.mark.parametrize("content", [b"{", b"\xff{}", b"[" * 100000],
                             ids=["bad-json", "not-utf8", "too-deep"])
    def test_unreadable_config_file(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot load"):
            ScanConfig.from_file(str(path))

    def test_wql_bindings_alias(self):
        cfg = ScanConfig.from_dict({"allocPairs": {"$m": "$f"}})
        b = cfg.to_wql_bindings()
        assert b["pairMalloc"] == b["allocPairs"] == {"$m": "$f"}


class TestIndividualQueries:
    def test_q1_constant_through_local_is_clean(self, scan_config):
        cpg = fixture_cpg("q01_clean")
        assert QUERIES[1](cpg, scan_config) == []

    def test_q3_alloc_without_use_is_clean(self, scan_config):
        cpg = fixture_cpg("q04_clean")  # malloc + single free, never used after
        assert QUERIES[3](cpg, scan_config) == []

    def test_q3_does_not_fire_on_double_free(self, scan_config):
        # the second release and its operands are not "uses"
        cpg = fixture_cpg("q04_vuln")
        assert QUERIES[3](cpg, scan_config) == []
        assert len(QUERIES[4](cpg, scan_config)) == 1

    def test_q7_interprocedural_depth(self, scan_config):
        cpg = fixture_cpg("q07_vuln")
        shallow = ScanConfig(**{**scan_config.__dict__, "taint_depth": 0})
        assert QUERIES[7](cpg, shallow) == []
        assert len(QUERIES[7](cpg, scan_config)) == 1

    def test_q8_global_static_buffer_not_reported(self, scan_config):
        # the constant-pointer write in the clean fixture would overflow a
        # 16-byte buffer, but its size cannot be inferred: no report
        cpg = fixture_cpg("q08_clean")
        assert QUERIES[8](cpg, scan_config) == []

    @pytest.mark.parametrize("name, expected", [
        ("q08_wasm2wat_vuln", [(8, "BO StaticBuffer", "$stack_copy", "$memcpy")]),
        ("q08_wasm2wat_clean", []),
    ])
    def test_q8_on_a_stack_pointer_read_as_global_0(self, scan_config, name, expected):
        # the frame prologue as wasm2wat prints it: `global.get 0` of an
        # unnamed imported `__stack_pointer`
        assert _keys(run_all(fixture_cpg(name), scan_config)) == expected

    def test_q10_flags_libpng_loop(self, scan_config):
        findings = QUERIES[10](fixture_cpg("libpng_get_token"), scan_config)
        assert [(f.function, f.label) for f in findings] == [("$get_token", "$L4")]


class TestConfigMonotonicity:
    def test_more_sinks_never_fewer_findings(self, scan_config):
        cpg = fixture_cpg("q06_vuln")
        small = ScanConfig.from_dict({"sources": ["$read_input"],
                                      "sinks": ["$send"]})
        big = ScanConfig.from_dict({"sources": ["$read_input"],
                                    "sinks": ["$send", "$memcpy", "$extra"]})
        for qid in (6, 7):
            a = collections.Counter(f.key() for f in QUERIES[qid](cpg, small))
            b = collections.Counter(f.key() for f in QUERIES[qid](cpg, big))
            assert a <= b

    def test_more_sources_never_fewer_findings(self):
        cpg = fixture_cpg("q05_vuln")
        none = ScanConfig.from_dict({"sources": [], "sinks": ["$send"]})
        some = ScanConfig.from_dict({"sources": ["$read_input"],
                                     "sinks": ["$send"]})
        for qid in (5, 6):
            a = collections.Counter(f.key() for f in QUERIES[qid](cpg, none))
            b = collections.Counter(f.key() for f in QUERIES[qid](cpg, some))
            assert a <= b


class TestRenameInvariance:
    def test_findings_follow_a_consistent_rename(self, scan_config):
        src = fixture_source("q06_vuln").replace("$read_input", "$fetch")\
                                        .replace("$send", "$emit")\
                                        .replace("$relay", "$forward")
        cpg, _ = build_cpg(src)
        renamed_cfg = ScanConfig.from_dict({
            "sources": ["$fetch"], "sinks": ["$emit"]})
        findings = run_all(cpg, renamed_cfg)
        base = run_all(fixture_cpg("q06_vuln"), scan_config)
        mapping = {"$read_input": "$fetch", "$send": "$emit",
                   "$relay": "$forward"}
        renamed_base = [(f.query, f.kind, mapping.get(f.function, f.function),
                         mapping.get(f.label, f.label)) for f in base]
        assert [(f.query, f.kind, f.function, f.label)
                for f in findings] == renamed_base


ALLOC_IMPORTS = """
  (import "env" "malloc" (func $malloc (param i32) (result i32)))
  (import "env" "free" (func $free (param i32)))"""

# (module, expected native findings); each also checked against its WQL twin
EDGE_CASES = {
    "q10-one-of-two-indexes-bounded": ("""(module
      (func $two (param $n i32) (local $i i32) (local $j i32)
        (loop $L
          (i32.store8 (local.tee $i (i32.add (local.get $i) (i32.const 1))) (i32.const 7))
          (i32.store8 (local.tee $j (i32.add (local.get $j) (i32.const 1))) (i32.const 7))
          (br_if $L (i32.lt_s (local.get $i) (local.get $n))))))""",
        [(10, "BO Loops", "$two", "$L")]),
    "q10-both-bounded-one-in-a-nested-block": ("""(module
      (func $both (param $n i32) (local $i i32) (local $j i32)
        (loop $L
          (i32.store8 (local.tee $i (i32.add (local.get $i) (i32.const 1))) (i32.const 7))
          (i32.store8 (local.tee $j (i32.add (local.get $j) (i32.const 1))) (i32.const 7))
          (block $B
            (br_if $B (i32.ge_s (local.get $j) (local.get $n))))
          (br_if $L (i32.lt_s (local.get $i) (local.get $n))))))""",
        []),
    "q10-increment-feeds-only-a-load": ("""(module
      (func $sum (result i32) (local $i i32) (local $s i32)
        (loop $L
          (local.set $s (i32.add (local.get $s)
            (i32.load8_u (local.tee $i (i32.add (local.get $i) (i32.const 1))))))
          (i32.store8 (i32.const 1024) (local.get $s))
          (br_if $L (i32.ne (local.get $s) (i32.const 10))))
        (local.get $s)))""",
        []),
    "q10-inner-loop-bounded-only-by-the-outer": ("""(module
      (func $nest (param $n i32) (local $i i32)
        (loop $outer
          (loop $inner
            (i32.store8 (local.tee $i (i32.add (local.get $i) (i32.const 1))) (i32.const 7))
            (br_if $inner (i32.ne (local.get $n) (i32.const 0))))
          (br_if $outer (i32.lt_s (local.get $i) (local.get $n))))))""",
        [(10, "BO Loops", "$nest", "$inner")]),
    # the DDG does not tell loop iterations apart, so the next iteration's
    # local.set of a fresh allocation counts as a use of the released one
    "q3-q4-release-in-a-loop": (f"""(module {ALLOC_IMPORTS}
      (func $churn (param $n i32) (local $p i32)
        (loop $L
          (local.set $p (call $malloc (i32.const 16)))
          (call $free (local.get $p))
          (br_if $L (local.tee $n (i32.sub (local.get $n) (i32.const 1)))))))""",
        [(3, "Use after free", "$churn", "$free")]),
    "q3-q4-double-release-in-a-loop": (f"""(module {ALLOC_IMPORTS}
      (func $twice (param $n i32) (local $p i32)
        (loop $L
          (local.set $p (call $malloc (i32.const 16)))
          (call $free (local.get $p))
          (call $free (local.get $p))
          (br_if $L (local.tee $n (i32.sub (local.get $n) (i32.const 1)))))))""",
        [(3, "Use after free", "$twice", "$free")] * 2   # one per release
        + [(4, "Double free", "$twice", "$free")]),
}


class TestEdgeCases:
    @pytest.mark.parametrize("source, expected", EDGE_CASES.values(),
                             ids=EDGE_CASES.keys())
    def test_native_findings_and_wql_parity(self, source, expected, scan_config):
        cpg, _ = build_cpg(source)
        qids = {3, 4, 10}
        assert _keys(run_all(cpg, scan_config, qids)) == expected
        bindings = scan_config.to_wql_bindings()
        for qid in sorted(qids):
            (path,) = QUERIES_WQL.glob(f"q{qid:02d}_*.wql")
            twin = eval_wql(parse_wql(path.read_text(encoding="utf-8")), cpg, bindings)
            native = run_all(cpg, scan_config, {qid})
            assert [f.key() for f in twin] == [f.key() for f in native], qid
