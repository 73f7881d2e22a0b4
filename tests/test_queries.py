"""Built-in detectors: per-query behavior and configuration properties."""

from __future__ import annotations

import collections

import pytest

from conftest import ANSWER_KEY, CORPUS, build_fixture, fixture_cpg, fixture_source
from wasmcpg.errors import ConfigError
from wasmcpg.pipeline import build_context
from wasmcpg.queries import QUERIES, ScanConfig, run_all


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
        ctx = build_context("""(module
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
        findings = run_all(ctx.cpg, scan_config)
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
    ])
    def test_a_field_of_the_wrong_shape_is_config_error(self, key, value, message):
        # a string must not be split into one-character names
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
        ctx = build_context(src)
        renamed_cfg = ScanConfig.from_dict({
            "sources": ["$fetch"], "sinks": ["$emit"]})
        findings = run_all(ctx.cpg, renamed_cfg)
        base = run_all(fixture_cpg("q06_vuln"), scan_config)
        mapping = {"$read_input": "$fetch", "$send": "$emit",
                   "$relay": "$forward"}
        renamed_base = [(f.query, f.kind, mapping.get(f.function, f.function),
                         mapping.get(f.label, f.label)) for f in base]
        assert [(f.query, f.kind, f.function, f.label)
                for f in findings] == renamed_base
